package main

import (
	"fmt"
	"time"
)

// tenantSpec is one tenant's query and source shape.
type tenantSpec struct {
	name       string
	sources    int
	interval   time.Duration // per-source send interval
	tuples     int           // mean tuples per batch
	keys       int64         // key cardinality
	window     time.Duration // tumbling window
	deadline   time.Duration // query latency target
	fanout     int           // stage-0 parallelism
	global     bool          // keyed Aggregate → AggregateGlobal (one result per window)
	maxPending int           // per-query budget; 0 = none
	burst      burstSpec
}

// burstSpec describes periodic send-rate bursts: from offset after the
// measured phase begins, every period, for length, the tenant's sources
// send factor times as often.
type burstSpec struct {
	offset, every, length time.Duration
	factor                int
}

func (b burstSpec) active(t time.Duration) bool {
	if b.every <= 0 || t < b.offset {
		return false
	}
	return (t-b.offset)%b.every < b.length
}

type workloadSpec struct {
	name    string
	wire    bool
	tenants []tenantSpec
}

// The latency-sensitive tenant: many sources, small windows, a tight
// deadline, one result per window.
var lsTenant = tenantSpec{
	name:     "ls",
	sources:  8,
	interval: 500 * time.Microsecond,
	tuples:   8,
	keys:     64,
	window:   2 * time.Millisecond,
	deadline: 10 * time.Millisecond,
	fanout:   4,
	global:   true,
}

// The analytics tenant: large batches, many keys, larger windows, a
// loose deadline, one result per key per window.
var bulkTenant = tenantSpec{
	name:     "bulk",
	sources:  8,
	interval: 500 * time.Microsecond,
	tuples:   48,
	keys:     512,
	window:   100 * time.Millisecond,
	deadline: 500 * time.Millisecond,
	fanout:   4,
}

func workloadByName(name string) (workloadSpec, error) {
	switch name {
	case "mixed":
		return workloadSpec{name: name, tenants: []tenantSpec{lsTenant, bulkTenant}}, nil
	case "mixed-wire":
		return workloadSpec{name: name, wire: true, tenants: []tenantSpec{lsTenant, bulkTenant}}, nil
	case "spike":
		// Each burst triples bulk's batch rate, past what its budget
		// admits. Bursts past the host's CPU capacity starve the
		// in-process generator of CPU, and the late batches set off the
		// known quarantine defect in storms, so no figure of such a run
		// repeats.
		bulk := bulkTenant
		bulk.maxPending = 300
		bulk.burst = burstSpec{offset: 500 * time.Millisecond, every: 2 * time.Second, length: 400 * time.Millisecond, factor: 3}
		return workloadSpec{name: name, tenants: []tenantSpec{lsTenant, bulk}}, nil
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (want mixed, mixed-wire or spike)", name)
}
