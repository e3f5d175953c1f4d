package main

import (
	"time"
)

// tenant returns the pass's tenant of the given name.
func (p *pass) tenant(name string) *tenantRun {
	for _, t := range p.tenants {
		if t.spec.name == name {
			return t
		}
	}
	return nil
}

// latencies returns a tenant's sorted per-result figures, picked by f.
func (t *tenantRun) latencies(f func(sample) time.Duration) []time.Duration {
	return sortDurations(pick(t.out.samples, f))
}

func pick(samples []sample, f func(sample) time.Duration) []time.Duration {
	xs := make([]time.Duration, len(samples))
	for i, s := range samples {
		xs[i] = f(s)
	}
	return xs
}

func latencyOf(s sample) time.Duration  { return s.latency }
func frontierOf(s sample) time.Duration { return s.frontier }
func residentOf(s sample) time.Duration { return s.resident }

// latencyMS is a tenant's end-to-end latency percentile q in ms: the
// median, over consecutive groups of groupSize results in observation
// order, of that group's percentile. A group's p99 leaves exactly 10
// results beyond it; a run with fewer results than one group is taken as
// one group, with the tail rule's percentile in place of a higher one.
func (t *tenantRun) latencyMS(q float64) float64 {
	var qs []float64
	for _, xs := range latencyGroups(t.out.samples) {
		sortDurations(xs)
		qs = append(qs, ms(quantile(xs, reportQuantile(len(xs), q))))
	}
	return median(qs)
}

// groupSize is the smallest group whose p99 has 10 results beyond it.
const groupSize = 1000

// latencyGroups splits the latencies of samples (in observation order)
// into consecutive groups of groupSize, dropping a short last group.
func latencyGroups(samples []sample) [][]time.Duration {
	var out [][]time.Duration
	for i := 0; i+groupSize <= len(samples); i += groupSize {
		out = append(out, pick(samples[i:i+groupSize], latencyOf))
	}
	if len(out) == 0 && len(samples) > 0 {
		out = append(out, pick(samples, latencyOf))
	}
	return out
}

// cpuPerTuple is the process CPU ns per tuple offered in the measured
// phase.
func (p *pass) cpuPerTuple() float64 {
	return float64((p.cpuUser + p.cpuSys).Nanoseconds()) / float64(max(p.measuredTuples, 1))
}

func (p *pass) endToEnd() map[string]metric {
	ls, bulk := p.tenant("ls"), p.tenant("bulk")
	return map[string]metric{
		"setup_s":              {median(p.setup), "s"},
		"ls_p50_ms":            {ls.latencyMS(0.5), "ms"},
		"ls_p95_ms":            {ls.latencyMS(0.95), "ms"},
		"bulk_p50_ms":          {bulk.latencyMS(0.5), "ms"},
		"bulk_p99_ms":          {bulk.latencyMS(0.99), "ms"},
		"ls_deadline_met_frac": {frac(int64(ls.out.deadlineMet), int64(ls.out.deadlineWindows)), "fraction"},
		"delivered_frac":       {frac(p.deliveredTuples, p.offeredTuples), "fraction"},
		"peak_heap_mb":         {float64(p.peakHeap) / (1 << 20), "MB"},
	}
}

func frac(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// burstFigures measures each burst of the spike workload: the time from
// its end until the backlog is back at its pre-burst level, the tuples
// completed (in correct results) per second and the messages executed per
// second while the backlog was above that level. Medians over bursts;
// zeros when the workload has no bursts.
func (p *pass) burstFigures() (recovery time.Duration, drainTuples, execRate float64) {
	var length time.Duration
	for _, t := range p.tenants {
		length = max(length, t.spec.burst.length)
	}
	var recs, drains, execs []float64
	ps := p.pendingSamples
	for _, bs := range p.burstStarts {
		be := bs + length
		// The pre-burst level: the 90th percentile of the backlog over
		// the 200ms before the burst.
		var before []time.Duration
		var atStart *pendingSample
		for i := range ps {
			s := &ps[i]
			if s.at >= bs-200*time.Millisecond && s.at < bs {
				before = append(before, time.Duration(s.pending))
			}
			if atStart == nil && s.at >= bs {
				atStart = s
			}
		}
		if len(before) == 0 || atStart == nil {
			continue
		}
		pre := int(quantile(sortDurations(before), 0.9))
		var rec *pendingSample
		for i := range ps {
			if ps[i].at >= be && ps[i].pending <= pre {
				rec = &ps[i]
				break
			}
		}
		if rec == nil {
			continue
		}
		recs = append(recs, (rec.at - be).Seconds())
		busy := (rec.at - atStart.at).Seconds()
		execs = append(execs, float64(rec.executed-atStart.executed)/busy)
		var tuples int64
		for _, t := range p.tenants {
			for _, s := range t.out.samples {
				if s.observed >= atStart.at && s.observed <= rec.at {
					tuples += int64(s.tuples)
				}
			}
		}
		drains = append(drains, float64(tuples)/busy)
	}
	return time.Duration(median(recs) * float64(time.Second)), median(drains), median(execs)
}

// medianParts sums the four blocking steps (generator lag, frontier wait,
// closing call, engine residency) of the results around the median: each
// step's mean over the results between the 45th and 55th percentile of
// latency.
func (t *tenantRun) medianParts() time.Duration {
	lat := t.latencies(latencyOf)
	lo, hi := quantile(lat, 0.45), quantile(lat, 0.55)
	var sum time.Duration
	n := 0
	for _, s := range t.out.samples {
		if s.latency >= lo && s.latency <= hi {
			sum += s.lag + s.frontier + s.call + s.resident
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

// perLayer reports the traced pass p; base is the untraced pass of the
// same workload and seed, for the tracing overhead.
func (p *pass) perLayer(base *pass, tr *tracer) map[string]metric {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	lag := sortDurations(append([]time.Duration(nil), p.genLag...))
	put("gen.lag_p50_us", us(quantile(lag, 0.5)), "us")
	put("gen.lag_p99_us", us(quantile(lag, 0.99)), "us")
	put("gen.offered_tuples", float64(p.offeredTuples), "count")

	calls := sortDurations(append([]time.Duration(nil), p.ingestCalls...))
	put("ingest.call_p50_us", us(quantile(calls, 0.5)), "us")
	put("ingest.call_p99_us", us(quantile(calls, 0.99)), "us")
	put("ingest.refused_overloaded", float64(p.refusedOverload), "count")
	put("ingest.refused_paused", float64(p.refusedPaused), "count")

	for _, t := range p.tenants {
		prefix := "engine."
		if t.spec.name != "ls" {
			prefix = "engine." + t.spec.name + "_"
		}
		put(prefix+"frontier_wait_ms", ms(quantile(t.latencies(frontierOf), 0.5)), "ms")
		res := t.latencies(residentOf)
		put(prefix+"residency_p50_ms", ms(quantile(res, 0.5)), "ms")
		put(prefix+"residency_p99_ms", ms(quantile(res, 0.99)), "ms")

		lat := t.latencies(latencyOf)
		q, _ := tailQuantile(len(lat))
		put(t.spec.name+".samples", float64(len(lat)), "count")
		put(t.spec.name+".tail_pct", 100*q, "%")
		put(t.spec.name+".tail_ms", ms(quantile(lat, q)), "ms")
		put("trace."+t.spec.name+"_decomp_ratio", ms(t.medianParts())/base.tenant(t.spec.name).latencyMS(0.5), "ratio")
	}
	var pend []float64
	maxPend := 0
	for _, s := range p.pendingSamples {
		if s.at >= p.measureFrom {
			pend = append(pend, float64(s.pending))
			maxPend = max(maxPend, s.pending)
		}
	}
	recovery, drain, execRate := p.burstFigures()
	put("engine.executed_per_tuple", frac(p.executed, p.acceptedTuples), "ratio")
	put("engine.pending_p50", median(pend), "count")
	put("engine.pending_max", float64(maxPend), "count")
	put("engine.exec_per_s_backlogged", execRate, "1/s")
	put("engine.handler_panics", float64(p.handlerPanics), "count")
	restarts := 0
	lost := 0
	for _, t := range p.tenants {
		restarts += t.restarts
		lost += t.out.lostWindows
	}
	put("engine.restarts", float64(restarts), "count")
	put("engine.stats_p99_ms", ms(p.statsP99), "ms")
	put("spike_drain_tuples_per_s", drain, "1/s")
	put("recovery_s", recovery.Seconds(), "s")

	put("sink.results", float64(p.results), "count")
	put("sink.mismatches", float64(p.mismatches), "count")
	put("sink.duplicates", float64(p.dups), "count")
	put("sink.lost_windows", float64(lost), "count")
	put("failed_frac", 1-frac(p.deliveredTuples, p.offeredTuples), "fraction")

	sends := sortDurations(append([]time.Duration(nil), p.clientCalls...))
	put("client.send_p50_us", us(quantile(sends, 0.5)), "us")
	put("client.send_p99_us", us(quantile(sends, 0.99)), "us")
	put("client.refused_window", float64(p.refusedWindow), "count")
	put("client.refused_backoff", float64(p.refusedBackoff), "count")
	put("client.nacked_frames", float64(p.client.NackedFrames), "count")
	flush := 0.0
	if p.cfg.w.wire {
		flush = ms(p.flushTime)
	}
	put("client.flush_ms", flush, "ms")

	put("server.frames", float64(p.server.Frames), "count")
	put("server.flushes", float64(p.server.Flushes), "count")
	put("server.events_per_flush", frac(p.server.FlushedEvents+p.server.NackedEvents, p.server.Flushes), "ratio")
	put("server.nacked_flushes", float64(p.server.NackedFlushes), "count")
	put("server.protocol_errors", float64(p.server.ProtocolErrors), "count")

	put("cpu_ns_per_tuple", p.cpuPerTuple(), "ns")
	put("ls_p99_ms", p.tenant("ls").latencyMS(0.99), "ms")
	put("proc.cpu_user_s", p.cpuUser.Seconds(), "s")
	put("proc.cpu_sys_s", p.cpuSys.Seconds(), "s")
	put("proc.alloc_bytes_per_tuple", float64(p.allocBytes)/float64(max(p.measuredTuples, 1)), "B")
	put("proc.gc_cycles", float64(p.gcs), "count")

	self := selfTimes(tr.spans)
	for k, d := range self {
		put("trace.self_"+kindNames[k]+"_s", d.Seconds(), "s")
	}
	put("trace.spans", float64(len(tr.spans)), "count")
	put("trace.overhead_cpu_frac", p.cpuPerTuple()/base.cpuPerTuple()-1, "fraction")
	put("trace.overhead_ls_p50_frac", p.tenant("ls").latencyMS(0.5)/base.tenant("ls").latencyMS(0.5)-1, "fraction")
	return m
}
