package main

import (
	"strings"
	"testing"
	"time"

	"github.com/cameo-stream/cameo"
)

func TestTailQuantile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},
		{20, 0.5, true},
		{100, 0.9, true},
		{999, 0.9, true},
		{1000, 0.99, true},
		{10000, 0.999, true},
		{99999, 0.999, true},
		{100000, 0.9999, true},
	}
	for _, c := range cases {
		q, ok := tailQuantile(c.n)
		if q != c.want || ok != c.ok {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", c.n, q, ok, c.want, c.ok)
		}
		if ok && c.n-rank(c.n, q) < 10 {
			t.Errorf("n=%d q=%v leaves %d samples beyond", c.n, q, c.n-rank(c.n, q))
		}
	}
	if got := reportQuantile(500, 0.99); got != 0.9 {
		t.Errorf("reportQuantile(500, 0.99) = %v, want 0.9", got)
	}
	if got := reportQuantile(5000, 0.99); got != 0.99 {
		t.Errorf("reportQuantile(5000, 0.99) = %v, want 0.99", got)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]time.Duration, 1000)
	for i := range xs {
		xs[i] = time.Duration(i + 1)
	}
	if got := quantile(xs, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %d, want 990", got)
	}
	if got := quantile(xs, 0.5); got != 500 {
		t.Errorf("p50 of 1..1000 = %d, want 500", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %d", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestLedgerReconciliation(t *testing.T) {
	good := ledger{
		created: 10, executed: 7, discarded: 3, wire: true,
		client: cameo.ClientStats{SentFrames: 5, AckedFrames: 4, NackedFrames: 1, SentEvents: 50, AckedEvents: 40, NackedEvents: 10},
		server: cameo.WireStats{Events: 50, FlushedEvents: 40, NackedEvents: 10},
	}
	if v := good.violations(); len(v) != 0 {
		t.Fatalf("balanced ledger reports %v", v)
	}
	breaks := map[string]func(l *ledger){
		"engine:":          func(l *ledger) { l.executed-- },
		"sent frames":      func(l *ledger) { l.client.AckedFrames-- },
		"sent events":      func(l *ledger) { l.client.AckedEvents-- },
		"server: events":   func(l *ledger) { l.server.FlushedEvents-- },
		"still buffered":   func(l *ledger) { l.server.BufferedEvents = 1 },
		"protocol errors":  func(l *ledger) { l.server.ProtocolErrors = 1 },
		"server decoded/n": func(l *ledger) { l.server.Events, l.server.FlushedEvents = 49, 39 },
	}
	for want, mutate := range breaks {
		l := good
		mutate(&l)
		v := l.violations()
		if len(v) == 0 || !strings.Contains(strings.Join(v, "\n"), want) {
			t.Errorf("breaking %q reported %v", want, v)
		}
	}
	inproc := ledger{created: 4, executed: 4}
	inproc.client.SentFrames = 9 // ignored off the wire
	if v := inproc.violations(); len(v) != 0 {
		t.Fatalf("in-process ledger reports %v", v)
	}
}

func TestLatencyGroups(t *testing.T) {
	mk := func(n int) []sample {
		s := make([]sample, n)
		for i := range s {
			s[i].latency = time.Duration(i%1000 + 1)
		}
		return s
	}
	if g := latencyGroups(mk(2500)); len(g) != 2 || len(g[0]) != groupSize || len(g[1]) != groupSize {
		t.Fatalf("2500 samples: %d groups", len(g))
	}
	if g := latencyGroups(mk(300)); len(g) != 1 || len(g[0]) != 300 {
		t.Fatalf("300 samples: %d groups", len(g))
	}
	// Each group of 1..1000 has p50 500 and p99 990.
	tr := &tenantRun{out: outcome{samples: mk(3000)}}
	if p50, p99 := tr.latencyMS(0.5), tr.latencyMS(0.99); p50 != ms(500) || p99 != ms(990) {
		t.Fatalf("p50 %v p99 %v", p50, p99)
	}
	// One short group falls back to the tail rule's percentile: p90 of 1..300.
	tr = &tenantRun{out: outcome{samples: mk(300)}}
	if p99 := tr.latencyMS(0.99); p99 != ms(270) {
		t.Fatalf("short run p99 %v, want p90 270ns", p99)
	}
}
