package main

import (
	"testing"
	"time"
)

// TestShortPass runs each workload briefly at a tenth of its rate and
// checks the oracle, the ledgers and the figures hold together.
func TestShortPass(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the engine")
	}
	for _, name := range []string{"mixed", "mixed-wire", "spike"} {
		t.Run(name, func(t *testing.T) {
			w, err := workloadByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for i := range w.tenants {
				w.tenants[i].interval *= 10
			}
			tr := &tracer{}
			p, err := runPass(passConfig{w: w, seed: 7, seconds: time.Second}, tr)
			if err != nil {
				t.Fatal(err)
			}
			if p.mismatches != 0 || p.dups != 0 || len(p.violations) != 0 {
				t.Fatalf("mismatches %d duplicates %d violations %v", p.mismatches, p.dups, p.violations)
			}
			if p.results == 0 || p.deliveredTuples == 0 || p.deliveredTuples > p.offeredTuples {
				t.Fatalf("results %d, delivered %d of %d tuples", p.results, p.deliveredTuples, p.offeredTuples)
			}
			e2e := p.endToEnd()
			if e2e["ls_p50_ms"].Value <= 0 || e2e["setup_s"].Value <= 0 || e2e["peak_heap_mb"].Value <= 0 {
				t.Fatalf("end-to-end figures %v", e2e)
			}
			layers := p.perLayer(p, tr)
			if layers["trace.spans"].Value == 0 || layers["sink.results"].Value != float64(p.results) {
				t.Fatalf("per-layer figures %v", layers)
			}
		})
	}
}

func TestWorkloadByName(t *testing.T) {
	if _, err := workloadByName("nope"); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if code := run([]string{"--workload", "nope"}); code == 0 {
		t.Fatal("bad arguments exit 0")
	}
}
