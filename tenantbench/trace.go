package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Spans of the traced run. They are recorded by the benchmark around its
// own calls into each layer, kept in memory, and written out when the run
// ends. A span's self time is its duration minus the part of it that its
// child spans cover.

type spanKind uint8

const (
	kindRun     spanKind = iota // the generator's whole loop (root)
	kindWait                    // sleeping until the next batch is due
	kindIngest                  // Engine.TryIngestBatch / AdvanceProgress
	kindClient                  // Client.TryIngestBatch
	kindRestart                 // Cancel + Submit of a quarantined query
	kindFlush                   // final watermarks and Client.Flush
	kindDrain                   // DrainJob per tenant
	kindProbe                   // the probe stage observing one result
	numKinds
)

var kindNames = [numKinds]string{"generator", "wait", "ingest", "client", "restart", "flush", "drain", "probe"}

// traceSpan links to the work it belongs to by (tenant, window, key);
// key is -1 for a whole batch and window -1 for spans of no window.
type traceSpan struct {
	kind       spanKind
	parent     int32 // index of the parent span, -1 for none
	tenant     int8
	window     int64
	key        int64
	start, end time.Duration
}

type tracer struct {
	spans []traceSpan
}

func (t *tracer) add(s traceSpan) int32 {
	t.spans = append(t.spans, s)
	return int32(len(t.spans) - 1)
}

// selfTimes sums each kind's self time: span duration minus the union of
// its children's intervals, clipped to the span.
func selfTimes(spans []traceSpan) [numKinds]time.Duration {
	children := make(map[int32][]traceSpan)
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	var out [numKinds]time.Duration
	for i, s := range spans {
		out[s.kind] += s.end - s.start - covered(s.start, s.end, children[int32(i)])
	}
	return out
}

// covered is the length of the union of kids' intervals within [lo, hi).
func covered(lo, hi time.Duration, kids []traceSpan) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var total time.Duration
	cur := lo
	for _, k := range kids {
		a, b := max(k.start, cur), min(k.end, hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// write stores the spans as tab-separated lines in dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<16)
	fmt.Fprintln(w, "kind\tparent\ttenant\twindow\tkey\tstart_ns\tend_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d\n",
			kindNames[s.kind], s.parent, s.tenant, s.window, s.key, int64(s.start), int64(s.end))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	return path, nil
}
