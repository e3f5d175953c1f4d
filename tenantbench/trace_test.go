package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	tr := &tracer{}
	root := tr.add(traceSpan{kind: kindRun, parent: -1, start: 0, end: 100})
	// Overlapping children cover [10,30), [50,60) and [90,100) of the root
	// (the last one runs past the root's end and is clipped).
	tr.add(traceSpan{kind: kindWait, parent: root, start: 10, end: 20})
	ingest := tr.add(traceSpan{kind: kindIngest, parent: root, start: 15, end: 30})
	tr.add(traceSpan{kind: kindWait, parent: root, start: 50, end: 60})
	tr.add(traceSpan{kind: kindDrain, parent: root, start: 90, end: 120})
	// A grandchild is charged to the ingest span, not the root.
	tr.add(traceSpan{kind: kindClient, parent: ingest, start: 20, end: 26})
	// A span with no parent counts in full.
	tr.add(traceSpan{kind: kindProbe, parent: -1, start: 40, end: 43})

	self := selfTimes(tr.spans)
	want := map[spanKind]time.Duration{
		kindRun:    100 - 40,
		kindWait:   20,
		kindIngest: 15 - 6,
		kindClient: 6,
		kindDrain:  30,
		kindProbe:  3,
	}
	for k, w := range want {
		if self[k] != w {
			t.Errorf("self(%s) = %d, want %d", kindNames[k], self[k], w)
		}
	}
	var total time.Duration
	for _, d := range self {
		total += d
	}
	// The root's 100, plus the drain's 20 past the root's end, the 5 the
	// overlapping siblings share (each counts its own) and the probe's 3.
	if total != 100+20+5+3 {
		t.Errorf("total self time %d, want 128", total)
	}
}

func TestTraceWrite(t *testing.T) {
	tr := &tracer{}
	tr.add(traceSpan{kind: kindIngest, parent: -1, tenant: 1, window: 7, key: -1, start: 5, end: 9})
	path, err := tr.write(t.TempDir(), "x.tsv")
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Clean(path))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 2 || lines[1] != "ingest\t-1\t1\t7\t-1\t5\t9" {
		t.Fatalf("trace file:\n%s", b)
	}
}
