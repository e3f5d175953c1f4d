package main

import (
	"testing"
	"time"
)

const ms5 = 5 * time.Millisecond

func TestWindowAssignment(t *testing.T) {
	cases := []struct {
		t    time.Duration
		want int64
	}{
		{0, 0},
		{4999 * time.Microsecond, 0},
		{5 * time.Millisecond, 1},
		{12 * time.Millisecond, 2},
	}
	for _, c := range cases {
		if got := windowOf(c.t, ms5); got != c.want {
			t.Errorf("windowOf(%v) = %d, want %d", c.t, got, c.want)
		}
		// The engine's rule: the window ending at (t/S+1)·S, result at end-1.
		w := windowOf(c.t, ms5)
		if c.t < windowStart(w, ms5) || c.t >= windowEnd(w, ms5) {
			t.Errorf("%v not inside window %d [%v, %v)", c.t, w, windowStart(w, ms5), windowEnd(w, ms5))
		}
		if windowOf(resultStamp(w, ms5), ms5) != w {
			t.Errorf("result stamp of window %d falls outside it", w)
		}
	}
	if got := resultStamp(0, ms5); got != 4999*time.Microsecond {
		t.Errorf("resultStamp(0) = %v, want 4.999ms", got)
	}
}

// feed accepts one batch on src at due and advances that source's progress.
func feed(o *oracle, src int, due time.Duration, keys, vals []int64) {
	o.offer(due, len(keys))
	o.accept(due, keys, vals)
	o.advance(src, due, due, due, due)
}

func TestExpectedSumsKeyed(t *testing.T) {
	o := newOracle(ms5, 2, 4, false)
	feed(o, 0, 1*time.Millisecond, []int64{0, 1, 1}, []int64{3, 4, 5})
	feed(o, 1, 2*time.Millisecond, []int64{1, 3}, []int64{7, 1})
	feed(o, 0, 6*time.Millisecond, []int64{2}, []int64{9}) // closes nothing: source 1 is at 2ms
	feed(o, 1, 7*time.Millisecond, []int64{2}, []int64{1}) // closes window 0
	stamp := resultStamp(0, ms5)
	recs := []probeRec{
		{t: stamp, key: 0, val: 3, at: 8 * time.Millisecond},
		{t: stamp, key: 1, val: 16, at: 8 * time.Millisecond},
		{t: stamp, key: 3, val: 1, at: 8 * time.Millisecond},
		{t: stamp, key: 3, val: 1, at: 9 * time.Millisecond}, // duplicate
		{t: stamp, key: 2, val: 0, at: 9 * time.Millisecond}, // key 2 had no input in window 0
		{t: resultStamp(1, ms5), key: 2, val: 10, at: 12 * time.Millisecond},
	}
	out := o.evaluate(recs, span{0, 20 * time.Millisecond}, time.Second)
	if out.correct != 4 || out.duplicates != 1 || out.mismatches != 1 || out.lost != 0 {
		t.Fatalf("outcome %+v", out)
	}
	if out.offeredTuples != 7 || out.deliveredTuples != 7 {
		t.Fatalf("tuples offered %d delivered %d, want 7 and 7", out.offeredTuples, out.deliveredTuples)
	}
	// Window 0 closed at source 1's 7ms batch; key 1's last input was at
	// 2ms, so the frontier wait is 5ms and the latency 6ms.
	var found bool
	for _, s := range out.samples {
		if s.latency == 6*time.Millisecond && s.frontier == 5*time.Millisecond {
			found = true
		}
	}
	if !found {
		t.Fatalf("no sample with latency 6ms / frontier wait 5ms: %+v", out.samples)
	}
}

func TestExpectedSumsGlobalAndWrongValue(t *testing.T) {
	o := newOracle(ms5, 1, 64, true)
	feed(o, 0, 1*time.Millisecond, []int64{5, 9}, []int64{10, 20})
	feed(o, 0, 5*time.Millisecond, []int64{7}, []int64{1})
	feed(o, 0, 10*time.Millisecond, []int64{7}, []int64{1})
	recs := []probeRec{
		{t: resultStamp(0, ms5), key: 0, val: 30, at: 6 * time.Millisecond},
		{t: resultStamp(1, ms5), key: 0, val: 2, at: 11 * time.Millisecond},  // expected 1
		{t: 7 * time.Millisecond, key: 0, val: 1, at: 11 * time.Millisecond}, // not a result stamp
	}
	out := o.evaluate(recs, span{0, time.Second}, time.Second)
	if out.correct != 1 || out.mismatches != 2 || out.lost != 2 || out.lostWindows != 2 {
		t.Fatalf("outcome %+v", out)
	}
}

func TestLostWindowsAcrossRestart(t *testing.T) {
	o := newOracle(10*time.Millisecond, 2, 1, true)
	one := []int64{0}
	// Incarnation 0: window 0 closes and is emitted; window 1 gets input.
	feed(o, 0, 2*time.Millisecond, one, []int64{1})
	feed(o, 1, 3*time.Millisecond, one, []int64{2})
	feed(o, 0, 11*time.Millisecond, one, []int64{4})
	feed(o, 1, 12*time.Millisecond, one, []int64{8})
	// A panic quarantines the query; source 0's next batch is refused.
	o.offer(14*time.Millisecond, 1)
	o.restart()
	// Incarnation 1 picks up mid-window 1, then runs window 2.
	feed(o, 0, 16*time.Millisecond, one, []int64{16})
	feed(o, 1, 17*time.Millisecond, one, []int64{32})
	feed(o, 0, 21*time.Millisecond, one, []int64{64})
	feed(o, 1, 22*time.Millisecond, one, []int64{128})
	feed(o, 0, 31*time.Millisecond, one, []int64{1})
	feed(o, 1, 32*time.Millisecond, one, []int64{1})
	if o.wins[winKey{1, 1}].closed != true || o.wins[winKey{1, 2}].closed != true {
		t.Fatalf("incarnation 1 windows not closed")
	}
	recs := []probeRec{
		{inc: 0, t: resultStamp(0, 10*time.Millisecond), val: 3, at: 12 * time.Millisecond},
		// Incarnation 1 emits only the part of window 1 it saw.
		{inc: 1, t: resultStamp(1, 10*time.Millisecond), val: 48, at: 22 * time.Millisecond},
		{inc: 1, t: resultStamp(2, 10*time.Millisecond), val: 192, at: 32 * time.Millisecond},
	}
	out := o.evaluate(recs, span{0, 30 * time.Millisecond}, time.Second)
	if out.correct != 2 || out.ignored != 1 || out.mismatches != 0 {
		t.Fatalf("outcome %+v", out)
	}
	// Window 1 is lost in both incarnations (two expected results) and
	// window 3 never closed.
	if out.lost != 3 || out.lostWindows != 2 {
		t.Fatalf("lost %d results in %d windows, want 3 in 2", out.lost, out.lostWindows)
	}
	// Offered: 2 tuples in window 0, 5 in window 1 (one refused), 2 in
	// window 2 and 2 in window 3.
	if out.offeredTuples != 11 || out.deliveredTuples != 4 {
		t.Fatalf("tuples offered %d delivered %d, want 11 and 4", out.offeredTuples, out.deliveredTuples)
	}
	// Window 1 was lost to the quarantine; window 3 of the live
	// incarnation was lost silently.
	if out.silentLostTuples != 2 {
		t.Fatalf("silently lost %d tuples, want 2", out.silentLostTuples)
	}
	// Windows 0..2 lie in the span; window 1 misses its deadline.
	if out.deadlineWindows != 3 || out.deadlineMet != 2 {
		t.Fatalf("deadline %d of %d, want 2 of 3", out.deadlineMet, out.deadlineWindows)
	}
}

func TestAbandonedIncarnationLosesNothingSilently(t *testing.T) {
	o := newOracle(ms5, 1, 1, true)
	one := []int64{0}
	feed(o, 0, 1*time.Millisecond, one, []int64{1})
	feed(o, 0, 6*time.Millisecond, one, []int64{2}) // closes window 0
	out := o.evaluate(nil, span{0, time.Second}, time.Second)
	if out.lost != 2 || out.silentLostTuples != 2 {
		t.Fatalf("live incarnation: outcome %+v", out)
	}
	// The same loss after the query was quarantined and cancelled in the
	// drain is the fault's, not a silent one.
	o.abandon()
	out = o.evaluate(nil, span{0, time.Second}, time.Second)
	if out.lost != 2 || out.silentLostTuples != 0 {
		t.Fatalf("abandoned incarnation: outcome %+v", out)
	}
}

func TestStrayResultsAfterRestart(t *testing.T) {
	o := newOracle(ms5, 1, 1, true)
	one := []int64{0}
	feed(o, 0, 1*time.Millisecond, one, []int64{1})
	feed(o, 0, 6*time.Millisecond, one, []int64{2}) // closes window 0
	o.restart()
	feed(o, 0, 11*time.Millisecond, one, []int64{4})
	recs := []probeRec{
		// Window 0 was never emitted by incarnation 0; a batch of it
		// buffered on the wire reached incarnation 1, which emitted it.
		{inc: 1, t: resultStamp(0, ms5), val: 1, at: 12 * time.Millisecond},
		// Nobody had input for window 3.
		{inc: 1, t: resultStamp(3, ms5), val: 1, at: 20 * time.Millisecond},
	}
	out := o.evaluate(recs, span{0, time.Second}, time.Second)
	if out.ignored != 1 || out.mismatches != 1 || out.correct != 0 {
		t.Fatalf("outcome %+v", out)
	}
}

func TestDeadlineCountsRefusedAndLateWindows(t *testing.T) {
	o := newOracle(ms5, 1, 1, true)
	feed(o, 0, 1*time.Millisecond, []int64{0}, []int64{1})
	o.offer(6*time.Millisecond, 1) // refused: window 1 was offered input only
	feed(o, 0, 11*time.Millisecond, []int64{0}, []int64{1})
	recs := []probeRec{{t: resultStamp(0, ms5), val: 1, at: 20 * time.Millisecond}} // 19ms late
	out := o.evaluate(recs, span{0, 10 * time.Millisecond}, 10*time.Millisecond)
	if out.deadlineWindows != 2 || out.deadlineMet != 0 || out.correct != 1 {
		t.Fatalf("outcome %+v", out)
	}
}

func TestFlushClosedWindowsAreCheckedButNotTimed(t *testing.T) {
	o := newOracle(ms5, 1, 1, true)
	feed(o, 0, 1*time.Millisecond, []int64{0}, []int64{2})
	o.flushClose(5 * time.Millisecond)
	recs := []probeRec{{t: resultStamp(0, ms5), val: 2, at: 7 * time.Millisecond}}
	out := o.evaluate(recs, span{0, time.Second}, time.Second)
	if out.correct != 1 || len(out.samples) != 0 {
		t.Fatalf("outcome %+v", out)
	}
}

func TestBurstSchedule(t *testing.T) {
	b := burstSpec{offset: 100 * time.Millisecond, every: time.Second, length: 200 * time.Millisecond, factor: 4}
	for _, c := range []struct {
		t    time.Duration
		want bool
	}{{0, false}, {100 * time.Millisecond, true}, {299 * time.Millisecond, true}, {300 * time.Millisecond, false}, {1150 * time.Millisecond, true}} {
		if got := b.active(c.t); got != c.want {
			t.Errorf("active(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	if (burstSpec{}).active(time.Second) {
		t.Error("zero burst spec is active")
	}
}
