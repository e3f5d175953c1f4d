package main

import (
	"sort"
	"time"
)

// The correctness oracle. It mirrors the engine's tumbling-window rule (a
// tuple at time t belongs to the window [k·S, (k+1)·S) with k = t/S, and
// the result is stamped end-1) and keeps, per query incarnation, the exact
// integer sum each (window, key) result must carry — built only from
// batches the engine accepted. Integer-valued tuples make the expected
// float64 sums exact in any summation order.
//
// A handler panic quarantines a query; the generator cancels and
// resubmits it as a new incarnation. A window whose input spans two
// incarnations cannot be emitted correctly by either and is lost, as is
// any window that never produced a result. Such losses follow a fault
// the engine reported (the handler panic and the paused ingest), so the
// oracle keeps them apart from a silent loss: an accepted tuple of a live,
// unsplit window that never reached a correct result. On the wire, batches sent to
// the quarantined incarnation may still sit in the server's coalescing
// buffer and reach the new one, so a result the new incarnation emits for
// a window the old one left incomplete is ignored, not counted as wrong.

// windowOf returns the index of the tumbling window holding time t.
func windowOf(t, size time.Duration) int64 {
	return int64(t.Microseconds() / size.Microseconds())
}

// windowStart and windowEnd bound window w: [start, end).
func windowStart(w int64, size time.Duration) time.Duration {
	return time.Duration(w*size.Microseconds()) * time.Microsecond
}

func windowEnd(w int64, size time.Duration) time.Duration {
	return windowStart(w+1, size)
}

// resultStamp is the time the engine stamps on window w's result.
func resultStamp(w int64, size time.Duration) time.Duration {
	return windowEnd(w, size) - time.Microsecond
}

type winKey struct {
	inc int32
	w   int64
}

// winAcc is one (incarnation, window)'s expected output, one slot per
// result key (a single slot for a global aggregate).
type winAcc struct {
	sum  []int64
	cnt  []int32
	last []time.Duration // due time of the last accepted batch per key
	seen []bool

	closed, byFlush bool
	// The accepted call whose progress closed the window: its due time
	// and when the call started and returned (engine clock).
	closeDue, callStart, callEnd time.Duration
}

// probeRec is one result the probe stage observed.
type probeRec struct {
	inc  int32
	t    time.Duration
	key  int64
	val  float64
	at   time.Duration // engine clock at observation
	done time.Duration // engine clock after recording (traced runs only)
}

// oracle tracks one tenant.
type oracle struct {
	size   time.Duration
	slots  int  // result keys per window
	global bool // all keys fold into slot 0
	inc    int32

	wins    map[winKey]*winAcc
	incOf   map[int64]int32 // first incarnation that accepted input for a window
	split   map[int64]bool  // windows with accepted input in two incarnations
	offered map[int64]int64 // offered tuples per window, accepted or refused

	progress  []time.Duration // accepted progress per source, current incarnation
	reported  int
	nextClose int64
	started   bool
	abandoned bool // the last incarnation was quarantined and cancelled
}

func newOracle(size time.Duration, sources int, keys int64, global bool) *oracle {
	slots := int(keys)
	if global {
		slots = 1
	}
	o := &oracle{
		size: size, slots: slots, global: global,
		wins:    make(map[winKey]*winAcc),
		incOf:   make(map[int64]int32),
		split:   make(map[int64]bool),
		offered: make(map[int64]int64),
	}
	o.progress = make([]time.Duration, sources)
	o.resetProgress()
	return o
}

func (o *oracle) resetProgress() {
	for i := range o.progress {
		o.progress[i] = -1
	}
	o.reported = 0
	o.started = false
}

// restart begins a new incarnation after a quarantined query was
// cancelled and resubmitted: the new query's sources start over.
func (o *oracle) restart() {
	o.inc++
	o.resetProgress()
}

// abandon records that the last incarnation was quarantined and
// cancelled without a successor.
func (o *oracle) abandon() { o.abandoned = true }

// quarantined reports whether incarnation inc ended in a quarantine.
func (o *oracle) quarantined(inc int32) bool { return inc < o.inc || o.abandoned }

func (o *oracle) slot(key int64) int {
	if o.global {
		return 0
	}
	return int(key)
}

// offer counts a batch of n tuples due at t, whether or not it is accepted.
func (o *oracle) offer(t time.Duration, n int) {
	o.offered[windowOf(t, o.size)] += int64(n)
}

// accept records an accepted batch: every tuple is due at t.
func (o *oracle) accept(t time.Duration, keys []int64, vals []int64) {
	w := windowOf(t, o.size)
	if first, ok := o.incOf[w]; !ok {
		o.incOf[w] = o.inc
	} else if first != o.inc {
		o.split[w] = true
	}
	k := winKey{o.inc, w}
	acc := o.wins[k]
	if acc == nil {
		acc = &winAcc{
			sum:  make([]int64, o.slots),
			cnt:  make([]int32, o.slots),
			last: make([]time.Duration, o.slots),
		}
		o.wins[k] = acc
	}
	for i, key := range keys {
		s := o.slot(key)
		acc.sum[s] += vals[i]
		acc.cnt[s]++
		acc.last[s] = t
	}
	if !o.started {
		o.started = true
		o.nextClose = w
	}
}

// advance records accepted progress p on source src by a call due at due
// that ran from callStart to callEnd, and marks every window the new
// frontier (the minimum over all sources) closes.
func (o *oracle) advance(src int, p, due, callStart, callEnd time.Duration) {
	if o.progress[src] < 0 {
		o.reported++
	}
	o.progress[src] = p
	if o.reported < len(o.progress) || !o.started {
		return
	}
	f := o.progress[0]
	for _, q := range o.progress[1:] {
		if q < f {
			f = q
		}
	}
	o.closeThrough(f, func(acc *winAcc) {
		acc.closeDue, acc.callStart, acc.callEnd = due, callStart, callEnd
	})
}

// flushClose marks the windows the final watermark closes; they are
// checked for correctness but excluded from latency statistics.
func (o *oracle) flushClose(p time.Duration) {
	if !o.started {
		return
	}
	o.closeThrough(p, func(acc *winAcc) { acc.byFlush = true })
}

func (o *oracle) closeThrough(f time.Duration, mark func(*winAcc)) {
	for windowEnd(o.nextClose, o.size) <= f {
		if acc := o.wins[winKey{o.inc, o.nextClose}]; acc != nil && !acc.closed {
			acc.closed = true
			mark(acc)
		}
		o.nextClose++
	}
}

// span bounds the windows whose latency and deadline count: windows
// wholly inside [from, to).
type span struct{ from, to time.Duration }

func (s span) holds(w int64, size time.Duration) bool {
	return windowStart(w, size) >= s.from && windowEnd(w, size) <= s.to
}

// sample is one correct in-range result with its latency decomposition.
type sample struct {
	latency  time.Duration // probe observation - due of last contributing batch
	frontier time.Duration // due of closing batch - due of last contributing batch
	lag      time.Duration // closing call start - its due time
	call     time.Duration // closing call duration
	resident time.Duration // probe observation - closing call return
	observed time.Duration // engine clock at observation
	tuples   int32         // tuples the result covers
}

// outcome is one tenant's verdict.
type outcome struct {
	results     int // probe observations
	expected    int // results the accepted input calls for
	correct     int
	mismatches  int // wrong value, or a result for a window without input
	duplicates  int
	lost        int // expected results never delivered correctly
	ignored     int // results for windows split by a restart
	lostWindows int // windows with at least one lost result

	offeredTuples, deliveredTuples int64
	// Accepted tuples of lost results whose window neither belonged to a
	// quarantined incarnation nor was split by a restart.
	silentLostTuples int64

	samples []sample

	deadlineWindows, deadlineMet int
}

// evaluate matches the probe's observations against the expected results.
func (o *oracle) evaluate(recs []probeRec, in span, deadline time.Duration) outcome {
	o.allocSeen()
	var out outcome
	out.results = len(recs)
	for _, n := range o.offered {
		out.offeredTuples += n
	}
	// Per window index: whether every expected result met the deadline.
	met := make(map[int64]bool)
	var strays []probeRec // results for a (window, key) the incarnation had no input for
	for _, r := range recs {
		w := windowOf(r.t, o.size)
		if o.split[w] {
			out.ignored++
			continue
		}
		acc := o.wins[winKey{r.inc, w}]
		s := o.slot(r.key)
		if r.t != resultStamp(w, o.size) || s < 0 || s >= o.slots {
			out.mismatches++
			continue
		}
		if acc == nil || acc.cnt[s] == 0 {
			strays = append(strays, r)
			continue
		}
		if acc.seen[s] {
			out.duplicates++
			continue
		}
		if r.val != float64(acc.sum[s]) {
			out.mismatches++
			continue
		}
		acc.seen[s] = true
		out.correct++
		out.deliveredTuples += int64(acc.cnt[s])
		if !in.holds(w, o.size) {
			continue
		}
		ok := r.at-acc.last[s] <= deadline
		if prev, seen := met[w]; seen {
			ok = ok && prev
		}
		met[w] = ok
		if !acc.closed || acc.byFlush {
			continue
		}
		out.samples = append(out.samples, sample{
			latency:  r.at - acc.last[s],
			frontier: acc.closeDue - acc.last[s],
			lag:      acc.callStart - acc.closeDue,
			call:     acc.callEnd - acc.callStart,
			resident: r.at - acc.callEnd,
			observed: r.at,
			tuples:   acc.cnt[s],
		})
	}
	lostWin := make(map[int64]bool)
	for k, acc := range o.wins {
		for s, n := range acc.cnt {
			if n == 0 {
				continue
			}
			out.expected++
			if !acc.seen[s] {
				out.lost++
				lostWin[k.w] = true
				met[k.w] = false
				if !o.split[k.w] && !o.quarantined(k.inc) {
					out.silentLostTuples += int64(n)
				}
			}
		}
	}
	out.lostWindows = len(lostWin)
	for _, r := range strays {
		if o.leftIncomplete(r.inc, windowOf(r.t, o.size)) {
			out.ignored++
		} else {
			out.mismatches++
		}
	}
	// Deadline: every in-range window that was offered input, including
	// windows whose input was refused outright.
	for w := range o.offered {
		if !in.holds(w, o.size) {
			continue
		}
		out.deadlineWindows++
		if met[w] && !lostWin[w] {
			out.deadlineMet++
		}
	}
	sort.Slice(out.samples, func(i, j int) bool { return out.samples[i].observed < out.samples[j].observed })
	return out
}

// leftIncomplete reports whether an incarnation before inc accepted input
// for window w and did not deliver every result for it.
func (o *oracle) leftIncomplete(inc int32, w int64) bool {
	for i := int32(0); i < inc; i++ {
		acc := o.wins[winKey{i, w}]
		if acc == nil {
			continue
		}
		for s, n := range acc.cnt {
			if n > 0 && !acc.seen[s] {
				return true
			}
		}
	}
	return false
}

// allocSeen resets the per-slot seen flags; they are sized here rather
// than in accept to keep the generator's hot path small.
func (o *oracle) allocSeen() {
	for _, acc := range o.wins {
		acc.seen = make([]bool, o.slots)
	}
}
