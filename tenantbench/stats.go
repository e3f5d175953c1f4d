package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/cameo-stream/cameo"
)

// rank is the 1-based nearest-rank index of quantile q among n sorted
// samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailLadder lists the percentiles a tail figure may be reported at.
var tailLadder = []float64{0.9999, 0.999, 0.99, 0.9, 0.5}

// tailQuantile is the highest percentile on the ladder that leaves at
// least 10 samples beyond it; ok is false when even the median does not.
func tailQuantile(n int) (q float64, ok bool) {
	for _, q := range tailLadder {
		if n-rank(n, q) >= 10 {
			return q, true
		}
	}
	return 0, false
}

// reportQuantile is the percentile a "p<q>" figure is reported at: q
// itself, or the tail rule's lower percentile when there are too few
// samples beyond q.
func reportQuantile(n int, q float64) float64 {
	if t, ok := tailQuantile(n); ok && t < q {
		return t
	}
	return q
}

// quantile of sorted durations by nearest rank; 0 for no samples.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)-1]
}

func sortDurations(xs []time.Duration) []time.Duration {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return xs
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ledger gathers the counters that must reconcile once the run has
// drained.
type ledger struct {
	created, executed, discarded int64

	wire   bool
	client cameo.ClientStats
	server cameo.WireStats
}

// violations lists every conservation law the counters break.
func (l ledger) violations() []string {
	var v []string
	if l.created != l.executed+l.discarded {
		v = append(v, fmt.Sprintf("engine: created %d != executed %d + discarded %d",
			l.created, l.executed, l.discarded))
	}
	if !l.wire {
		return v
	}
	c, s := l.client, l.server
	if c.SentFrames != c.AckedFrames+c.NackedFrames {
		v = append(v, fmt.Sprintf("client: sent frames %d != acked %d + nacked %d",
			c.SentFrames, c.AckedFrames, c.NackedFrames))
	}
	if c.SentEvents != c.AckedEvents+c.NackedEvents {
		v = append(v, fmt.Sprintf("client: sent events %d != acked %d + nacked %d",
			c.SentEvents, c.AckedEvents, c.NackedEvents))
	}
	if s.Events != s.FlushedEvents+s.NackedEvents {
		v = append(v, fmt.Sprintf("server: events %d != flushed %d + nacked %d",
			s.Events, s.FlushedEvents, s.NackedEvents))
	}
	if s.BufferedEvents != 0 {
		v = append(v, fmt.Sprintf("server: %d events still buffered", s.BufferedEvents))
	}
	if s.ProtocolErrors != 0 {
		v = append(v, fmt.Sprintf("server: %d protocol errors", s.ProtocolErrors))
	}
	if c.SentEvents != s.Events || c.NackedEvents != s.NackedEvents {
		v = append(v, fmt.Sprintf("wire: client sent/nacked events %d/%d != server decoded/nacked %d/%d",
			c.SentEvents, c.NackedEvents, s.Events, s.NackedEvents))
	}
	return v
}
