// Command tenantbench is an open-loop, multi-tenant benchmark of the cameo
// engine through its public API. One generator goroutine sends every
// source batch when it is due, never blocks on a refusal, and times each
// result from the due time of the last batch that contributed to it; a
// probe stage at the end of every query records each result, which an
// exact oracle checks against the batches the engine accepted.
//
//	tenantbench --workload mixed|mixed-wire|spike --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the workload untraced and then traced, and prints the per-layer metrics
// and the tracing overhead. The last line of standard output is one JSON
// object; see METRICS.md for every metric and what it should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	goruntime "runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/cameo-stream/cameo"
)

const (
	warmup       = time.Second
	drainTimeout = 30 * time.Second
	setupReps    = 400
	setupGap     = time.Millisecond
	sampleEvery  = time.Millisecond
	heapEvery    = 20 * time.Millisecond
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("tenantbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "mixed, mixed-wire or spike")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measured seconds (after a 1s warm-up)")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	traceDir := fs.String("trace-dir", ".bench_build/traces", "directory for span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*workload)
	if err != nil || *seconds < 1 || *traced < 0 || *traced > 1 {
		fmt.Fprintln(os.Stderr, "tenantbench: bad arguments:", err)
		return 2
	}

	cfg := passConfig{w: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	if *traced == 1 {
		// The untraced and the traced pass share the run's time.
		cfg.seconds = max(cfg.seconds/2, time.Second)
	}
	base, err := runPass(cfg, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tenantbench:", err)
		return 1
	}
	res := result{Correct: base.correct(), Attempted: base.offeredTuples, Failed: base.failed()}
	violations := base.violations
	if *traced == 0 {
		res.Metrics = base.endToEnd()
	} else {
		goruntime.GC()
		tr := &tracer{}
		tp, err := runPass(cfg, tr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tenantbench: traced pass:", err)
			return 1
		}
		path, err := tr.write(*traceDir, fmt.Sprintf("%s-seed%d.tsv", w.name, *seed))
		if err != nil {
			fmt.Fprintln(os.Stderr, "tenantbench:", err)
			return 1
		}
		fmt.Println("spans:", path)
		res.Correct = res.Correct && tp.correct()
		res.Attempted += tp.offeredTuples
		res.Failed += tp.failed()
		violations = append(violations, tp.violations...)
		res.Metrics = tp.perLayer(base, tr)
	}
	for _, v := range violations {
		fmt.Println("VIOLATION:", v)
	}
	printMetrics(res.Metrics)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tenantbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

func setTimerSlack() {
	const prSetTimerslack = 29
	// Best effort: without it pacing is only coarser.
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1000, 0)
}

// clock reads the engine clock (Engine.Now, time since NewEngine) with
// nanosecond resolution; Engine.Now itself truncates to microseconds.
type clock struct{ origin time.Time }

func (c *clock) now() time.Duration { return time.Since(c.origin) }

// sync aligns the clock to the engine's, to within the engine's 1µs
// resolution.
func (c *clock) sync(eng *cameo.Engine) { c.origin = time.Now().Add(-eng.Now()) }

// sleepUntil pauses the generator thread until the clock reads t.
func sleepUntil(c *clock, t time.Duration) {
	for {
		d := t - c.now()
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

type passConfig struct {
	w       workloadSpec
	seed    uint64
	seconds time.Duration
}

// sink collects one tenant's probe observations from the worker
// goroutines.
type sink struct {
	mu   sync.Mutex
	recs []probeRec
}

// tenantRun is one tenant's live state in a pass.
type tenantRun struct {
	spec tenantSpec
	id   int8
	or   *oracle
	sink *sink

	panicsSeen int64
	restarts   int
	lastDue    time.Duration

	out outcome
}

// resultCapacity bounds the results a run of the given length produces.
func (t *tenantRun) resultCapacity(seconds time.Duration) int {
	windows := int((seconds+warmup+time.Second)/t.spec.window) + 2
	if t.spec.global {
		return windows
	}
	return windows * int(t.spec.keys)
}

func (p *pass) resultCapacity() int {
	n := 0
	for _, t := range p.tenants {
		n += t.resultCapacity(p.cfg.seconds)
	}
	return n
}

// query builds incarnation inc of the tenant's query.
func (t *tenantRun) query(clk *clock, inc int32, traced bool) *cameo.Query {
	s := t.spec
	q := cameo.NewQuery(s.name).LatencyTarget(s.deadline).Sources(s.sources)
	if s.maxPending > 0 {
		q = q.MaxPending(s.maxPending)
	}
	q = q.Aggregate("agg", s.fanout, cameo.Window(s.window), cameo.Sum)
	if s.global {
		q = q.AggregateGlobal("total", cameo.Window(s.window), cameo.Sum)
	}
	sk := t.sink
	return q.Map("probe", 1, func(ts time.Duration, k int64, v float64) (int64, float64) {
		at := clk.now()
		sk.mu.Lock()
		sk.recs = append(sk.recs, probeRec{inc: inc, t: ts, key: k, val: v, at: at})
		if traced {
			sk.recs[len(sk.recs)-1].done = clk.now()
		}
		sk.mu.Unlock()
		return k, v
	})
}

type source struct {
	ten  *tenantRun
	idx  int
	next time.Duration
	rng  *rand.Rand
}

type pendingSample struct {
	at       time.Duration
	pending  int
	executed int64
}

// pass is everything one run of a workload measured.
type pass struct {
	cfg     passConfig
	tenants []*tenantRun
	clk     clock // generator and probe timestamps

	setup []float64

	measureFrom, measureTo time.Duration
	burstStarts            []time.Duration

	offeredTuples, deliveredTuples int64
	silentLostTuples               int64
	measuredTuples                 int64 // offered during the measured phase
	acceptedTuples                 int64

	genLag           []time.Duration
	ingestCalls      []time.Duration
	clientCalls      []time.Duration
	refusedOverload  int64
	refusedPaused    int64
	refusedWindow    int64
	refusedBackoff   int64
	pendingSamples   []pendingSample
	peakHeap         uint64
	cpuUser, cpuSys  time.Duration
	allocBytes, gcs  uint64
	flushTime        time.Duration
	executed         int64
	handlerPanics    int64
	statsP99         time.Duration
	client           cameo.ClientStats
	server           cameo.WireStats
	violations       []string
	mismatches, dups int
	results          int
}

func (p *pass) correct() bool {
	return p.mismatches == 0 && p.dups == 0 && len(p.violations) == 0 && p.results > 0
}

// failed counts the operations that went wrong without the engine saying
// so: accepted tuples lost silently, plus one for every wrong or
// duplicate result and every broken ledger. Tuples refused at admission
// and tuples lost to a quarantine the engine reported are outcomes it
// announced; they count in delivered_frac and failed_frac instead.
func (p *pass) failed() int64 {
	return p.silentLostTuples + int64(p.mismatches+p.dups+len(p.violations))
}

type stack struct {
	eng *cameo.Engine
	srv *cameo.Server
	cl  *cameo.Client
}

func (s stack) close() {
	if s.cl != nil {
		s.cl.Close()
	}
	if s.srv != nil {
		s.srv.Shutdown(5 * time.Second)
	}
	s.eng.Stop()
}

// build constructs, submits, starts and (on the wire) serves and dials.
func build(p *pass, traced bool) (stack, error) {
	eng := cameo.NewEngine(cameo.EngineConfig{Workers: goruntime.NumCPU()})
	for _, t := range p.tenants {
		if err := eng.Submit(t.query(&p.clk, 0, traced)); err != nil {
			eng.Stop()
			return stack{}, fmt.Errorf("submit %s: %w", t.spec.name, err)
		}
	}
	eng.Start()
	st := stack{eng: eng}
	if !p.cfg.w.wire {
		return st, nil
	}
	srv, err := eng.Serve("127.0.0.1:0", cameo.ServeConfig{})
	if err != nil {
		eng.Stop()
		return stack{}, err
	}
	st.srv = srv
	cl, err := cameo.Dial(srv.Addr(), cameo.DialOptions{})
	if err != nil {
		st.close()
		return stack{}, err
	}
	st.cl = cl
	return st, nil
}

// buildTimed builds the stack setupReps times, timing each build, and
// returns the last one. A single build takes tens of microseconds, so
// only the median of many is steady from run to run. Back-to-back builds
// all see the same moment of a shared host and their median moved by a
// fifth from one process to the next; a pause of setupGap before each
// build spreads them over about a second of the host's time.
func buildTimed(p *pass, traced bool) (stack, error) {
	for r := 0; ; r++ {
		time.Sleep(setupGap)
		start := time.Now()
		s, err := build(p, traced)
		if err != nil {
			return stack{}, err
		}
		p.setup = append(p.setup, time.Since(start).Seconds())
		if r == setupReps-1 {
			return s, nil
		}
		s.close()
	}
}

func runPass(cfg passConfig, tr *tracer) (*pass, error) {
	p := &pass{cfg: cfg}
	for i, ts := range cfg.w.tenants {
		p.tenants = append(p.tenants, &tenantRun{
			spec: ts, id: int8(i),
			or:   newOracle(ts.window, ts.sources, ts.keys, ts.global),
			sink: &sink{},
		})
	}
	st, err := buildTimed(p, tr != nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer st.close()
	for _, t := range p.tenants {
		// Room for every result of the run, so the sink's growth does not
		// show in the heap figures.
		t.sink.mu.Lock()
		t.sink.recs = make([]probeRec, 0, t.resultCapacity(cfg.seconds))
		t.sink.mu.Unlock()
	}
	if err := generate(p, st, tr); err != nil {
		return nil, err
	}
	p.evaluate()
	if tr != nil {
		for _, t := range p.tenants {
			for _, r := range t.sink.recs {
				tr.add(traceSpan{kind: kindProbe, parent: -1, tenant: t.id,
					window: windowOf(r.t, t.spec.window), key: r.key, start: r.at, end: r.done})
			}
		}
	}
	return p, nil
}

// generate runs the open loop, the final flush and the drain.
func generate(p *pass, st stack, tr *tracer) error {
	e := st.eng
	// Go's timers wake about 1ms late here (the netpoller waits in whole
	// milliseconds), so the generator paces with nanosleep on its own
	// thread with the kernel's timer slack cut to 1µs.
	goruntime.LockOSThread()
	defer goruntime.UnlockOSThread()
	setTimerSlack()
	// Align the schedule to the largest window so every pass sees the
	// same window boundaries relative to its start.
	var align time.Duration
	for _, t := range p.tenants {
		align = max(align, t.spec.window)
	}
	p.clk.sync(e)
	base := (p.clk.now()/align + 1) * align
	p.measureFrom = base + warmup
	p.measureTo = p.measureFrom + p.cfg.seconds

	var srcs []*source
	for _, t := range p.tenants {
		for s := 0; s < t.spec.sources; s++ {
			rng := rand.New(rand.NewPCG(p.cfg.seed, uint64(t.id)<<32|uint64(s)))
			phase := time.Duration(rng.Int64N(t.spec.interval.Microseconds())) * time.Microsecond
			srcs = append(srcs, &source{ten: t, idx: s, next: base + phase, rng: rng})
		}
		if b := t.spec.burst; b.every > 0 {
			for at := p.measureFrom + b.offset; at+b.length <= p.measureTo; at += b.every {
				p.burstStarts = append(p.burstStarts, at)
			}
		}
	}
	// Room for every per-batch figure of the run, so their growth does
	// not show in the heap figures.
	maxTuples, batches := 0, 1024
	for _, t := range p.tenants {
		maxTuples = max(maxTuples, 2*t.spec.tuples)
		n := float64(t.spec.sources) * float64(warmup+p.cfg.seconds) / float64(t.spec.interval)
		if b := t.spec.burst; b.every > 0 {
			n *= 1 + float64(b.factor-1)*float64(b.length)/float64(b.every)
		}
		batches += int(n)
	}
	p.genLag = make([]time.Duration, 0, batches)
	if st.cl != nil {
		p.clientCalls = make([]time.Duration, 0, batches)
	} else {
		p.ingestCalls = make([]time.Duration, 0, batches)
	}
	p.pendingSamples = make([]pendingSample, 0, int((warmup+p.cfg.seconds)/sampleEvery)+16)
	if tr != nil {
		tr.spans = make([]traceSpan, 0, 2*batches+p.resultCapacity())
	}
	events := make([]cameo.Event, 0, maxTuples)
	keys := make([]int64, 0, maxTuples)
	vals := make([]int64, 0, maxTuples)

	var ru0 syscall.Rusage
	var mem0 [3]uint64
	measuring := false
	nextSample, nextHeap := time.Duration(0), time.Duration(0)
	root := int32(-1)
	if tr != nil {
		root = tr.add(traceSpan{kind: kindRun, parent: -1, tenant: -1, window: -1, key: -1, start: p.clk.now()})
	}

	for {
		// The next due batch across all sources.
		var s *source
		for _, c := range srcs {
			if c.next < p.measureTo && (s == nil || c.next < s.next) {
				s = c
			}
		}
		if s == nil {
			break
		}
		due := s.next
		t := s.ten
		// Independent sources: each gap is the interval ±25%, drawn from
		// the seed, and a burst divides it by the burst factor.
		step := t.spec.interval
		if t.spec.burst.active(due - p.measureFrom) {
			step /= time.Duration(t.spec.burst.factor)
		}
		step = step*3/4 + time.Duration(s.rng.Int64N(int64(step)/2+1))
		s.next = due + max(step/time.Microsecond, 1)*time.Microsecond

		if now := p.clk.now(); now < due {
			sleepUntil(&p.clk, due)
			if tr != nil {
				tr.add(traceSpan{kind: kindWait, parent: root, tenant: -1, window: -1, key: -1, start: now, end: p.clk.now()})
			}
		}
		now := p.clk.now()
		if !measuring && now >= p.measureFrom {
			measuring = true
			ru0 = rusage()
			mem0 = memStats()
		}
		if now >= nextSample {
			nextSample = now + sampleEvery
			p.pendingSamples = append(p.pendingSamples, pendingSample{at: now, pending: e.Pending(), executed: e.Executed()})
			if measuring && now >= nextHeap {
				nextHeap = now + heapEvery
				p.peakHeap = max(p.peakHeap, memStats()[2])
			}
		}

		// Build the batch: integer values, every event stamped with the
		// batch's due time, which is also its progress.
		n := t.spec.tuples/2 + s.rng.IntN(t.spec.tuples+1)
		events, keys, vals = events[:0], keys[:0], vals[:0]
		for i := 0; i < n; i++ {
			k := s.rng.Int64N(t.spec.keys)
			v := 1 + s.rng.Int64N(100)
			keys = append(keys, k)
			vals = append(vals, v)
			events = append(events, cameo.Event{Time: due, Key: k, Value: float64(v)})
		}
		t.or.offer(due, n)
		p.offeredTuples += int64(n)
		if due >= p.measureFrom {
			p.measuredTuples += int64(n)
		}
		t.lastDue = max(t.lastDue, due)

		start := p.clk.now()
		var err error
		if st.cl != nil {
			err = st.cl.TryIngestBatch(t.spec.name, s.idx, events, due)
		} else {
			err = e.TryIngestBatch(t.spec.name, s.idx, events, due)
		}
		end := p.clk.now()
		kind := kindIngest
		if st.cl != nil {
			kind = kindClient
			p.clientCalls = append(p.clientCalls, end-start)
		} else {
			p.ingestCalls = append(p.ingestCalls, end-start)
		}
		p.genLag = append(p.genLag, start-due)
		if tr != nil {
			tr.add(traceSpan{kind: kind, parent: root, tenant: t.id, window: windowOf(due, t.spec.window), key: -1, start: start, end: end})
		}
		switch {
		case err == nil:
			p.acceptedTuples += int64(n)
			t.or.accept(due, keys, vals)
			t.or.advance(s.idx, due, due, start, end)
		case errors.Is(err, cameo.ErrJobPaused):
			p.refusedPaused++
			if err := restartIfQuarantined(p, st, t, tr, root); err != nil {
				return err
			}
		case errors.Is(err, cameo.ErrOverloaded):
			// Dropped and counted; the source's next accepted batch
			// carries its progress forward.
			p.refusedOverload++
			if st.cl != nil {
				// The wire client refuses when its credit window is full
				// or while a Nack's retry-after backoff is in force.
				if isWindowFull(err) {
					p.refusedWindow++
				} else {
					p.refusedBackoff++
				}
			}
		default:
			return fmt.Errorf("ingest %s/%d: %w", t.spec.name, s.idx, err)
		}
	}
	ru1 := rusage()
	mem1 := memStats()
	if !measuring {
		return errors.New("the run ended before its measured phase began")
	}
	p.cpuUser = tv(ru1.Utime) - tv(ru0.Utime)
	p.cpuSys = tv(ru1.Stime) - tv(ru0.Stime)
	p.allocBytes = mem1[0] - mem0[0]
	p.gcs = mem1[1] - mem0[1]

	if err := finish(p, st, tr, root); err != nil {
		return err
	}
	if tr != nil {
		tr.spans[root].end = p.clk.now()
	}
	return nil
}

// isWindowFull tells a full credit window from a Nack backoff; the
// client's error text is the only public difference.
func isWindowFull(err error) bool {
	return strings.Contains(err.Error(), "credit window full")
}

// restartIfQuarantined cancels and resubmits a tenant whose ingest was
// refused as paused after a handler panic quarantined it. The generator
// waits for it: the new incarnation must exist before the next batch.
func restartIfQuarantined(p *pass, st stack, t *tenantRun, tr *tracer, root int32) error {
	panics := st.eng.HandlerPanics()
	if panics <= t.panicsSeen {
		return nil // a Nack backoff left over from an earlier restart
	}
	t.panicsSeen = panics
	start := p.clk.now()
	if err := st.eng.Cancel(t.spec.name); err != nil {
		return fmt.Errorf("cancel quarantined %s: %w", t.spec.name, err)
	}
	t.or.restart()
	if err := st.eng.Submit(t.query(&p.clk, t.or.inc, tr != nil)); err != nil {
		return fmt.Errorf("resubmit %s: %w", t.spec.name, err)
	}
	t.restarts++
	if tr != nil {
		tr.add(traceSpan{kind: kindRestart, parent: root, tenant: t.id, window: -1, key: -1, start: start, end: p.clk.now()})
	}
	return nil
}

// finish sends the final watermarks, settles the wire, drains every
// tenant and checks the ledgers.
func finish(p *pass, st stack, tr *tracer, root int32) error {
	e := st.eng
	start := p.clk.now()
	final := make([]time.Duration, len(p.tenants))
	for i, t := range p.tenants {
		final[i] = windowEnd(windowOf(t.lastDue, t.spec.window), t.spec.window)
		for s := 0; s < t.spec.sources; s++ {
			var err error
			if st.cl != nil {
				err = st.cl.AdvanceProgress(t.spec.name, s, final[i])
			} else {
				err = e.AdvanceProgress(t.spec.name, s, final[i])
			}
			if err != nil && !errors.Is(err, cameo.ErrJobPaused) {
				return fmt.Errorf("final watermark %s/%d: %w", t.spec.name, s, err)
			}
		}
	}
	if st.cl != nil && !st.cl.Flush(drainTimeout) {
		return fmt.Errorf("wire frames did not settle: %+v, err %v", st.cl.Stats(), st.cl.Err())
	}
	p.flushTime = p.clk.now() - start
	if tr != nil {
		tr.add(traceSpan{kind: kindFlush, parent: root, tenant: -1, window: -1, key: -1, start: start, end: p.clk.now()})
	}
	start = p.clk.now()
	deadline := time.Now().Add(drainTimeout)
	for i, t := range p.tenants {
		for {
			// Re-advancing to the progress already sent is a no-op for a
			// live query and reports a quarantined one as paused: a
			// quarantined query never drains, so it is cancelled.
			err := e.AdvanceProgress(t.spec.name, 0, final[i])
			if errors.Is(err, cameo.ErrJobPaused) {
				if err := e.Cancel(t.spec.name); err != nil {
					return fmt.Errorf("cancel quarantined %s: %w", t.spec.name, err)
				}
				t.or.abandon()
				break
			}
			if err != nil {
				return fmt.Errorf("final watermark %s: %w", t.spec.name, err)
			}
			ok, err := e.DrainJob(t.spec.name, 100*time.Millisecond)
			if err != nil {
				return fmt.Errorf("drain %s: %w", t.spec.name, err)
			}
			if ok {
				t.or.flushClose(final[i])
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("tenant %s did not drain within %v", t.spec.name, drainTimeout)
			}
		}
	}
	if tr != nil {
		tr.add(traceSpan{kind: kindDrain, parent: root, tenant: -1, window: -1, key: -1, start: start, end: p.clk.now()})
	}
	// The engine is quiescent: the counters must conserve, and Stats is
	// safe to read.
	l := ledger{created: e.Created(), executed: e.Executed(), discarded: e.Discarded()}
	if st.cl != nil {
		l.wire = true
		l.client = st.cl.Stats()
		l.server = st.srv.WireStats()
		p.client, p.server = l.client, l.server
	}
	p.violations = l.violations()
	p.executed = e.Executed()
	p.handlerPanics = e.HandlerPanics()
	if js, err := e.Stats(p.tenants[0].spec.name); err == nil {
		p.statsP99 = js.P99
	}
	return nil
}

// evaluate runs each tenant's oracle over its probe observations.
func (p *pass) evaluate() {
	in := span{from: p.measureFrom, to: p.measureTo}
	for _, t := range p.tenants {
		t.sink.mu.Lock()
		recs := t.sink.recs
		t.sink.mu.Unlock()
		t.out = t.or.evaluate(recs, in, t.spec.deadline)
		p.deliveredTuples += t.out.deliveredTuples
		p.silentLostTuples += t.out.silentLostTuples
		p.mismatches += t.out.mismatches
		p.dups += t.out.duplicates
		p.results += t.out.results
	}
}

func tv(t syscall.Timeval) time.Duration {
	return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru
}

var memSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/memory/classes/heap/objects:bytes"},
	{Name: "/memory/classes/heap/unused:bytes"},
}

// memStats reads allocated bytes, GC cycles and HeapInuse without
// stopping the world.
func memStats() [3]uint64 {
	metrics.Read(memSamples)
	return [3]uint64{
		memSamples[0].Value.Uint64(),
		memSamples[1].Value.Uint64(),
		memSamples[2].Value.Uint64() + memSamples[3].Value.Uint64(),
	}
}
