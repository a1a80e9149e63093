package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"redistgo/internal/kpbs"
	"redistgo/internal/obs"
	"redistgo/internal/serve"
	"redistgo/internal/wire"
)

// cacheSize is the server's solve-cache capacity: larger than the
// hot-repeat working set, far smaller than a cold-solve run.
const cacheSize = 64

// serverConfig is the one Config every workload runs against: cache on,
// default pool and base limits, no admission rates. o is nil except in
// the traced run.
func serverConfig(o *obs.Observer) serve.Config {
	return serve.Config{CacheSize: cacheSize, Obs: o}
}

// reply is one timed request's outcome, kept for verification after the
// clock stops.
type reply struct {
	rtt   time.Duration
	raw   []byte
	trace wire.TraceContext // sent trace context (traced run only)
	srvUS int64             // server handling time echoed in the trace
	err   error
	op    int
	id    uint64 // request id
}

// segment is one timed stretch between verification pauses: its wall
// time and its replies' range in runStats.rtts.
type segment struct {
	elapsed  time.Duration
	first, n int
}

// runStats is what one run of a plan measured.
type runStats struct {
	attempted, failed int
	elapsed           time.Duration
	rtts              []time.Duration
	segs              []segment
	classRTT          map[string][]time.Duration
	srvUS             []int64 // traced run: server handling time per reply
	netUS             []int64 // traced run: round trip minus handling time
	evalSum           float64
	evalN             int
	allocBytes        uint64
	numGC             uint32
	gcPause           time.Duration
	cpu               time.Duration
	retained          int64
	setup             []time.Duration
	failures          []string
	// regStart and regEnd are the traced server's metrics at the start
	// and end of the timed phase.
	regStart, regEnd obs.Snapshot
}

func (st *runStats) fail(format string, args ...any) {
	st.failed++
	if len(st.failures) < 10 {
		st.failures = append(st.failures, fmt.Sprintf(format, args...))
	}
}

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 5

// traceEvents bounds the traced server's event trace.
const traceEvents = 1 << 16

// env is a running server with its connected session.
type env struct {
	srv    *serve.Server
	client *serve.Client
}

func (e *env) close() error {
	if e.client != nil {
		_ = e.client.Close() // the server drains regardless of the goodbye
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return e.srv.Shutdown(ctx)
}

// setUp generates the plan, starts a server, connects the session and
// sends the warm-up ops (filling the cache and opening delta chains).
func setUp(w workload, seed int64, seconds int, o *obs.Observer) (*plan, *env, error) {
	p := newPlan(w, seed, seconds)
	srv, err := serve.New(serverConfig(o))
	if err != nil {
		return nil, nil, err
	}
	e := &env{srv: srv}
	if e.client, err = serve.Dial(srv.Addr(), tenant); err != nil {
		_ = e.close()
		return nil, nil, err
	}
	for j := 0; j < p.warm; j++ {
		if _, _, err := send(e.client, p.ops[j], wire.TraceContext{}); err != nil {
			_ = e.close()
			return nil, nil, fmt.Errorf("warm-up op %d: %w", j, err)
		}
	}
	return p, e, nil
}

func send(c *serve.Client, o op, tc wire.TraceContext) (wire.SolveResponse, []byte, error) {
	if o.delta != nil {
		d := *o.delta
		d.Trace = tc
		return c.SolveDeltaFull(d)
	}
	r := *o.solve
	r.Trace = tc
	return c.SolveFull(r)
}

// traceID is the deterministic trace id of a traced request.
func traceID(seed int64, op int) wire.TraceContext {
	var tc wire.TraceContext
	binary.BigEndian.PutUint64(tc.ID[:8], uint64(seed))
	binary.BigEndian.PutUint64(tc.ID[8:], uint64(op)+1)
	return tc
}

// procSample is the process state at a segment boundary.
type procSample struct {
	alloc uint64
	numGC uint32
	pause uint64
	cpu   time.Duration
}

func sampleProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return procSample{alloc: ms.TotalAlloc, numGC: ms.NumGC, pause: ms.PauseTotalNs, cpu: cpu}
}

// run sets up setupRepeats times (keeping the last set-up), sends the
// timed sequence segment by segment, verifies each segment with the clock
// stopped, and measures the server's retained heap. traced attaches an
// observer to the server and a trace context to every request.
func run(w workload, seed int64, seconds int, traced bool) (*runStats, error) {
	st := &runStats{classRTT: map[string][]time.Duration{}}
	var p *plan
	var e *env
	var o *obs.Observer
	for i := 0; i < setupRepeats; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
		}
		if traced {
			o = obs.New()
			// Only the registry is read; a small event bound keeps the
			// traced run's memory near the untraced run's.
			o.Trace.SetLimit(traceEvents)
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		p, e, err = setUp(w, seed, seconds, o)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		st.setup = append(st.setup, time.Since(t0))
	}
	v := newVerifier(p)
	timed := p.timed()
	if traced {
		st.regStart = o.Metrics.Snapshot()
	}
	for lo := 0; lo < timed; lo += w.segment {
		hi := lo + w.segment
		if hi > timed {
			hi = timed
		}
		// Start every segment from a collected heap, so the timed window
		// never pays for the previous segment's verification garbage.
		runtime.GC()
		before := sampleProc()
		t0 := time.Now()
		replies := drive(e.client, p, p.warm+lo, p.warm+hi, traced)
		elapsed := time.Since(t0)
		st.elapsed += elapsed
		st.segs = append(st.segs, segment{elapsed: elapsed, first: len(st.rtts), n: len(replies)})
		after := sampleProc()
		st.allocBytes += after.alloc - before.alloc
		st.numGC += after.numGC - before.numGC
		st.gcPause += time.Duration(after.pause - before.pause)
		st.cpu += after.cpu - before.cpu
		for _, rp := range replies {
			st.attempted++
			st.rtts = append(st.rtts, rp.rtt)
			class := p.ops[rp.op].class
			st.classRTT[class] = append(st.classRTT[class], rp.rtt)
			if traced && rp.err == nil {
				st.srvUS = append(st.srvUS, rp.srvUS)
				st.netUS = append(st.netUS, rp.rtt.Microseconds()-rp.srvUS)
			}
		}
		v.verify(replies, st)
	}
	// Two collections: the first moves sync.Pool contents to the victim
	// cache, the second frees them.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	up := int64(ms.HeapAlloc)
	if traced {
		st.regEnd = o.Metrics.Snapshot()
	}
	if err := e.close(); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	e = nil
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	st.retained = up - int64(ms.HeapAlloc)
	runtime.KeepAlive(p)
	runtime.KeepAlive(v)
	return st, nil
}

// drive sends ops [lo, hi) in a closed loop and records each outcome.
// Nothing is checked here beyond what the client itself checks;
// verification runs after the clock stops.
func drive(c *serve.Client, p *plan, lo, hi int, traced bool) []reply {
	out := make([]reply, 0, hi-lo)
	for j := lo; j < hi; j++ {
		var tc wire.TraceContext
		if traced {
			tc = traceID(p.seed, j)
		}
		t0 := time.Now()
		resp, raw, err := send(c, p.ops[j], tc)
		rtt := time.Since(t0)
		out = append(out, reply{rtt: rtt, raw: raw, trace: tc, srvUS: resp.Trace.TS, err: err, op: j, id: p.ops[j].id()})
		var rej *serve.RejectError
		if err != nil && !errors.As(err, &rej) {
			break // the session is dead; the rest count as failed in verify
		}
	}
	for j := lo + len(out); j < hi; j++ {
		out = append(out, reply{err: errors.New("not sent: session failed"), op: j})
	}
	return out
}

// verifier checks responses against cold local solves, outside the
// timed window. Segments are verified in order, so the cursor only moves
// forward.
type verifier struct {
	cur *cursor
	// local memoizes the checked cold solve of shared instances.
	mu    sync.Mutex
	local map[*instance]*checked
}

type checked struct {
	sched *kpbs.Schedule
	ratio float64
	err   error
}

func newVerifier(p *plan) *verifier {
	v := &verifier{cur: p.cursor(), local: map[*instance]*checked{}}
	for v.cur.next < p.warm {
		v.cur.step()
	}
	return v
}

// solved returns the checked cold solve of in: valid, transferring
// exactly the instance, and within paper Theorem 1's bound
// LB ≤ cost ≤ 2·LB + 2β (the 2β is the padding slack derived in
// DESIGN.md and asserted by the kpbs tests).
func (v *verifier) solved(in *instance) *checked {
	v.mu.Lock()
	c, ok := v.local[in]
	v.mu.Unlock()
	if ok {
		return c
	}
	c = &checked{}
	defer func() {
		if in.shared {
			v.mu.Lock()
			v.local[in] = c
			v.mu.Unlock()
		}
	}()
	c.sched, c.err = kpbs.Solve(in.g, in.k, in.beta, kpbs.Options{Algorithm: in.alg})
	if c.err == nil {
		c.err = c.sched.Validate(in.g, in.k)
	}
	if c.err == nil {
		lb := kpbs.LowerBound(in.g, in.k, in.beta)
		cost := c.sched.Cost()
		if cost < lb || cost > 2*lb+2*in.beta {
			c.err = fmt.Errorf("cost %d outside [LB, 2·LB+2β] = [%d, %d]", cost, lb, 2*lb+2*in.beta)
		} else {
			c.ratio = float64(cost) / float64(lb)
		}
	}
	return c
}

// check verifies one reply: the raw payload must be byte-identical to
// the local cold solve encoded under the same id and echoed trace.
func (v *verifier) check(r reply, in *instance) (float64, error) {
	if r.err != nil {
		return 0, r.err
	}
	c := v.solved(in)
	if c.err != nil {
		return 0, c.err
	}
	// The expected bytes carry the request's own id and trace id; only the
	// server's handling time is taken from the response (the client
	// decoded it).
	want, err := wire.EncodeSolveResp(r.id, c.sched, wire.TraceContext{ID: r.trace.ID, TS: r.srvUS})
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(r.raw, want) {
		return 0, fmt.Errorf("response differs from the cold local solve")
	}
	return c.ratio, nil
}

// verify checks a segment's replies on two goroutines and folds the
// outcome into st.
func (v *verifier) verify(all []reply, st *runStats) {
	insts := make([]*instance, len(all))
	for k, r := range all {
		i, in := v.cur.step()
		if i != r.op {
			panic(fmt.Sprintf("verifier cursor at op %d, reply for op %d", i, r.op))
		}
		insts[k] = in
	}
	ratios := make([]float64, len(all))
	errs := make([]error, len(all))
	var wg sync.WaitGroup
	const workers = 2
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(all); i += workers {
				ratios[i], errs[i] = v.check(all[i], insts[i])
			}
		}(w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			st.fail("op %d: %v", all[i].op, err)
			continue
		}
		st.evalSum += ratios[i]
		st.evalN++
	}
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	sort.Float64s(out)
	return out
}

func sortedFloats(xs []int64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// window is the least number of timed requests one window covers: enough
// for ten samples beyond its p99.
const window = 1000

// windows groups consecutive segments into windows of at least window
// requests (a short remainder joins the last window) and returns each
// window's throughput and latency p50 and p99. The end-to-end timing
// metrics are the medians over windows, so a burst of host noise in one
// window does not move them.
func windows(st *runStats) (rps, p50, p99 []float64) {
	var groups [][2]int // segment index ranges
	lo, n := 0, 0
	for i, seg := range st.segs {
		n += seg.n
		if n >= window {
			groups = append(groups, [2]int{lo, i + 1})
			lo, n = i+1, 0
		}
	}
	if lo < len(st.segs) {
		if len(groups) == 0 {
			groups = append(groups, [2]int{lo, len(st.segs)})
		} else {
			groups[len(groups)-1][1] = len(st.segs)
		}
	}
	for _, g := range groups {
		var lat []time.Duration
		var elapsed time.Duration
		for _, seg := range st.segs[g[0]:g[1]] {
			lat = append(lat, st.rtts[seg.first:seg.first+seg.n]...)
			elapsed += seg.elapsed
		}
		rps = append(rps, float64(len(lat))/elapsed.Seconds())
		sorted := sortedMs(lat)
		p50 = append(p50, quantile(sorted, 0.5))
		p99 = append(p99, quantile(sorted, 0.99))
	}
	return rps, p50, p99
}

// endToEnd computes the end-to-end metrics of an untraced run.
func endToEnd(st *runStats) metrics {
	rps, p50, p99 := windows(st)
	setup := make([]float64, len(st.setup))
	for i, d := range st.setup {
		setup[i] = d.Seconds()
	}
	m := metrics{}
	m.add("throughput_rps", median(rps), "1/s")
	m.add("latency_p50_ms", median(p50), "ms")
	m.add("latency_p99_ms", median(p99), "ms")
	m.add("setup_s", median(setup), "s")
	m.add("eval_ratio_mean", ratio(st.evalSum, float64(st.evalN)), "ratio")
	m.add("alloc_kb_per_req", float64(st.allocBytes)/1024/float64(st.attempted), "KB")
	m.add("retained_mb", float64(st.retained)/(1<<20), "MB")
	return m
}
