package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"redistgo/internal/bipartite"
	"redistgo/internal/engine"
	"redistgo/internal/kpbs"
	"redistgo/internal/matching"
	"redistgo/internal/obs"
	"redistgo/internal/wire"
)

// The traced run (--trace 1) prints the per-layer metrics. It runs the
// workload twice over the server, untraced and then with Config.Obs set
// and a trace context on every request, and reads the server's own
// counters for the timed phase of the traced run. It then replays a
// prefix of the workload's sequence in process through each layer's
// public functions, timing every call from here. A layer the workload
// does not exercise reports 0.

// replayOps is how many timed ops the in-process replay covers.
const replayOps = 300

// perLayer runs the traced measurement of w and returns the per-layer
// metrics with the combined request and failure counts.
func perLayer(w workload, seed int64, seconds int) (metrics, *runStats, error) {
	plain, err := run(w, seed, seconds, false)
	if err != nil {
		return nil, nil, fmt.Errorf("untraced run: %w", err)
	}
	traced, err := run(w, seed, seconds, true)
	if err != nil {
		return nil, nil, fmt.Errorf("traced run: %w", err)
	}
	p := newPlan(w, seed, seconds)
	r := &replayer{st: &runStats{}}
	sample := r.sample(p)
	m := metrics{}
	serveLayer(&m, traced)
	r.wire(&m, sample)
	r.cache(&m, sample, traced)
	r.solve(&m, sample, traced)
	r.peel(&m, seed)
	r.delta(&m, p)
	r.pool(&m, sample)
	procLayer(&m, plain)
	plainRPS := float64(plain.attempted) / plain.elapsed.Seconds()
	tracedRPS := float64(traced.attempted) / traced.elapsed.Seconds()
	m.add("bench.trace_overhead_pct", 100*(plainRPS-tracedRPS)/plainRPS, "%")

	all := &runStats{
		attempted: plain.attempted + traced.attempted + r.st.attempted,
		failed:    plain.failed + traced.failed + r.st.failed,
		classRTT:  traced.classRTT,
	}
	all.failures = append(append(append(all.failures, plain.failures...), traced.failures...), r.st.failures...)
	return m, all, nil
}

// counterDelta is a counter's growth over the traced run's timed phase.
func counterDelta(st *runStats, name string) float64 {
	return float64(st.regEnd.Counters[name] - st.regStart.Counters[name])
}

// counterSum sums counterDelta over every counter whose name starts with
// prefix (per-algorithm counters carry the algorithm as a suffix).
func counterSum(st *runStats, prefix string) float64 {
	var s float64
	for name := range st.regEnd.Counters {
		if strings.HasPrefix(name, prefix) {
			s += counterDelta(st, name)
		}
	}
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// histDelta is a histogram's growth over the traced run's timed phase.
func histDelta(st *runStats, name string) obs.HistogramSnapshot {
	var start, end obs.HistogramSnapshot
	for _, h := range st.regStart.Histograms {
		if h.Name == name {
			start = h
		}
	}
	for _, h := range st.regEnd.Histograms {
		if h.Name == name {
			end = h
		}
	}
	d := end
	d.Buckets = append([]int64(nil), end.Buckets...)
	for i := range start.Buckets {
		d.Buckets[i] -= start.Buckets[i]
	}
	d.Count -= start.Count
	return d
}

func serveLayer(m *metrics, st *runStats) {
	m.add("serve.server_p50_us", quantile(sortedFloats(st.srvUS), 0.5), "us")
	m.add("serve.net_p50_us", quantile(sortedFloats(st.netUS), 0.5), "us")
	m.add("serve.request_p99_us", float64(histDelta(st, "serve.request_us").Quantile(0.99)), "us")
	m.add("serve.rejects", counterDelta(st, "serve.rejects_total"), "count")
}

func procLayer(m *metrics, st *runStats) {
	reqs := float64(st.attempted)
	m.add("proc.cpu_ms_per_req", float64(st.cpu.Microseconds())/1000/reqs, "ms")
	m.add("proc.gc_per_kreq", float64(st.numGC)*1000/reqs, "count")
	m.add("proc.gc_pause_ms_per_kreq", float64(st.gcPause.Microseconds())/reqs, "ms")
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	m.add("proc.rss_peak_mb", float64(ru.Maxrss)/1024, "MB")
}

// replayer times the in-process replay; st collects its correctness
// failures.
type replayer struct {
	st *runStats
}

// sampled is one op of the replay prefix with the instance it asks for.
type sampled struct {
	o  op
	in *instance
}

// sample returns the first replayOps timed ops.
func (r *replayer) sample(p *plan) []sampled {
	var out []sampled
	c := p.cursor()
	for c.next < len(p.ops) && c.next < p.warm+replayOps {
		i, in := c.step()
		if i >= p.warm {
			out = append(out, sampled{o: p.ops[i], in: in})
		}
	}
	return out
}

// distinct returns the sample's instances, each once, in first-use order.
func distinct(sample []sampled) []*instance {
	seen := map[*instance]bool{}
	var out []*instance
	for _, x := range sample {
		if !seen[x.in] {
			seen[x.in] = true
			out = append(out, x.in)
		}
	}
	return out
}

func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func (r *replayer) wire(m *metrics, sample []sampled) {
	var encReq, decReq, encResp, decResp time.Duration
	var reqBytes, respBytes int
	scheds := make([]*kpbs.Schedule, len(sample))
	solved := map[*instance]*kpbs.Schedule{}
	for i, x := range sample {
		s, ok := solved[x.in]
		if !ok {
			var err error
			if s, err = kpbs.Solve(x.in.g, x.in.k, x.in.beta, kpbs.Options{Algorithm: x.in.alg}); err != nil {
				r.st.fail("replay solve: %v", err)
				return
			}
			solved[x.in] = s
		}
		scheds[i] = s
	}
	runtime.GC()
	a0 := allocBytes()
	for i, x := range sample {
		t0 := time.Now()
		p, err := encodeOp(x.o, wire.TraceContext{})
		t1 := time.Now()
		if x.o.delta != nil {
			_, err = wire.DecodeDeltaReq(p)
		} else {
			_, err = wire.DecodeSolveReq(p)
		}
		t2 := time.Now()
		resp, err2 := wire.EncodeSolveResp(uint64(i+1), scheds[i], wire.TraceContext{})
		t3 := time.Now()
		_, err3 := wire.DecodeSolveResp(resp)
		t4 := time.Now()
		if err := errors.Join(err, err2, err3); err != nil {
			r.st.fail("replay wire: %v", err)
			return
		}
		encReq += t1.Sub(t0)
		decReq += t2.Sub(t1)
		encResp += t3.Sub(t2)
		decResp += t4.Sub(t3)
		reqBytes += len(p)
		respBytes += len(resp)
	}
	a1 := allocBytes()
	n := float64(len(sample))
	r.st.attempted += len(sample)
	m.add("wire.req_kb", float64(reqBytes)/1024/n, "KB")
	m.add("wire.resp_kb", float64(respBytes)/1024/n, "KB")
	m.add("wire.encode_req_us", us(encReq)/n, "us")
	m.add("wire.decode_req_us", us(decReq)/n, "us")
	m.add("wire.encode_resp_us", us(encResp)/n, "us")
	m.add("wire.decode_resp_us", us(decResp)/n, "us")
	m.add("wire.alloc_kb_per_req", float64(a1-a0)/1024/n, "KB")
}

func (r *replayer) cache(m *metrics, sample []sampled, traced *runStats) {
	insts := distinct(sample)
	c := kpbs.NewSolveCache(cacheSize, nil)
	var hash, miss, solve, hit time.Duration
	for _, in := range insts {
		opts := kpbs.Options{Algorithm: in.alg}
		t0 := time.Now()
		kpbs.HashInstance(in.g, in.k, in.beta, opts)
		t1 := time.Now()
		_, err := kpbs.Solve(in.g, in.k, in.beta, opts)
		t2 := time.Now()
		_, _, err2 := c.GetOrSolve(in.g, in.k, in.beta, opts)
		t3 := time.Now()
		_, wasHit, err3 := c.GetOrSolve(in.g, in.k, in.beta, opts)
		t4 := time.Now()
		_, err4 := kpbs.Solve(in.g, in.k, in.beta, opts)
		t5 := time.Now()
		if err := errors.Join(err, err2, err3, err4); err != nil {
			r.st.fail("replay cache: %v", err)
			return
		}
		if !wasHit {
			r.st.fail("replay cache: second lookup of an instance missed")
		}
		// The miss is compared with the mean of a plain solve before and
		// after it, so cache warmth favours neither side.
		hash += t1.Sub(t0)
		solve += (t2.Sub(t1) + t5.Sub(t4)) / 2
		miss += t3.Sub(t2)
		hit += t4.Sub(t3)
	}
	n := float64(len(insts))
	m.add("cache.hash_us", us(hash)/n, "us")
	m.add("cache.hit_us", us(hit)/n, "us")
	m.add("cache.miss_overhead_us", us(miss-solve)/n, "us")
	hits, misses := counterDelta(traced, "solver.cache.hits_total"), counterDelta(traced, "solver.cache.misses_total")
	m.add("cache.hit_ratio", ratio(hits, hits+misses), "ratio")
	m.add("cache.evictions_per_req", ratio(counterDelta(traced, "solver.cache.evictions_total"), float64(traced.attempted)), "count")
}

// bothAlgsMaxEdges bounds the instances the solve layer also replays
// with the algorithm their request did not ask for. OGGP takes seconds
// per instance on the hot-repeat working set, so that set is replayed
// with its own GGP only and the OGGP metrics read 0 there.
const bothAlgsMaxEdges = 2048

func (r *replayer) solve(m *metrics, sample []sampled, traced *runStats) {
	times := map[kpbs.Algorithm][]float64{}
	evalSum := map[kpbs.Algorithm]float64{}
	var pairGGP, pairOGGP float64 // instances solved with both algorithms
	runtime.GC()
	a0 := allocBytes()
	solves := 0
	for _, in := range distinct(sample) {
		algs := []kpbs.Algorithm{in.alg}
		if in.g.EdgeCount() <= bothAlgsMaxEdges {
			algs = []kpbs.Algorithm{kpbs.GGP, kpbs.OGGP}
		}
		for _, alg := range algs {
			t0 := time.Now()
			s, err := kpbs.Solve(in.g, in.k, in.beta, kpbs.Options{Algorithm: alg})
			d := ms(time.Since(t0))
			if err != nil {
				r.st.fail("replay solve: %v", err)
				return
			}
			solves++
			times[alg] = append(times[alg], d)
			evalSum[alg] += float64(s.Cost()) / float64(kpbs.LowerBound(in.g, in.k, in.beta))
			if len(algs) == 2 && alg == kpbs.GGP {
				pairGGP += d
			} else if len(algs) == 2 {
				pairOGGP += d
			}
		}
	}
	a1 := allocBytes()
	for _, alg := range []kpbs.Algorithm{kpbs.GGP, kpbs.OGGP} {
		sort.Float64s(times[alg])
	}
	m.add("kpbs.solve_ggp_p50_ms", quantile(times[kpbs.GGP], 0.5), "ms")
	m.add("kpbs.solve_ggp_p99_ms", quantile(times[kpbs.GGP], 0.99), "ms")
	m.add("kpbs.solve_oggp_p50_ms", quantile(times[kpbs.OGGP], 0.5), "ms")
	m.add("kpbs.solve_oggp_p99_ms", quantile(times[kpbs.OGGP], 0.99), "ms")
	m.add("kpbs.oggp_over_ggp", ratio(pairOGGP, pairGGP), "ratio")
	m.add("kpbs.peels_per_solve", ratio(counterSum(traced, "solver.peels_total."), counterSum(traced, "solver.solves_total.")), "count")
	m.add("kpbs.warm_reuse_ratio", ratio(counterSum(traced, "solver.warm_reused_pairs_total."), counterSum(traced, "solver.matched_pairs_total.")), "ratio")
	m.add("kpbs.eval_ratio.ggp", ratio(evalSum[kpbs.GGP], float64(len(times[kpbs.GGP]))), "ratio")
	m.add("kpbs.eval_ratio.oggp", ratio(evalSum[kpbs.OGGP], float64(len(times[kpbs.OGGP]))), "ratio")
	m.add("kpbs.alloc_kb_per_solve", float64(a1-a0)/1024/float64(solves), "KB")
}

// regularGraph builds a weight-regular n×n graph as the merged sum of d
// random weighted permutations: every node's weight is the sum of the d
// permutation weights.
func regularGraph(rng *rand.Rand, n, d int) *bipartite.Graph {
	mat := make([][]int64, n)
	for i := range mat {
		mat[i] = make([]int64, n)
	}
	for p := 0; p < d; p++ {
		w := 1 + rng.Int63n(1000)
		for l, r := range rng.Perm(n) {
			mat[l][r] += w
		}
	}
	return mustMatrix(mat)
}

// peel times the WRGP peeler and the two perfect matchings on
// weight-regular graphs at cold-solve's size classes: dense n in
// {16, 24, 32} from n/2 permutations, sparse n in {64, 96, 128} from 4.
func (r *replayer) peel(m *metrics, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	var gs []*bipartite.Graph
	for _, n := range []int{16, 24, 32} {
		gs = append(gs, regularGraph(rng, n, n/2), regularGraph(rng, n, n/2))
	}
	for _, n := range []int{64, 96, 128} {
		gs = append(gs, regularGraph(rng, n, 4), regularGraph(rng, n, 4))
	}
	var ggp, oggp, perfect, bottle time.Duration
	for _, g := range gs {
		t0 := time.Now()
		_, err := kpbs.SolveWRGP(g, false)
		t1 := time.Now()
		_, err2 := kpbs.SolveWRGP(g, true)
		t2 := time.Now()
		_, ok := matching.Perfect(g)
		t3 := time.Now()
		_, ok2 := matching.BottleneckPerfect(g)
		t4 := time.Now()
		r.st.attempted++
		if err := errors.Join(err, err2); err != nil || !ok || !ok2 {
			r.st.fail("replay peel: weight-regular graph %d×%d: %v, perfect matchings found %v %v", g.LeftCount(), g.RightCount(), err, ok, ok2)
		}
		ggp += t1.Sub(t0)
		oggp += t2.Sub(t1)
		perfect += t3.Sub(t2)
		bottle += t4.Sub(t3)
	}
	n := float64(len(gs))
	m.add("peel.wrgp_ggp_ms", ms(ggp)/n, "ms")
	m.add("peel.wrgp_oggp_ms", ms(oggp)/n, "ms")
	m.add("matching.perfect_us", us(perfect)/n, "us")
	m.add("matching.bottleneck_perfect_us", us(bottle)/n, "us")
}

var deltaPaths = []kpbs.DeltaPath{kpbs.DeltaReuse, kpbs.DeltaReplay, kpbs.DeltaRerun, kpbs.DeltaRebuild, kpbs.DeltaCold}

// delta replays every delta chain of the plan through kpbs.NewResult and
// Result.SolveDelta, timing each round against a cold kpbs.Solve of the
// same edited instance and checking the two schedules byte-identical.
func (r *replayer) delta(m *metrics, p *plan) {
	count := map[kpbs.DeltaPath]int{}
	dt := map[kpbs.DeltaPath]time.Duration{}
	ct := map[kpbs.DeltaPath]time.Duration{}
	var base time.Duration
	bases, rounds := 0, 0
	c := p.cursor()
	results := make([]*kpbs.Result, len(p.bases))
	for p.bases != nil && c.next < len(p.ops) && c.next < p.warm+replayOps {
		i, in := c.step()
		o := p.ops[i]
		opts := kpbs.Options{Algorithm: in.alg}
		if o.delta == nil {
			t0 := time.Now()
			res, err := kpbs.NewResult(in.g, in.k, in.beta, opts)
			base += time.Since(t0)
			bases++
			if err != nil {
				r.st.fail("replay delta base: %v", err)
				return
			}
			results[o.chain] = res
			continue
		}
		res := results[o.chain]
		t0 := time.Now()
		got, err := res.SolveDelta(o.delta.Edits)
		t1 := time.Now()
		want, err2 := kpbs.Solve(in.g, in.k, in.beta, opts)
		t2 := time.Now()
		r.st.attempted++
		if err := errors.Join(err, err2); err != nil {
			r.st.fail("replay delta round %d: %v", i, err)
			return
		}
		a, _ := wire.EncodeSolveResp(0, got, wire.TraceContext{})
		b, _ := wire.EncodeSolveResp(0, want, wire.TraceContext{})
		if !bytes.Equal(a, b) {
			r.st.fail("replay delta round %d: delta schedule differs from the cold solve", i)
		}
		path := res.Stats().Path
		count[path]++
		dt[path] += t1.Sub(t0)
		ct[path] += t2.Sub(t1)
		rounds++
	}
	for _, path := range deltaPaths {
		m.add("delta.share."+path.String(), ratio(float64(count[path]), float64(rounds)), "ratio")
	}
	per := func(path kpbs.DeltaPath) time.Duration {
		if count[path] == 0 {
			return 0
		}
		return dt[path] / time.Duration(count[path])
	}
	m.add("delta.reuse_us", us(per(kpbs.DeltaReuse)), "us")
	m.add("delta.replay_ms", ms(per(kpbs.DeltaReplay)), "ms")
	m.add("delta.rerun_ms", ms(per(kpbs.DeltaRerun)), "ms")
	m.add("delta.rebuild_ms", ms(per(kpbs.DeltaRebuild)), "ms")
	for _, path := range deltaPaths[:4] {
		m.add("delta."+path.String()+".vs_cold", ratio(float64(dt[path]), float64(ct[path])), "ratio")
	}
	if bases > 0 {
		base /= time.Duration(bases)
	}
	m.add("delta.base_ms", ms(base), "ms")
}

// pool feeds the sample's instances to an observed engine.Pool from two
// closed-loop submitters and reads each Result's queue wait and solve
// time.
func (r *replayer) pool(m *metrics, sample []sampled) {
	pl := engine.NewPool(engine.PoolOptions{Obs: obs.New()})
	defer pl.Close()
	var mu sync.Mutex
	var waits, solves []float64
	full := 0
	var wg sync.WaitGroup
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := s; i < len(sample); i += 2 {
				in := sample[i].in
				inst := engine.Instance{G: in.g, K: in.k, Beta: in.beta, Opts: kpbs.Options{Algorithm: in.alg}}
				var res engine.Result
				ch, err := pl.TrySubmit(context.Background(), inst)
				if errors.Is(err, engine.ErrQueueFull) {
					mu.Lock()
					full++
					mu.Unlock()
					res = pl.Submit(context.Background(), inst)
				} else if err != nil {
					res = engine.Result{Err: err}
				} else {
					res = <-ch
				}
				mu.Lock()
				if res.Err != nil {
					r.st.fail("replay pool: %v", res.Err)
				} else {
					waits = append(waits, us(res.Wait))
					solves = append(solves, us(res.Solve))
				}
				mu.Unlock()
			}
		}(s)
	}
	wg.Wait()
	sort.Float64s(waits)
	sort.Float64s(solves)
	m.add("pool.wait_p50_us", quantile(waits, 0.5), "us")
	m.add("pool.wait_p99_us", quantile(waits, 0.99), "us")
	m.add("pool.solve_p50_us", quantile(solves, 0.5), "us")
	m.add("pool.queue_full", float64(full), "count")
}
