package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"

	"redistgo/internal/kpbs"
	"redistgo/internal/wire"
)

// stream is every request payload of a plan, warm-up included, in send
// order.
func stream(t *testing.T, p *plan) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, o := range p.ops {
		payload, err := encodeOp(o, wire.TraceContext{})
		if err != nil {
			t.Fatal(err)
		}
		b.Write(payload)
	}
	return b.Bytes()
}

func TestSeedFixesTheStream(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b, c := newPlan(w, 7, 1), newPlan(w, 7, 1), newPlan(w, 8, 1)
			if !bytes.Equal(stream(t, a), stream(t, b)) {
				t.Error("same seed, different request stream")
			}
			if !reflect.DeepEqual(a.classMix(), b.classMix()) {
				t.Error("same seed, different class mix")
			}
			if bytes.Equal(stream(t, a), stream(t, c)) {
				t.Error("different seeds, same request stream")
			}
			// The class mix is fixed by construction, not by the seed.
			if !reflect.DeepEqual(a.classMix(), c.classMix()) {
				t.Errorf("class mix depends on the seed: %v vs %v", a.classMix(), c.classMix())
			}
		})
	}
}

// Every delta round takes the path its class was built for, so the path
// mix is as fixed as the class mix.
func TestDeltaRoundsTakeTheirPath(t *testing.T) {
	w, err := findWorkload("delta-chain")
	if err != nil {
		t.Fatal(err)
	}
	p := newPlan(w, 3, 1)
	want := map[kpbs.Algorithm]map[string]kpbs.DeltaPath{
		kpbs.GGP:  {"jitter": kpbs.DeltaReuse, "swap": kpbs.DeltaReplay, "churn": kpbs.DeltaRebuild},
		kpbs.OGGP: {"jitter": kpbs.DeltaReuse, "swap": kpbs.DeltaRerun, "churn": kpbs.DeltaRebuild},
	}
	c := p.cursor()
	results := make([]*kpbs.Result, len(p.bases))
	algs := make([]kpbs.Algorithm, len(p.bases))
	for c.next < p.warm+200 {
		i, in := c.step()
		o := p.ops[i]
		if o.delta == nil {
			res, err := kpbs.NewResult(in.g, in.k, in.beta, kpbs.Options{Algorithm: in.alg})
			if err != nil {
				t.Fatal(err)
			}
			results[o.chain], algs[o.chain] = res, in.alg
			continue
		}
		res := results[o.chain]
		if _, err := res.SolveDelta(o.delta.Edits); err != nil {
			t.Fatal(err)
		}
		if got := res.Stats().Path; got != want[algs[o.chain]][o.class] {
			t.Fatalf("round %d (chain %d, %s, %v): path %v, want %v", i, o.chain, o.class, algs[o.chain], got, want[algs[o.chain]][o.class])
		}
	}
}

// verifyOne checks the reply to op i of p carrying raw.
func verifyOne(p *plan, i int, raw []byte) error {
	v := newVerifier(p)
	var in *instance
	for v.cur.next <= i {
		_, in = v.cur.step()
	}
	_, err := v.check(reply{raw: raw, op: i, id: p.ops[i].id()}, in)
	return err
}

func TestVerifyCatchesAFlippedByte(t *testing.T) {
	for _, name := range []string{"cold-solve", "delta-chain"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		p := newPlan(w, 5, 1)
		i := p.warm // the first timed op
		c := p.cursor()
		var in *instance
		for c.next <= i {
			_, in = c.step()
		}
		sched, err := kpbs.Solve(in.g, in.k, in.beta, kpbs.Options{Algorithm: in.alg})
		if err != nil {
			t.Fatal(err)
		}
		good, err := wire.EncodeSolveResp(p.ops[i].id(), sched, wire.TraceContext{})
		if err != nil {
			t.Fatal(err)
		}
		if err := verifyOne(p, i, good); err != nil {
			t.Fatalf("%s: correct response rejected: %v", name, err)
		}
		for pos := 0; pos < len(good); pos += 1 + len(good)/64 {
			bad := append([]byte(nil), good...)
			bad[pos] ^= 0x01
			if verifyOne(p, i, bad) == nil {
				t.Errorf("%s: byte %d of %d flipped, response accepted", name, pos, len(good))
			}
		}
	}
}

// classMix counts the timed ops per class, in sorted class order.
func (p *plan) classMix() []classCount {
	counts := map[string]int{}
	for _, o := range p.ops[p.warm:] {
		counts[o.class]++
	}
	var out []classCount
	for c, n := range counts {
		out = append(out, classCount{class: c, n: n, share: float64(n) / float64(p.timed())})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].class < out[j].class })
	return out
}

type classCount struct {
	class string
	n     int
	share float64
}

// names returns the sorted metric names of m.
func names(m metrics) []string {
	var out []string
	for _, x := range m {
		out = append(out, x.name)
	}
	sort.Strings(out)
	return out
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var e2e, layer []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, m.Name)
	}
	sort.Strings(e2e)
	sort.Strings(layer)

	w, err := findWorkload("delta-chain")
	if err != nil {
		t.Fatal(err)
	}
	st, err := run(w, 1, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.failed != 0 {
		t.Fatalf("%d requests failed: %v", st.failed, st.failures)
	}
	if got := names(endToEnd(st)); !reflect.DeepEqual(got, e2e) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json declares %v", got, e2e)
	}
	if testing.Short() {
		t.Skip("per-layer run skipped in -short mode")
	}
	m, lst, err := perLayer(w, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lst.failed != 0 {
		t.Fatalf("%d traced requests failed: %v", lst.failed, lst.failures)
	}
	if got := names(m); !reflect.DeepEqual(got, layer) {
		t.Errorf("per-layer metrics %v, BENCHMARK.json declares %v", got, layer)
	}
	for _, x := range m {
		if x.name == "cache.hit_ratio" && x.value != 0 {
			t.Errorf("delta-chain cache hit ratio %v, want 0 (timed deltas never look the cache up)", x.value)
		}
		if len(x.name) > len("delta.share.") && x.name[:len("delta.share.")] == "delta.share." && x.name != "delta.share.cold" && x.value == 0 {
			t.Errorf("%s is 0 on delta-chain", x.name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
