package kpbs

import (
	"math/rand"
	"testing"
)

// TestDeltaSteadyStateAllocs pins the steady-state allocation behavior of
// the hot delta paths: after warm-up, a weight-only edit round whose
// normalized instance is unchanged (the reuse path — the headline serving
// regime of `make bench-delta`) must run without a single heap
// allocation, and so must a weight-only round that re-peels in the
// retained arenas, for GGP and OGGP alike. A regression here silently
// turns the delta server into a GC treadmill, so the pin is exact, not a
// threshold.
func TestDeltaSteadyStateAllocs(t *testing.T) {
	const n, k, beta = 32, 8, 8
	rng := rand.New(rand.NewSource(9))
	mat := make([]int64, n*n)
	for i := range mat {
		mat[i] = 32 + rng.Int63n(160)
	}
	g := graphFromMatrix(t, mat, n, n)
	res, err := NewResult(g, k, beta, Options{Algorithm: GGP})
	if err != nil {
		t.Fatal(err)
	}

	// β-absorption jitter: raw weights move but every ceil(w/β) bucket is
	// preserved, so the normalized instance — and the retained peel — is
	// untouched and SolveDelta takes the reuse path.
	jitter := func() []Edit {
		edits := make([]Edit, 0, 64)
		for len(edits) < 64 {
			i := rng.Intn(n * n)
			w := mat[i]
			bucket := (w + beta - 1) / beta
			lo, hi := (bucket-1)*beta+1, bucket*beta
			nw := lo + rng.Int63n(hi-lo+1)
			mat[i] = nw
			edits = append(edits, Edit{L: i / n, R: i % n, W: nw})
		}
		return edits
	}

	// Warm up arenas and pre-draw the measured rounds: AllocsPerRun must
	// observe only SolveDelta, not the edit generator.
	if _, err := res.SolveDelta(jitter()); err != nil {
		t.Fatal(err)
	}
	if res.Stats().Path != DeltaReuse {
		t.Fatalf("jitter warm-up took %v, want DeltaReuse", res.Stats().Path)
	}
	const rounds = 10
	batches := make([][]Edit, rounds)
	for i := range batches {
		batches[i] = jitter()
	}
	var round int
	avg := testing.AllocsPerRun(rounds-1, func() {
		if _, err := res.SolveDelta(batches[round%rounds]); err != nil {
			t.Fatal(err)
		}
		round++
	})
	if avg != 0 {
		t.Errorf("reuse path allocates %.1f objects per round, want 0", avg)
	}
	if res.Stats().Path != DeltaReuse {
		t.Fatalf("measured rounds took %v, want DeltaReuse", res.Stats().Path)
	}

	// Re-peel: a closed swap/unswap cycle of balanced 2x2 swaps at β = 1.
	// Normalized weights change while node sums hold, so every round
	// re-peels, and the cycle returns to the base, so warm arenas never
	// need to grow again after one pass.
	for _, alg := range []Algorithm{GGP, OGGP} {
		want := DeltaReplay
		if alg == OGGP {
			want = DeltaRerun
		}
		base := balancedMatrix(rng, n, 10, 400)
		res, err := NewResult(graphFromMatrix(t, base, n, n), k, 1, Options{Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		swapped := append([]int64(nil), base...)
		swap := balancedSwapEdits(rng, swapped, n, 4)
		unswap := make([]Edit, len(swap))
		for i, e := range swap {
			unswap[i] = Edit{L: e.L, R: e.R, W: base[e.L*n+e.R]}
		}
		cycle := [][]Edit{swap, unswap}
		for _, edits := range cycle {
			if _, err := res.SolveDelta(edits); err != nil {
				t.Fatal(err)
			}
		}
		round = 0
		avg := testing.AllocsPerRun(rounds, func() {
			if _, err := res.SolveDelta(cycle[round%len(cycle)]); err != nil {
				t.Fatal(err)
			}
			if res.Stats().Path != want {
				t.Fatalf("%v re-peel round took %v, want %v", alg, res.Stats().Path, want)
			}
			round++
		})
		if avg != 0 {
			t.Errorf("%v re-peel path allocates %.1f objects per round, want 0", alg, avg)
		}
	}
}
