package main

import (
	"fmt"
	"math/rand"
	"strings"

	"redistgo/internal/bipartite"
	"redistgo/internal/kpbs"
	"redistgo/internal/trafficgen"
	"redistgo/internal/wire"
)

// A workload is one fixed request mix. Every run of a workload sends the
// same sequence for a given seed and run length: the sequence is generated
// before timing starts, so a slower program serves the same instances and
// the same delta-path mix, never fewer of them.
//
// Every workload runs one closed-loop client session: it sends each
// request only after the previous reply. Two sessions on the reference
// host's two CPUs spread p99 far wider from run to run (4.3–7.0 ms
// against 3.2–3.4 ms in a probe) and, with GGP and OGGP chains on
// separate sessions, left one CPU idle at every segment boundary.
type workload struct {
	name string
	// perSecond is the number of timed requests per second of --seconds;
	// it fixes the sequence length independently of how fast the program
	// runs.
	perSecond int
	// segment is the number of timed requests between two verification
	// pauses. It bounds how many raw response payloads are held at once;
	// the clock is stopped while a segment is verified.
	segment int
	// gen appends the warm-up ops and at least timed timed ops, rounded up
	// to whole blocks of the workload's mix, and sets warm.
	gen func(rng *rand.Rand, p *plan, timed int)
}

var workloads = []workload{
	{name: "cold-solve", perSecond: 300, segment: 1000, gen: genCold},
	{name: "hot-repeat", perSecond: 1100, segment: 250, gen: genHot},
	{name: "delta-chain", perSecond: 500, segment: 1000, gen: genDelta},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// minSamples keeps at least ten latency samples beyond p99.
const minSamples = 1000

// instance is one K-PBS problem the server must answer; verification
// compares every response with a cold local solve of it.
type instance struct {
	g    *bipartite.Graph
	k    int
	beta int64
	alg  kpbs.Algorithm
	// shared marks an instance requested more than once (the hot-repeat
	// working set); verification memoizes its cold solve.
	shared bool
	// edges is the edge list every request for the instance carries,
	// copied from g once.
	edges []bipartite.Edge
}

// op is one request: a full solve or a delta round.
type op struct {
	class string
	solve *wire.SolveRequest
	delta *wire.DeltaRequest
	// inst is the instance a solve op carries. Delta rounds leave it nil:
	// their edited matrix is rebuilt from the chain's base and edits.
	inst *instance
	// chain is the delta chain a base solve opens or a round advances.
	chain int
}

// id is the op's request id.
func (o op) id() uint64 {
	if o.delta != nil {
		return o.delta.ID
	}
	return o.solve.ID
}

// tenant is the session's tenant id (the frame Src).
const tenant = 1

// plan is a workload's whole generated input: warm-up ops first (sent
// during set-up), then the timed sequence.
type plan struct {
	seed int64
	ops  []op
	warm int
	// bases are the matrices of the delta chains' opening solves, indexed
	// by chain; nil for workloads without delta chains.
	bases [][][]int64
}

// timed is the timed sequence length.
func (p *plan) timed() int { return len(p.ops) - p.warm }

// newPlan generates every input of a run from the seed.
func newPlan(w workload, seed int64, seconds int) *plan {
	p := &plan{seed: seed}
	n := w.perSecond * seconds
	if n < minSamples {
		n = minSamples
	}
	w.gen(rand.New(rand.NewSource(seed*1_000_003+1)), p, n)
	return p
}

func (p *plan) addSolve(class string, in *instance) {
	if in.edges == nil {
		in.edges = in.g.Edges()
	}
	id := uint64(len(p.ops) + 1)
	p.ops = append(p.ops, op{class: class, inst: in, solve: &wire.SolveRequest{
		ID: id, K: in.k, Beta: in.beta, Algorithm: in.alg,
		N1: in.g.LeftCount(), N2: in.g.RightCount(), Edges: in.edges,
	}})
}

// canonical rebuilds g in row-major edge order without parallel edges,
// the order the solve cache needs to retain a result.
func canonical(g *bipartite.Graph) *bipartite.Graph {
	c, _ := bipartite.FromMatrix(g.ToMatrix()) // a graph's matrix has no negative cells
	return c
}

func mustMatrix(m [][]int64) *bipartite.Graph {
	g, _ := bipartite.FromMatrix(m) // generated matrices have no negative cells
	return g
}

// Cold-solve classes. Every block of coldBlock requests holds a fixed
// number of each class, shuffled per block, so the class mix is the same
// for every seed. Sizes are stratified across each class's slots and k and
// the algorithm rotate over the slots for the same reason.
//
// The shares place p50 in the middle of the power-law GGP latencies, the
// narrowest class body, and p99 in the dense OGGP body.
const (
	coldDense    = 4 // dense n×n, n in [16,32]
	coldPowerLaw = 8 // power-law sparse n×n, n in [64,128], 4n flows
	coldPaper    = 8 // the paper's random instances, at most 20 nodes per side
	coldBlock    = coldDense + coldPowerLaw + coldPaper
	coldWarm     = coldBlock // warm-up requests
)

type coldSlot struct {
	class string
	j, n  int // slot j of n in its class
}

// coldInstance draws the instance of slot sl in block b.
func coldInstance(rng *rand.Rand, sl coldSlot, b int) *instance {
	// stratum picks a value in [lo, hi], from the slot's share of the range.
	stratum := func(lo, hi int) int {
		return lo + int((float64(sl.j)+rng.Float64())/float64(sl.n)*float64(hi-lo+1))
	}
	var g *bipartite.Graph
	switch sl.class {
	case "dense":
		n := stratum(16, 32)
		g = mustMatrix(trafficgen.DenseUniform(rng, n, n, 1, 1<<16))
	case "powerlaw":
		n := stratum(64, 128)
		g = mustMatrix(trafficgen.PowerLawSparse(rng, n, n, 4*n, 1.5, 1, 1<<16))
	default:
		g = canonical(trafficgen.PaperRandom(rng, 20, 100, 1, 1<<16))
	}
	// k cycles through 1..8 over eight blocks for every slot, and each
	// slot's algorithm flips every eight blocks, so size, k and algorithm
	// are not correlated.
	alg := kpbs.GGP
	if (sl.j+b/8)%2 == 1 {
		alg = kpbs.OGGP
	}
	k := 1 + (sl.j*3+b)%8
	beta := int64(1) << (8 + rng.Intn(5)) // 256 .. 4096
	return &instance{g: g, k: k, beta: beta, alg: alg}
}

// genCold draws distinct instances only, so every request misses the
// cache, inserts an entry and (once the cache is full) evicts one.
func genCold(rng *rand.Rand, p *plan, timed int) {
	var block []coldSlot
	for _, c := range []struct {
		class string
		n     int
	}{{"dense", coldDense}, {"powerlaw", coldPowerLaw}, {"paper", coldPaper}} {
		for j := 0; j < c.n; j++ {
			block = append(block, coldSlot{class: c.class, j: j, n: c.n})
		}
	}
	seen := map[kpbs.InstanceKey]bool{}
	for b := 0; len(p.ops) < coldWarm+timed; b++ {
		rng.Shuffle(len(block), func(x, y int) { block[x], block[y] = block[y], block[x] })
		for _, sl := range block {
			for {
				in := coldInstance(rng, sl, b)
				key := kpbs.HashInstance(in.g, in.k, in.beta, kpbs.Options{Algorithm: in.alg})
				if in.g.EdgeCount() > 0 && !seen[key] {
					seen[key] = true
					p.addSolve(sl.class+"-"+strings.ToLower(in.alg.String()), in)
					break
				}
			}
		}
	}
	p.warm = coldWarm
}

// Hot-repeat working set: large sparse GGP instances, fewer than the
// server's cache entries. hotLadder members climb a fixed size ladder;
// one larger member answers in about 700 KB. The timed sequence repeats a
// cycle that requests the large member once and every ladder member
// twice, so the large member is about 3% of the requests. Its latency is
// above the GC-slowed tail of the ladder, so p99 falls inside its
// latencies rather than in that tail, which moves with host load.
const (
	hotLadder = 15
	hotSet    = hotLadder + 1
	hotCycle  = 1 + 2*hotLadder
)

// hotInstance draws working-set member i: a uniform sparse n×n matrix
// with k = 48 and β = 4096. Ladder members have 256..512 nodes and
// 1000..2000 edges; the large member has 1024 nodes and 5200 edges. The
// fixed sizes keep the response sizes nearly the same for every seed.
func hotInstance(rng *rand.Rand, i int) *instance {
	n, edges := 1024, 5200
	if i < hotLadder {
		n = 256 + 256*i/(hotLadder-1)
		edges = 1000 + 1000*i/(hotLadder-1)
	}
	g := mustMatrix(trafficgen.SparseUniform(rng, n, n, float64(edges)/float64(n*n), 1, 1<<16))
	return &instance{g: g, k: 48, beta: 1 << 12, alg: kpbs.GGP, shared: true}
}

// genHot sends every working-set member once during warm-up (filling the
// cache), then repeats the request cycle; every timed request is a cache
// hit.
func genHot(rng *rand.Rand, p *plan, timed int) {
	set := make([]*instance, hotSet)
	for i := range set {
		set[i] = hotInstance(rng, i)
	}
	for _, in := range set {
		p.addSolve("hot", in)
	}
	for i := 0; i < (timed+hotCycle-1)/hotCycle*hotCycle; i++ {
		if pos := i % hotCycle; pos == 0 {
			p.addSolve("hot-large", set[hotLadder])
		} else {
			p.addSolve("hot", set[(pos-1)%hotLadder])
		}
	}
	p.warm = hotSet
}

// Delta chains: one session opens deltaChains chains, each with a dense
// base solve, and streams their edit rounds interleaved round-robin. The
// first three chains run GGP, the last OGGP. Every block of deltaBlock
// rounds of a chain holds a fixed number of jitter, churn and swap
// rounds, so the path mix is the same for every seed. The OGGP chain
// takes one swap and one churn per block: its rerun and rebuild rounds,
// the slowest, are then 2.5% of the rounds, so p99 falls inside them
// rather than in their tail.
const (
	deltaChains = 4 // the server's default per-session base limit
	deltaN      = 32
	deltaK      = 8
	deltaBeta   = 1 << 10
	deltaBlock  = 20
	// deltaUnit is one block of every chain.
	deltaUnit = deltaChains * deltaBlock
	// deltaLife is the number of rounds a chain lives before a new base
	// replaces it.
	deltaLife = 5 * deltaBlock
)

// chainGen evolves a delta chain's matrix. Every present cell holds
// q·β − r with q ≥ 1 its normalized weight and 0 ≤ r < β.
type chainGen struct {
	rng     *rand.Rand
	m       [][]int64
	removed [][2]int
}

func (c *chainGen) present(l, r int) bool { return c.m[l][r] > 0 }

func (c *chainGen) set(l, r int, w int64) kpbs.Edit {
	c.m[l][r] = w
	return kpbs.Edit{L: l, R: r, W: w}
}

// jitter moves 5% of the cells within their β bucket.
func (c *chainGen) jitter() []kpbs.Edit {
	var edits []kpbs.Edit
	for len(edits) < deltaN*deltaN/20 {
		l, r := c.rng.Intn(deltaN), c.rng.Intn(deltaN)
		if !c.present(l, r) {
			continue
		}
		q := (c.m[l][r] + deltaBeta - 1) / deltaBeta
		w := q*deltaBeta - c.rng.Int63n(deltaBeta)
		if w == c.m[l][r] {
			continue
		}
		edits = append(edits, c.set(l, r, w))
	}
	return edits
}

// swap shifts one β unit around a 4-cycle (a,b)+ (a,d)- (c,d)+ (c,b)-:
// normalized weights change but every node's normalized sum is kept.
func (c *chainGen) swap() []kpbs.Edit {
	for {
		a, cc := c.rng.Intn(deltaN), c.rng.Intn(deltaN)
		b, d := c.rng.Intn(deltaN), c.rng.Intn(deltaN)
		if a == cc || b == d || !c.present(a, b) || !c.present(a, d) || !c.present(cc, d) || !c.present(cc, b) {
			continue
		}
		if c.m[a][d] <= 2*deltaBeta || c.m[cc][b] <= 2*deltaBeta {
			continue // keep both decremented cells at q ≥ 2
		}
		return []kpbs.Edit{
			c.set(a, b, c.m[a][b]+deltaBeta),
			c.set(a, d, c.m[a][d]-deltaBeta),
			c.set(cc, d, c.m[cc][d]+deltaBeta),
			c.set(cc, b, c.m[cc][b]-deltaBeta),
		}
	}
}

// churn removes one present cell or re-adds a removed one.
func (c *chainGen) churn() []kpbs.Edit {
	if len(c.removed) > 0 && c.rng.Intn(2) == 0 {
		i := c.rng.Intn(len(c.removed))
		cell := c.removed[i]
		c.removed = append(c.removed[:i], c.removed[i+1:]...)
		return []kpbs.Edit{c.set(cell[0], cell[1], c.cellWeight())}
	}
	for {
		l, r := c.rng.Intn(deltaN), c.rng.Intn(deltaN)
		if c.present(l, r) {
			c.removed = append(c.removed, [2]int{l, r})
			return []kpbs.Edit{c.set(l, r, 0)}
		}
	}
}

func (c *chainGen) cellWeight() int64 {
	q := 4 + c.rng.Int63n(61)
	return q*deltaBeta - c.rng.Int63n(deltaBeta)
}

// newChain draws a fresh dense base matrix for chain ci and appends its
// base solve.
// chainAlg is the algorithm of chain slot ci.
func chainAlg(ci int) kpbs.Algorithm {
	if ci == deltaChains-1 {
		return kpbs.OGGP
	}
	return kpbs.GGP
}

// deltaBlockOf lists one block of rounds for a chain of algorithm alg:
// jitter redraws 5% of the cells within their β bucket (→ reuse), churn
// removes or re-adds one cell (→ rebuild), and a β-aligned balanced
// 4-cell swap (→ replay on GGP, rerun on OGGP) ends the block.
func deltaBlockOf(alg kpbs.Algorithm) []string {
	churn, swap := 3, 3
	if alg == kpbs.OGGP {
		churn, swap = 1, 1
	}
	var block []string
	for i := 0; i < deltaBlock-churn-swap; i++ {
		block = append(block, "jitter")
	}
	for i := 0; i < churn; i++ {
		block = append(block, "churn")
	}
	for i := 0; i < swap; i++ {
		block = append(block, "swap")
	}
	return block
}

func newChain(rng *rand.Rand, p *plan, ci int) *chainGen {
	alg := chainAlg(ci)
	c := &chainGen{rng: rng, m: make([][]int64, deltaN)}
	for l := range c.m {
		c.m[l] = make([]int64, deltaN)
		for r := range c.m[l] {
			c.m[l][r] = c.cellWeight()
		}
	}
	p.bases = append(p.bases, cloneMatrix(c.m))
	p.addSolve("base", &instance{g: mustMatrix(c.m), k: deltaK, beta: deltaBeta, alg: alg})
	p.ops[len(p.ops)-1].chain = len(p.bases) - 1
	return c
}

// genDelta opens deltaChains chains and advances them round-robin. A
// chain lives deltaLife rounds; then, at its turn, a new base solve
// replaces it. At that moment the old chain is the least recently
// advanced, so registering the new base evicts exactly it. Renewal
// spreads the OGGP cost over many base matrices per run and puts base
// solves and cache checkouts in the timed window.
func genDelta(rng *rand.Rand, p *plan, timed int) {
	gens := make([]*chainGen, deltaChains)
	chainOf := make([]int, deltaChains) // slot → index into p.bases
	last := make([]uint64, deltaChains) // slot → latest request id
	for ci := range gens {
		gens[ci] = newChain(rng, p, ci)
		chainOf[ci] = ci
		last[ci] = uint64(len(p.ops))
	}
	// Each block ends with a swap and shuffles the other rounds, so a
	// chain of whole blocks always ends in the same retained state.
	orders := make([][]string, deltaChains)
	for ci := range orders {
		orders[ci] = make([]string, deltaBlock)
	}
	// One block per chain warms up; the timed rounds are whole blocks.
	blocks := 1 + (timed+deltaUnit-1)/deltaUnit
	for ri := 0; ri < blocks*deltaBlock; ri++ {
		if ri == deltaBlock {
			p.warm = len(p.ops)
		}
		for ci := 0; ci < deltaChains; ci++ {
			if ri > 0 && ri%deltaLife == 0 {
				gens[ci] = newChain(rng, p, ci)
				chainOf[ci] = len(p.bases) - 1
				last[ci] = uint64(len(p.ops))
			}
			order := orders[ci]
			if ri%deltaBlock == 0 {
				copy(order, deltaBlockOf(chainAlg(ci)))
				rng.Shuffle(len(order)-1, func(a, b int) { order[a], order[b] = order[b], order[a] })
			}
			c := gens[ci]
			kind := order[ri%deltaBlock]
			var edits []kpbs.Edit
			switch kind {
			case "jitter":
				edits = c.jitter()
			case "swap":
				edits = c.swap()
			default:
				edits = c.churn()
			}
			id := uint64(len(p.ops) + 1)
			p.ops = append(p.ops, op{class: kind, chain: chainOf[ci], delta: &wire.DeltaRequest{ID: id, Base: last[ci], Edits: edits}})
			last[ci] = id
		}
	}
}

func cloneMatrix(m [][]int64) [][]int64 {
	c := make([][]int64, len(m))
	for i := range m {
		c[i] = append([]int64(nil), m[i]...)
	}
	return c
}

// cursor walks the plan's ops in order, yielding the instance each op
// asks for: a solve op's own instance, or for a delta round its chain's
// matrix after that round's edits.
type cursor struct {
	p      *plan
	m      [][][]int64 // per chain
	chains []*instance // per chain: the base solve's instance
	next   int
}

func (p *plan) cursor() *cursor {
	c := &cursor{p: p, chains: make([]*instance, len(p.bases))}
	for _, b := range p.bases {
		c.m = append(c.m, cloneMatrix(b))
	}
	return c
}

// step returns the next op's index and instance.
func (c *cursor) step() (int, *instance) {
	i := c.next
	c.next++
	o := c.p.ops[i]
	if o.delta == nil {
		if c.p.bases != nil {
			c.chains[o.chain] = o.inst
		}
		return i, o.inst
	}
	m := c.m[o.chain]
	for _, e := range o.delta.Edits {
		m[e.L][e.R] = e.W
	}
	base := c.chains[o.chain]
	return i, &instance{g: mustMatrix(m), k: base.k, beta: base.beta, alg: base.alg}
}

// encodeOp is the exact request payload the client sends for an op.
func encodeOp(o op, tc wire.TraceContext) ([]byte, error) {
	if o.delta != nil {
		d := *o.delta
		d.Trace = tc
		return wire.EncodeDeltaReq(d)
	}
	r := *o.solve
	r.Trace = tc
	return wire.EncodeSolveReq(r)
}
