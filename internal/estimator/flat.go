package estimator

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"privrange/internal/index"
	"privrange/internal/sampling"
)

// This file holds the flat-index hot path: the same estimator math as
// estimator.go, evaluated over the columnar sample index
// (internal/index) by one tile kernel with no per-query allocation. The
// SampleSet path stays as the node-side representation and the
// correctness oracle; the property tests in flat_test.go and the fuzz
// target in kernel_fuzz_test.go assert both paths agree bit-for-bit,
// which is possible because the kernel forms every per-node term from
// the same integers with the same float operations in the same order
// (per-node terms summed in node-index order starting from 0).
//
// The kernel (DESIGN.md §19) answers a tile of up to queryTile queries
// per node. Both of a query's searches ask how many of the node's order
// keys lie below a target: OrderKey(L) for the first sample ≥ L (the
// strict predecessor of l sits just before it) and OrderKey(U)+1 for
// the first sample > U (the strict successor of u). Every search over
// one node has the same length, so the tile's 2·queryTile searches take
// the same halving steps in lockstep, and each step adds half the
// window from a subtraction borrow instead of a branch: the tile runs
// as independent dependency chains rather than mispredicted branches.

// keyTile is one query tile's search targets as order keys: for tile
// query j, target[2j] = OrderKey(L) and target[2j+1] = OrderKey(U)+1.
// The endpoints are converted once per tile, not once per node; a
// loaded tile is read-only, so concurrent workers may share it.
type keyTile struct {
	m      int // queries in the tile, at most queryTile
	target [2 * queryTile]uint64
}

// load converts queries (len ≤ queryTile) into the tile's targets.
func (t *keyTile) load(queries []Query) {
	t.m = len(queries)
	for j, q := range queries {
		t.target[2*j] = index.OrderKey(q.L)
		// OrderKey(+Inf)+1 cannot wrap (see index.OrderKey).
		t.target[2*j+1] = index.OrderKey(q.U) + 1
	}
}

// below sets pos[i] to the number of keys below target[i] for each of
// the tile's 2m targets. keys is sorted, so this is a lower bound; the
// probe sequence depends only on len(keys), so all targets descend in
// lockstep, and bits.Sub64's borrow (1 exactly when the probed key is
// below the target) masks each step's advance without a branch.
func (t *keyTile) below(keys []uint64, pos *[2 * queryTile]int) {
	if t.m == 1 {
		pos[0], pos[1] = belowPair(keys, t.target[0], t.target[1])
		return
	}
	at := pos[:2*t.m]
	target := t.target[:len(at)]
	for i := range at {
		at[i] = 0
	}
	if len(keys) == 0 {
		return
	}
	for w := len(keys); w > 1; {
		half := w >> 1
		for i, x := range target {
			_, lt := bits.Sub64(keys[at[i]+half], x, 0)
			at[i] += half & -int(lt)
		}
		w -= half
	}
	for i, x := range target {
		_, lt := bits.Sub64(keys[at[i]], x, 0)
		at[i] += int(lt)
	}
}

// belowPair is below for a one-query tile: the same steps, with both
// positions held in registers. With only two chains per node, the
// lockstep loop's store-to-load round trip through pos would sit on
// every step's critical path.
func belowPair(keys []uint64, x, y uint64) (int, int) {
	if len(keys) == 0 {
		return 0, 0
	}
	a, b := 0, 0
	for w := len(keys); w > 1; {
		half := w >> 1
		_, ltA := bits.Sub64(keys[a+half], x, 0)
		_, ltB := bits.Sub64(keys[b+half], y, 0)
		a += half & -int(ltA)
		b += half & -int(ltB)
		w -= half
	}
	_, ltA := bits.Sub64(keys[a], x, 0)
	_, ltB := bits.Sub64(keys[b], y, 0)
	return a + int(ltA), b + int(ltB)
}

// terms writes the tile's per-node estimator terms for one node into
// row[:t.m]. kernelRank is RankCounting.estimateNode's four-case rule
// of §III-A; kernelBasic is BasicCounting.estimateNode's
// |{samples in [l,u]}| / p. The arithmetic mirrors the SampleSet
// estimators exactly, so the terms are bit-identical to theirs.
func (t *keyTile) terms(kern flatKernel, keys []uint64, ranks []int32, n int, p float64, row []float64) {
	var pos [2 * queryTile]int
	t.below(keys, &pos)
	row = row[:t.m]
	if kern == kernelBasic {
		for j := range row {
			row[j] = float64(pos[2*j+1]-pos[2*j]) / p
		}
		return
	}
	for j := range row {
		pi := pos[2*j]   // pred = pi-1 when pi > 0
		si := pos[2*j+1] // succ = si when si < len
		hasPred := pi > 0
		hasSucc := si < len(ranks)
		switch {
		case hasPred && hasSucc:
			row[j] = float64(int(ranks[si])-int(ranks[pi-1])+1) - 2/p
		case hasPred:
			row[j] = float64(n-int(ranks[pi-1])+1) - 1/p
		case hasSucc:
			row[j] = float64(int(ranks[si])) - 1/p
		default:
			row[j] = float64(n)
		}
	}
}

// validateIndex checks the shared preconditions of the flat estimators.
func validateIndex(ix *index.Index, p float64, q Query) error {
	if ix == nil {
		return fmt.Errorf("estimator: nil sample index")
	}
	if err := q.Validate(); err != nil {
		return err
	}
	if p <= 0 || p > 1 {
		return fmt.Errorf("estimator: sampling probability %v outside (0, 1]", p)
	}
	return nil
}

// EstimateIndex computes the global RankCounting estimate over the
// columnar index — the broker's hot path. It is a one-query tile of the
// batch kernel; it allocates nothing on the sequential path and reuses
// pooled scratch on the parallel one. The result is bit-identical to
// Estimate over the equivalent sample sets.
func (r RankCounting) EstimateIndex(ix *index.Index, q Query) (float64, error) {
	return estimateIndex(ix, q, kernelRank, r.P)
}

// EstimateIndex computes the global BasicCounting estimate over the
// columnar index. Bit-identical to Estimate over the equivalent sets.
func (b BasicCounting) EstimateIndex(ix *index.Index, q Query) (float64, error) {
	return estimateIndex(ix, q, kernelBasic, b.P)
}

func estimateIndex(ix *index.Index, q Query, kern flatKernel, p float64) (float64, error) {
	if err := validateIndex(ix, p, q); err != nil {
		return 0, err
	}
	var t keyTile
	t.load([]Query{q})
	k := ix.Nodes()
	if engageParallel(k, flatEstimateWork(ix)) {
		return sumIndexParallel(ix, &t, kern, p), nil
	}
	total := 0.0
	var term [1]float64
	for i := 0; i < k; i++ {
		keys, ranks, n := ix.Node(i)
		t.terms(kern, keys, ranks, n, p, term[:])
		total += term[0]
	}
	return total, nil
}

// sumIndexParallel evaluates a one-query tile against every node over
// the worker pool with pooled scratch, reducing in node-index order so
// the sum is bit-identical to the sequential loop.
func sumIndexParallel(ix *index.Index, t *keyTile, kern flatKernel, p float64) float64 {
	k := ix.Nodes()
	sp := getScratch(k)
	per := *sp
	workers := runtime.GOMAXPROCS(0)
	if workers > k {
		workers = k
	}
	chunk := (k + workers - 1) / workers
	// The workers share a copy, so the sequential path keeps its tile
	// on the caller's stack.
	shared := *t
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > k {
			hi = k
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				keys, ranks, n := ix.Node(i)
				shared.terms(kern, keys, ranks, n, p, per[i:i+1])
			}
		}(lo, hi)
	}
	wg.Wait()
	total := 0.0
	for _, est := range per {
		total += est
	}
	putScratch(sp)
	return total
}

// --- batched, tiled evaluation ---------------------------------------------

// Batch tiling parameters. The tile grid depends only on (k, m), never
// on GOMAXPROCS, so which worker computes which tile cannot affect the
// result: every per-node term lands in its own scratch cell and the
// final reduction always adds them in node-index order.
const (
	// nodeTile × queryTile binary-search evaluations form one work unit
	// (~a few µs) — coarse enough to amortize handoff, fine enough to
	// balance across workers. nodeTile keeps a node-chunk's key
	// columns hot in cache while the query chunk sweeps over them;
	// queryTile is also the width of one lockstep search tile.
	nodeTile  = 64
	queryTile = 16
	// maxScratchFloats caps the k×m scratch block at 16 MiB; larger
	// batches are processed in deterministic query blocks.
	maxScratchFloats = 1 << 21
)

// scratchPool recycles the per-batch scratch blocks (and the parallel
// single-query per-node buffers) so steady-state batch evaluation
// allocates nothing proportional to k×m.
var scratchPool = sync.Pool{New: func() any { return new([]float64) }}

func getScratch(n int) *[]float64 {
	sp := scratchPool.Get().(*[]float64)
	if cap(*sp) < n {
		*sp = make([]float64, n)
	}
	*sp = (*sp)[:n]
	return sp
}

func putScratch(sp *[]float64) { scratchPool.Put(sp) }

// flatKernel selects which estimator a batch evaluates; a closed enum
// keeps the tile inner loops free of indirect calls through closures.
type flatKernel int

const (
	kernelRank flatKernel = iota
	kernelBasic
)

// EstimateIndexBatch evaluates every query against the index and writes
// the global estimates into out (len(out) must equal len(queries)).
// Work is tiled (node-chunk × query-chunk) across the worker pool with
// per-worker tiles writing disjoint cells of a pooled scratch block;
// out[i] is bit-identical to EstimateIndex(ix, queries[i]) — and hence
// to the SampleSet path — for any GOMAXPROCS and any scheduling.
func (r RankCounting) EstimateIndexBatch(ix *index.Index, queries []Query, out []float64) error {
	return estimateIndexBatch(ix, queries, out, kernelRank, r.P)
}

// EstimateIndexBatch is the BasicCounting form of the batched flat
// evaluation; see RankCounting.EstimateIndexBatch.
func (b BasicCounting) EstimateIndexBatch(ix *index.Index, queries []Query, out []float64) error {
	return estimateIndexBatch(ix, queries, out, kernelBasic, b.P)
}

func estimateIndexBatch(ix *index.Index, queries []Query, out []float64, kern flatKernel, p float64) error {
	if ix == nil {
		return fmt.Errorf("estimator: nil sample index")
	}
	if len(out) != len(queries) {
		return fmt.Errorf("estimator: batch out length %d != %d queries", len(out), len(queries))
	}
	if p <= 0 || p > 1 {
		return fmt.Errorf("estimator: sampling probability %v outside (0, 1]", p)
	}
	for i, q := range queries {
		if err := q.Validate(); err != nil {
			return fmt.Errorf("estimator: batch query %d: %w", i, err)
		}
	}
	k := ix.Nodes()
	if k == 0 {
		for i := range out {
			out[i] = 0
		}
		return nil
	}
	// Query blocking bounds scratch memory; the block size depends only
	// on k, so results stay deterministic.
	block := len(queries)
	if k*block > maxScratchFloats {
		block = maxScratchFloats / k
		if block < 1 {
			block = 1
		}
	}
	for q0 := 0; q0 < len(queries); q0 += block {
		q1 := q0 + block
		if q1 > len(queries) {
			q1 = len(queries)
		}
		batchBlock(ix, queries[q0:q1], out[q0:q1], kern, p)
	}
	return nil
}

// batchBlock evaluates one query block: tiles fill scratch[node*m+q],
// then a single pass reduces each query's per-node terms in node-index
// order.
func batchBlock(ix *index.Index, queries []Query, out []float64, kern flatKernel, p float64) {
	k := ix.Nodes()
	m := len(queries)
	sp := getScratch(k * m)
	scratch := *sp
	pass := tilePass{ix: ix, queries: queries, dst: scratch, kern: kern, p: p}
	pass.run(m * flatEstimateWork(ix))
	for qi := range queries {
		total := 0.0
		for node := 0; node < k; node++ {
			total += scratch[node*m+qi]
		}
		out[qi] = total
	}
	putScratch(sp)
}

// tilePass is one evaluation of the (node × query) grid: every tile
// writes the per-node terms of its nodes into dst at row(node)*m+query,
// m = len(queries), where row(node) is rows[node], or node itself when
// rows is nil. Over an index the terms come from the key kernel; with a
// nil index they come from the SampleSet estimator over sets (the
// RankCounting fallback a stale shard uses). The grid depends only on
// (k, m), never on GOMAXPROCS, and every term lands in its own cell, so
// which worker computes which tile cannot affect the result.
type tilePass struct {
	ix      *index.Index
	sets    []*sampling.SampleSet
	queries []Query
	rows    []int
	dst     []float64
	kern    flatKernel
	p       float64
}

func (tp *tilePass) nodes() int {
	if tp.ix != nil {
		return tp.ix.Nodes()
	}
	return len(tp.sets)
}

// run fills every tile, fanning out over the worker pool when work —
// the grid's sequential cost in search steps — merits it. Tiles write
// disjoint cells, so concurrent fills need no locks.
func (tp *tilePass) run(work int) {
	k, m := tp.nodes(), len(tp.queries)
	tilesN := (k + nodeTile - 1) / nodeTile
	tilesQ := (m + queryTile - 1) / queryTile
	units := tilesN * tilesQ
	workers := min(runtime.GOMAXPROCS(0), units)
	// The pool only pays off when the grid holds enough search work;
	// below the threshold (or on one P) the tiles run inline.
	if workers < 2 || !engageParallel(k, work) {
		for u := 0; u < units; u++ {
			tp.fill(u, tilesN)
		}
		return
	}
	// As in sumIndexParallel, the workers share a copy so the inline
	// path keeps its pass on the caller's stack.
	shared := *tp
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				u := int(next.Add(1)) - 1
				if u >= units {
					return
				}
				shared.fill(u, tilesN)
			}
		}()
	}
	wg.Wait()
}

// fill evaluates one (node-chunk × query-chunk) tile.
func (tp *tilePass) fill(unit, tilesN int) {
	k, m := tp.nodes(), len(tp.queries)
	nt, qt := unit%tilesN, unit/tilesN
	n0, n1 := nt*nodeTile, min((nt+1)*nodeTile, k)
	q0, q1 := qt*queryTile, min((qt+1)*queryTile, m)
	if tp.ix == nil {
		rc := RankCounting{P: tp.p}
		for j := n0; j < n1; j++ {
			row := tp.dst[tp.rows[j]*m : tp.rows[j]*m+m]
			for qi := q0; qi < q1; qi++ {
				row[qi], _ = rc.estimateNode(tp.sets[j], tp.queries[qi])
			}
		}
		return
	}
	var t keyTile
	t.load(tp.queries[q0:q1])
	for j := n0; j < n1; j++ {
		row := j
		if tp.rows != nil {
			row = tp.rows[j]
		}
		keys, ranks, n := tp.ix.Node(j)
		t.terms(tp.kern, keys, ranks, n, tp.p, tp.dst[row*m+q0:row*m+q1])
	}
}
