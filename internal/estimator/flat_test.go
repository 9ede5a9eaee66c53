package estimator

import (
	"math"
	"runtime"
	"sort"
	"testing"

	"privrange/internal/index"
	"privrange/internal/sampling"
	"privrange/internal/stats"
)

// randomSets draws k random node datasets (integer-valued, heavy
// duplicates) Bernoulli-sampled at rate p — the adversarial shape for
// rank semantics, since predecessor/successor strictness only matters
// under ties.
func randomSets(t testing.TB, rng *stats.RNG, k, maxN int, p float64) []*sampling.SampleSet {
	t.Helper()
	sets := make([]*sampling.SampleSet, k)
	for i := range sets {
		n := rng.Intn(maxN + 1)
		data := make([]float64, n)
		for j := range data {
			data[j] = float64(rng.Intn(40))
		}
		sort.Float64s(data)
		set, err := sampling.Draw(data, p, rng.Child(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		sets[i] = set
	}
	return sets
}

// randomQueries generates ranges that straddle, miss, cover and touch
// the sampled domain, including degenerate single-point queries.
func randomQueries(rng *stats.RNG, m int) []Query {
	qs := make([]Query, m)
	for i := range qs {
		switch rng.Intn(5) {
		case 0: // full cover
			qs[i] = Query{L: -10, U: 100}
		case 1: // empty, below the domain
			qs[i] = Query{L: -50, U: -40}
		case 2: // single point, likely on a duplicated value
			v := float64(rng.Intn(40))
			qs[i] = Query{L: v, U: v}
		case 3: // half-open into the domain
			qs[i] = Query{L: float64(rng.Intn(40)), U: 100}
		default:
			l := float64(rng.Intn(40)) - 0.5
			qs[i] = Query{L: l, U: l + float64(rng.Intn(30))}
		}
	}
	return qs
}

// edgeValues is the value pool of the edge-case generators: both
// infinities, the extremes of the finite range, both zeros, subnormals,
// and small negative and positive values — every region of the key
// mapping (index.OrderKey), including its negative half.
var edgeValues = []float64{
	math.Inf(-1), -math.MaxFloat64, -1e308, -1e3, -2.5, -1, -0x1p-1022,
	-2 * math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.Copysign(0, -1), 0,
	math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64, 0x1p-1022, 1, 2.5, 1e3, 1e308,
	math.MaxFloat64, math.Inf(1),
}

// edgeValue draws from edgeValues half the time and otherwise a small
// integer in [-20, 20), so ties, negatives and edges mix in one node.
func edgeValue(rng *stats.RNG) float64 {
	if rng.Intn(2) == 0 {
		return edgeValues[rng.Intn(len(edgeValues))]
	}
	return float64(rng.Intn(40) - 20)
}

// edgeSets is randomSets over edgeValue readings; about one node in
// four holds no data at all.
func edgeSets(t testing.TB, rng *stats.RNG, k, maxN int, p float64) []*sampling.SampleSet {
	t.Helper()
	sets := make([]*sampling.SampleSet, k)
	for i := range sets {
		n := rng.Intn(maxN + 1)
		if rng.Intn(4) == 0 {
			n = 0
		}
		data := make([]float64, n)
		for j := range data {
			data[j] = edgeValue(rng)
		}
		sort.Float64s(data)
		set, err := sampling.Draw(data, p, rng.Child(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		sets[i] = set
	}
	return sets
}

// edgeQueries draws both endpoints with edgeValue (nudged by ±0.5 a
// third of the time, so some fall between samples) and orders them;
// the first queries pin the zero and infinity corners explicitly.
func edgeQueries(rng *stats.RNG, m int) []Query {
	negZero := math.Copysign(0, -1)
	corners := []Query{
		{L: negZero, U: 0}, {L: 0, U: negZero}, {L: negZero, U: negZero},
		{L: math.Inf(-1), U: math.Inf(1)}, {L: math.Inf(-1), U: math.Inf(-1)},
		{L: math.Inf(1), U: math.Inf(1)}, {L: math.Inf(-1), U: negZero},
		{L: 0, U: math.Inf(1)},
	}
	qs := make([]Query, m)
	for i := range qs {
		if i < len(corners) && rng.Intn(2) == 0 {
			qs[i] = corners[i]
			continue
		}
		a, b := edgeValue(rng), edgeValue(rng)
		if rng.Intn(3) == 0 {
			a += 0.5
			b -= 0.5
		}
		if a > b {
			a, b = b, a
		}
		qs[i] = Query{L: a, U: b}
	}
	return qs
}

// kernelBatchSizes are the batch sizes the differential tests sweep:
// one query, and sizes that are not multiples of queryTile.
var kernelBatchSizes = []int{1, 15, 17, 64, 100}

// generators pairs each set generator with its query generator: the
// integer workload (heavy duplicates on one sign) and the edge-case
// workload.
var generators = []struct {
	name    string
	sets    func(testing.TB, *stats.RNG, int, int, float64) []*sampling.SampleSet
	queries func(*stats.RNG, int) []Query
}{
	{"integers", randomSets, randomQueries},
	{"edges", edgeSets, edgeQueries},
}

// TestFlatEstimatorsBitIdentical is the differential property test the
// acceptance criteria require: across random datasets, rates and query
// ranges, the flat-index estimators must return bit-identical results
// to the SampleSet-path estimators — the SampleSet path is the
// correctness oracle, so any divergence, even in the last ulp, is a
// flat-kernel bug.
func TestFlatEstimatorsBitIdentical(t *testing.T) {
	t.Parallel()
	rng := stats.NewRNG(1234)
	for trial := 0; trial < 120; trial++ {
		gen := generators[trial%len(generators)]
		k := 1 + rng.Intn(40)
		p := 0.05 + 0.95*rng.Float64()
		sets := gen.sets(t, rng, k, 300, p)
		ix, err := index.Build(sets)
		if err != nil {
			t.Fatal(err)
		}
		rc := RankCounting{P: p}
		bc := BasicCounting{P: p}
		m := 25
		if trial%4 >= 2 {
			m = kernelBatchSizes[(trial/4)%len(kernelBatchSizes)]
		}
		queries := gen.queries(rng, m)
		rankFlat := make([]float64, len(queries))
		basicFlat := make([]float64, len(queries))
		if err := rc.EstimateIndexBatch(ix, queries, rankFlat); err != nil {
			t.Fatal(err)
		}
		if err := bc.EstimateIndexBatch(ix, queries, basicFlat); err != nil {
			t.Fatal(err)
		}
		for qi, q := range queries {
			oracle, err := rc.Estimate(sets, q)
			if err != nil {
				t.Fatal(err)
			}
			single, err := rc.EstimateIndex(ix, q)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(single) != math.Float64bits(oracle) {
				t.Fatalf("trial %d (%s) query %v: RankCounting flat %v != oracle %v",
					trial, gen.name, q, single, oracle)
			}
			if math.Float64bits(rankFlat[qi]) != math.Float64bits(oracle) {
				t.Fatalf("trial %d (%s) query %v: RankCounting batch %v != oracle %v",
					trial, gen.name, q, rankFlat[qi], oracle)
			}
			boracle, err := bc.Estimate(sets, q)
			if err != nil {
				t.Fatal(err)
			}
			bsingle, err := bc.EstimateIndex(ix, q)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(bsingle) != math.Float64bits(boracle) {
				t.Fatalf("trial %d (%s) query %v: BasicCounting flat %v != oracle %v",
					trial, gen.name, q, bsingle, boracle)
			}
			if math.Float64bits(basicFlat[qi]) != math.Float64bits(boracle) {
				t.Fatalf("trial %d (%s) query %v: BasicCounting batch %v != oracle %v",
					trial, gen.name, q, basicFlat[qi], boracle)
			}
		}
	}
}

// TestSumIndexParallelBitIdentical forces the pooled parallel reduction
// (which the work gate would skip for test-sized inputs) and checks it
// still matches the sequential flat sum bit-for-bit.
func TestSumIndexParallelBitIdentical(t *testing.T) {
	t.Parallel()
	rng := stats.NewRNG(99)
	for _, gen := range generators {
		sets := gen.sets(t, rng, 67, 200, 0.5)
		ix, err := index.Build(sets)
		if err != nil {
			t.Fatal(err)
		}
		for _, kern := range []flatKernel{kernelRank, kernelBasic} {
			for _, q := range gen.queries(rng, 10) {
				var tile keyTile
				tile.load([]Query{q})
				seq := 0.0
				var term [1]float64
				for i := 0; i < ix.Nodes(); i++ {
					keys, ranks, n := ix.Node(i)
					tile.terms(kern, keys, ranks, n, 0.5, term[:])
					seq += term[0]
				}
				par := sumIndexParallel(ix, &tile, kern, 0.5)
				if math.Float64bits(par) != math.Float64bits(seq) {
					t.Fatalf("%s kernel %d query %v: parallel %v != sequential %v", gen.name, kern, q, par, seq)
				}
			}
		}
	}
}

// TestEstimateIndexBatchDeterministicAcrossGOMAXPROCS sweeps worker
// counts over the tiled batch path (sized so the pool actually engages
// at >= 2 procs) and requires bit-identical outputs: the tile grid and
// the scratch reduction depend only on (k, m), never on scheduling.
// Run under -race this also proves the disjoint-tile writes are clean.
func TestEstimateIndexBatchDeterministicAcrossGOMAXPROCS(t *testing.T) {
	rng := stats.NewRNG(4321)
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, gen := range generators {
		sets := gen.sets(t, rng, 150, 400, 0.6)
		ix, err := index.Build(sets)
		if err != nil {
			t.Fatal(err)
		}
		queries := gen.queries(rng, 75)
		rc := RankCounting{P: 0.6}
		var baseline []float64
		for _, procs := range []int{1, 2, 3, 4, 8} {
			runtime.GOMAXPROCS(procs)
			for rep := 0; rep < 3; rep++ {
				out := make([]float64, len(queries))
				if err := rc.EstimateIndexBatch(ix, queries, out); err != nil {
					t.Fatal(err)
				}
				if baseline == nil {
					baseline = out
					continue
				}
				for i := range out {
					if math.Float64bits(out[i]) != math.Float64bits(baseline[i]) {
						t.Fatalf("%s procs=%d rep=%d query %d: %v != baseline %v",
							gen.name, procs, rep, i, out[i], baseline[i])
					}
				}
			}
		}
		// The pooled run must also match the SampleSet oracle.
		for i, q := range queries {
			oracle, err := rc.Estimate(sets, q)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(baseline[i]) != math.Float64bits(oracle) {
				t.Fatalf("%s query %v: batch %v != oracle %v", gen.name, q, baseline[i], oracle)
			}
		}
	}
}

// TestEstimateIndexBatchValidation covers the batch API's error paths.
func TestEstimateIndexBatchValidation(t *testing.T) {
	t.Parallel()
	rng := stats.NewRNG(5)
	sets := randomSets(t, rng, 3, 50, 0.5)
	ix, err := index.Build(sets)
	if err != nil {
		t.Fatal(err)
	}
	rc := RankCounting{P: 0.5}
	qs := []Query{{L: 0, U: 1}}
	if err := rc.EstimateIndexBatch(nil, qs, make([]float64, 1)); err == nil {
		t.Error("nil index should fail")
	}
	if err := rc.EstimateIndexBatch(ix, qs, make([]float64, 2)); err == nil {
		t.Error("out length mismatch should fail")
	}
	if err := (RankCounting{P: 0}).EstimateIndexBatch(ix, qs, make([]float64, 1)); err == nil {
		t.Error("invalid rate should fail")
	}
	if err := rc.EstimateIndexBatch(ix, []Query{{L: 2, U: 1}}, make([]float64, 1)); err == nil {
		t.Error("inverted query should fail")
	}
	if _, err := rc.EstimateIndex(nil, qs[0]); err == nil {
		t.Error("nil index should fail single-query path")
	}
	// An empty index answers zero for every query.
	empty, err := index.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	out := []float64{7}
	if err := rc.EstimateIndexBatch(empty, qs, out); err != nil {
		t.Fatal(err)
	}
	if out[0] != 0 {
		t.Errorf("empty index estimate = %v, want 0", out[0])
	}
}

// TestParallelEngagement pins the fix for the recorded
// parallel-slower-than-sequential regression: the bench-concurrency
// baseline shape (k=256 nodes, ~1.2k samples each — where the pool
// measurably lost to the sequential loop) must stay sequential, while
// deployments with real search volume still fan out.
func TestParallelEngagement(t *testing.T) {
	t.Parallel()
	// The exact shape of BenchmarkEstimateSequential/Parallel: 256 nodes,
	// 1_048_576 records at p=0.3 => ~1229 samples per node.
	regression := estimateWork(256, 256*1229)
	if engageParallel(256, regression) {
		t.Fatalf("k=256/%d-unit estimate must stay sequential (the recorded regression)", regression)
	}
	if regression >= parallelMinWork {
		t.Fatalf("work score %d for the regression shape crossed the %d threshold", regression, parallelMinWork)
	}
	// Small deployments never fan out regardless of work.
	if engageParallel(parallelMinSets-1, parallelMinWork*10) {
		t.Error("below parallelMinSets the pool must never engage")
	}
	// A deployment with two orders of magnitude more search work crosses
	// the threshold (the pool itself still requires >= 2 procs).
	big := estimateWork(4096, 4096*1200)
	if big < parallelMinWork {
		t.Fatalf("work score %d for a 4096-node deployment should cross the %d threshold", big, parallelMinWork)
	}
	if runtime.GOMAXPROCS(0) >= 2 && !engageParallel(4096, big) {
		t.Error("large deployments should still engage the pool")
	}
	// The score is monotone in both node count and sample volume.
	if estimateWork(64, 64*100) >= estimateWork(64, 64*100000) {
		t.Error("work score must grow with per-node sample size")
	}
	if estimateWork(64, 64*100) >= estimateWork(1024, 1024*100) {
		t.Error("work score must grow with node count")
	}
}
