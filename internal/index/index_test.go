package index

import (
	"math"
	"sort"
	"testing"

	"privrange/internal/sampling"
	"privrange/internal/stats"
)

// drawSets builds k random sorted node datasets and Bernoulli-samples
// each, giving realistic rank-annotated inputs.
func drawSets(t *testing.T, rng *stats.RNG, k, maxN int, p float64) []*sampling.SampleSet {
	t.Helper()
	sets := make([]*sampling.SampleSet, k)
	for i := range sets {
		n := rng.Intn(maxN + 1)
		data := make([]float64, n)
		for j := range data {
			data[j] = float64(rng.Intn(60)) // heavy duplicates on purpose
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

func TestBuildRoundTrips(t *testing.T) {
	t.Parallel()
	rng := stats.NewRNG(7)
	sets := drawSets(t, rng, 9, 200, 0.4)
	ix, err := Build(sets)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Nodes() != len(sets) {
		t.Fatalf("Nodes() = %d, want %d", ix.Nodes(), len(sets))
	}
	wantSamples, wantN := 0, 0
	for i, set := range sets {
		wantSamples += len(set.Samples)
		wantN += set.N
		if ix.NodeN(i) != set.N {
			t.Errorf("node %d: NodeN = %d, want %d", i, ix.NodeN(i), set.N)
		}
		keys, ranks, n := ix.Node(i)
		if n != set.N {
			t.Errorf("node %d: Node n = %d, want %d", i, n, set.N)
		}
		if len(keys) != len(set.Samples) || len(ranks) != len(set.Samples) {
			t.Fatalf("node %d: columns %d/%d, want %d", i, len(keys), len(ranks), len(set.Samples))
		}
		for j, s := range set.Samples {
			if keys[j] != OrderKey(s.Value) || int(ranks[j]) != s.Rank {
				t.Fatalf("node %d sample %d: (%#x,%d) != (%v,%d)",
					i, j, keys[j], ranks[j], s.Value, s.Rank)
			}
		}
	}
	if ix.Samples() != wantSamples {
		t.Errorf("Samples() = %d, want %d", ix.Samples(), wantSamples)
	}
	if ix.TotalN() != wantN {
		t.Errorf("TotalN() = %d, want %d", ix.TotalN(), wantN)
	}
	if got, want := ix.MemoryBytes(), 12*wantSamples+4*(len(sets)+1)+4*len(sets); got != want {
		t.Errorf("MemoryBytes() = %d, want %d", got, want)
	}
}

func TestBuildEmpty(t *testing.T) {
	t.Parallel()
	ix, err := Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Nodes() != 0 || ix.Samples() != 0 || ix.TotalN() != 0 {
		t.Errorf("empty index not empty: %d nodes, %d samples, %d records",
			ix.Nodes(), ix.Samples(), ix.TotalN())
	}
	// A node with no samples still records its dataset size.
	ix, err = Build([]*sampling.SampleSet{{N: 42}})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Nodes() != 1 || ix.NodeN(0) != 42 || ix.Samples() != 0 {
		t.Errorf("sampleless node mis-indexed: nodes=%d n=%d samples=%d",
			ix.Nodes(), ix.NodeN(0), ix.Samples())
	}
}

func TestBuildRejectsCorruptSets(t *testing.T) {
	t.Parallel()
	cases := map[string][]*sampling.SampleSet{
		"nil set": {nil},
		"rank zero": {{N: 5, Samples: []sampling.Sample{
			{Value: 1, Rank: 0}}}},
		"rank beyond n": {{N: 2, Samples: []sampling.Sample{
			{Value: 1, Rank: 3}}}},
		"ranks not increasing": {{N: 5, Samples: []sampling.Sample{
			{Value: 1, Rank: 2}, {Value: 2, Rank: 2}}}},
		"values decreasing": {{N: 5, Samples: []sampling.Sample{
			{Value: 2, Rank: 1}, {Value: 1, Rank: 2}}}},
		"NaN value": {{N: 5, Samples: []sampling.Sample{
			{Value: 1, Rank: 1}, {Value: math.NaN(), Rank: 2}}}},
		"NaN first value": {{N: 5, Samples: []sampling.Sample{
			{Value: math.NaN(), Rank: 1}}}},
		"n outside int32": {{N: math.MaxInt32 + 1}},
		"negative n":      {{N: -1}},
	}
	for name, sets := range cases {
		if _, err := Build(sets); err == nil {
			t.Errorf("%s: Build accepted corrupt input", name)
		}
	}
}

// TestIndexIsACopy pins the immutability contract: mutating the source
// sets after Build must not reach the index.
func TestIndexIsACopy(t *testing.T) {
	t.Parallel()
	set := &sampling.SampleSet{N: 3, Samples: []sampling.Sample{
		{Value: 1, Rank: 1}, {Value: 2, Rank: 3},
	}}
	ix, err := Build([]*sampling.SampleSet{set})
	if err != nil {
		t.Fatal(err)
	}
	set.Samples[0].Value = 99
	keys, ranks, _ := ix.Node(0)
	if keys[0] != OrderKey(1) || ranks[0] != 1 {
		t.Errorf("index aliases its input: keys[0]=%#x ranks[0]=%d", keys[0], ranks[0])
	}
}

// orderKeyEdgeValues is every float class the key mapping must order:
// both infinities, the extremes of the finite range, normal values on
// both sides of zero, the subnormals next to zero, and both zeros.
var orderKeyEdgeValues = []float64{
	math.Inf(-1), -math.MaxFloat64, -1e308, -1e10, -1, -math.SmallestNonzeroFloat64 * 3,
	-math.SmallestNonzeroFloat64, math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64,
	math.SmallestNonzeroFloat64 * 3, 0x1p-1022, 1, 1.5, 1e10, 1e308, math.MaxFloat64, math.Inf(1),
}

// TestOrderKeyMonotone pins the key mapping's contract: for every pair
// of non-NaN values, the unsigned key order is the float order
// (strictly, and with equality exactly when the floats compare equal),
// so −0 and +0 share one key, and OrderKey(+Inf)+1 does not wrap.
func TestOrderKeyMonotone(t *testing.T) {
	t.Parallel()
	vals := orderKeyEdgeValues
	for _, a := range vals {
		for _, b := range vals {
			ka, kb := OrderKey(a), OrderKey(b)
			if (a < b) != (ka < kb) || (a == b) != (ka == kb) {
				t.Errorf("OrderKey(%v)=%#x vs OrderKey(%v)=%#x disagrees with float order", a, ka, b, kb)
			}
		}
	}
	if OrderKey(math.Copysign(0, -1)) != OrderKey(0) {
		t.Errorf("−0 key %#x != +0 key %#x", OrderKey(math.Copysign(0, -1)), OrderKey(0))
	}
	if top := OrderKey(math.Inf(1)); top+1 <= top {
		t.Errorf("OrderKey(+Inf)+1 wraps: %#x", top)
	}
	rng := stats.NewRNG(11)
	for i := 0; i < 10000; i++ {
		a := math.Float64frombits(uint64(rng.Int63()) | uint64(rng.Intn(2))<<63)
		b := math.Float64frombits(uint64(rng.Int63()) | uint64(rng.Intn(2))<<63)
		if math.IsNaN(a) || math.IsNaN(b) {
			continue
		}
		if (a < b) != (OrderKey(a) < OrderKey(b)) || (a == b) != (OrderKey(a) == OrderKey(b)) {
			t.Fatalf("random pair %v, %v: key order disagrees", a, b)
		}
	}
}

// TestBuildFoldsNegativeZero checks that a node whose samples mix −0
// and +0 builds (they compare equal, so the column is non-decreasing)
// and stores one key for both.
func TestBuildFoldsNegativeZero(t *testing.T) {
	t.Parallel()
	negZero := math.Copysign(0, -1)
	ix, err := Build([]*sampling.SampleSet{{N: 3, Samples: []sampling.Sample{
		{Value: 0, Rank: 1}, {Value: negZero, Rank: 2}, {Value: 0, Rank: 3},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	keys, _, _ := ix.Node(0)
	for j, k := range keys {
		if k != OrderKey(0) {
			t.Errorf("sample %d key %#x, want the +0 key %#x", j, k, OrderKey(0))
		}
	}
}
