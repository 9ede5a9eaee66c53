package estimator

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"

	"privrange/internal/index"
	"privrange/internal/sampling"
	"privrange/internal/stats"
)

// fuzzValues decodes a byte stream into non-NaN floats. A byte below
// len(edgeValues) selects that edge value; 0xFF followed by eight bytes
// is a raw float64 bit pattern (NaN patterns become 0); any other byte
// b is the small value (b−160)/4, so short inputs produce dense ties on
// both sides of zero.
func fuzzValues(data []byte) []float64 {
	var out []float64
	for len(data) > 0 {
		b := data[0]
		data = data[1:]
		switch {
		case int(b) < len(edgeValues):
			out = append(out, edgeValues[b])
		case b == 0xFF && len(data) >= 8:
			v := math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
			if math.IsNaN(v) {
				v = 0
			}
			out = append(out, v)
		default:
			out = append(out, float64(int(b)-160)/4)
		}
	}
	return out
}

// FuzzKeyedKernel drives the keyed tile kernel with arbitrary sample
// values and queries: samples are dealt round-robin to 1–5 nodes,
// sorted and Bernoulli-sampled; queries pair up consecutive decoded
// values (at most 100, so batches cross queryTile boundaries). Every
// per-node term the kernel scatters, every batch and single-query
// estimate of both estimators, must match the SampleSet estimators bit
// for bit.
func FuzzKeyedKernel(f *testing.F) {
	negZero := make([]byte, 9)
	negZero[0] = 0xFF
	binary.LittleEndian.PutUint64(negZero[1:], math.Float64bits(math.Copysign(0, -1)))
	f.Add([]byte{160, 164, 164, 168, 200, 120}, []byte{150, 170, 164, 164}, uint8(128), uint8(2))
	f.Add([]byte{0, 1, 5, 9, 10, 11, 18, 19, 9, 10}, []byte{9, 10, 10, 9, 0, 19, 19, 19, 0, 0}, uint8(254), uint8(1))
	f.Add(append([]byte{2, 3, 160, 10}, negZero...), append([]byte{9}, negZero...), uint8(200), uint8(4))
	f.Add([]byte{}, []byte{0, 19}, uint8(10), uint8(3))
	f.Fuzz(func(t *testing.T, sampleBytes, queryBytes []byte, rate, nodes uint8) {
		k := 1 + int(nodes)%5
		p := float64(int(rate)%255+1) / 255
		parts := make([][]float64, k)
		for i, v := range fuzzValues(sampleBytes) {
			parts[i%k] = append(parts[i%k], v)
		}
		sets := make([]*sampling.SampleSet, k)
		for i, part := range parts {
			sort.Float64s(part)
			set, err := sampling.Draw(part, p, stats.NewRNG(int64(i)))
			if err != nil {
				t.Fatal(err)
			}
			sets[i] = set
		}
		ends := fuzzValues(queryBytes)
		var queries []Query
		for i := 0; i+1 < len(ends) && len(queries) < 100; i += 2 {
			l, u := ends[i], ends[i+1]
			if l > u {
				l, u = u, l
			}
			queries = append(queries, Query{L: l, U: u})
		}
		if len(queries) == 0 {
			queries = []Query{{L: math.Inf(-1), U: math.Inf(1)}}
		}
		ix, err := index.Build(sets)
		if err != nil {
			t.Fatal(err)
		}
		rc, bc := RankCounting{P: p}, BasicCounting{P: p}
		m := len(queries)
		rows := make([]int, k)
		for j := range rows {
			rows[j] = j
		}
		terms := make([]float64, k*m)
		if err := rc.EstimateIndexScatter(ix, queries, rows, terms); err != nil {
			t.Fatal(err)
		}
		rankBatch := make([]float64, m)
		basicBatch := make([]float64, m)
		if err := rc.EstimateIndexBatch(ix, queries, rankBatch); err != nil {
			t.Fatal(err)
		}
		if err := bc.EstimateIndexBatch(ix, queries, basicBatch); err != nil {
			t.Fatal(err)
		}
		same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
		for qi, q := range queries {
			for j, set := range sets {
				want, err := rc.EstimateNode(set, q)
				if err != nil {
					t.Fatal(err)
				}
				if got := terms[j*m+qi]; !same(got, want) {
					t.Fatalf("node %d query %v: kernel term %v != SampleSet %v", j, q, got, want)
				}
			}
			rankWant, err := rc.Estimate(sets, q)
			if err != nil {
				t.Fatal(err)
			}
			basicWant, err := bc.Estimate(sets, q)
			if err != nil {
				t.Fatal(err)
			}
			rankSingle, err := rc.EstimateIndex(ix, q)
			if err != nil {
				t.Fatal(err)
			}
			basicSingle, err := bc.EstimateIndex(ix, q)
			if err != nil {
				t.Fatal(err)
			}
			if !same(rankBatch[qi], rankWant) || !same(rankSingle, rankWant) {
				t.Fatalf("query %v: RankCounting batch %v single %v != SampleSet %v", q, rankBatch[qi], rankSingle, rankWant)
			}
			if !same(basicBatch[qi], basicWant) || !same(basicSingle, basicWant) {
				t.Fatalf("query %v: BasicCounting batch %v single %v != SampleSet %v", q, basicBatch[qi], basicSingle, basicWant)
			}
		}
	})
}
