package estimator

import (
	"sort"
	"testing"

	"privrange/internal/dataset"
	"privrange/internal/index"
	"privrange/internal/sampling"
	"privrange/internal/stats"
)

// benchSets prepares per-node sample sets once for the hot-path benches.
// records == 0 selects the default CityPulse-scale series.
func benchSets(b *testing.B, k, records int, p float64) []*sampling.SampleSet {
	b.Helper()
	series, err := dataset.GenerateSeries(dataset.Ozone, dataset.GenerateConfig{Seed: 1, Records: records})
	if err != nil {
		b.Fatal(err)
	}
	parts, err := series.Partition(k)
	if err != nil {
		b.Fatal(err)
	}
	root := stats.NewRNG(2)
	sets := make([]*sampling.SampleSet, k)
	for i, part := range parts {
		cp := make([]float64, len(part))
		copy(cp, part)
		sort.Float64s(cp)
		set, err := sampling.Draw(cp, p, root.Child(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		sets[i] = set
	}
	return sets
}

// BenchmarkRankCountingEstimate measures one global estimate over the
// CityPulse-scale deployment (k=16, p=0.3) — the broker's inner loop.
func BenchmarkRankCountingEstimate(b *testing.B) {
	sets := benchSets(b, 16, 0, 0.3)
	rc := RankCounting{P: 0.3}
	q := Query{L: 40, U: 120}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := rc.Estimate(sets, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBasicCountingEstimate is the baseline estimator's cost on the
// same sets.
func BenchmarkBasicCountingEstimate(b *testing.B) {
	sets := benchSets(b, 16, 0, 0.3)
	bc := BasicCounting{P: 0.3}
	q := Query{L: 40, U: 120}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bc.Estimate(sets, q); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSink keeps the compiler from eliding the estimate loop.
var benchSink float64

// BenchmarkEstimateSequential is the single-threaded per-node loop over
// a 256-node deployment — the baseline the parallel path must beat.
func BenchmarkEstimateSequential(b *testing.B) {
	sets := benchSets(b, 256, 1_048_576, 0.3)
	rc := RankCounting{P: 0.3}
	q := Query{L: 40, U: 120}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		total := 0.0
		for _, set := range sets {
			est, err := rc.estimateNode(set, q)
			if err != nil {
				b.Fatal(err)
			}
			total += est
		}
		benchSink = total
	}
}

// BenchmarkEstimateParallel is the same 256-node estimate through
// Estimate's auto-gated path. This shape carries too little search work
// to amortize the pool (see TestParallelEngagement), so the work gate
// keeps it sequential and it should track BenchmarkEstimateSequential
// instead of losing to it — the recorded pre-gate regression. The
// released value is bit-identical whether or not the pool engages.
func BenchmarkEstimateParallel(b *testing.B) {
	sets := benchSets(b, 256, 1_048_576, 0.3)
	rc := RankCounting{P: 0.3}
	q := Query{L: 40, U: 120}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		est, err := rc.Estimate(sets, q)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = est
	}
}

// benchIndex builds the columnar index over the 256-node benchmark sets.
func benchIndex(b *testing.B, sets []*sampling.SampleSet) *index.Index {
	b.Helper()
	ix, err := index.Build(sets)
	if err != nil {
		b.Fatal(err)
	}
	return ix
}

// BenchmarkEstimateFlatIndex is the k=256 acceptance benchmark: the same
// estimate as BenchmarkEstimateSequential/Parallel, answered from the
// columnar index. This must beat the SampleSet path on ns/op and run
// with zero allocations per query.
func BenchmarkEstimateFlatIndex(b *testing.B) {
	sets := benchSets(b, 256, 1_048_576, 0.3)
	ix := benchIndex(b, sets)
	rc := RankCounting{P: 0.3}
	q := Query{L: 40, U: 120}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		est, err := rc.EstimateIndex(ix, q)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = est
	}
}

// BenchmarkIndexBuild prices the per-collection-round rebuild the
// network pays so that every query reads the index for free.
func BenchmarkIndexBuild(b *testing.B) {
	sets := benchSets(b, 256, 1_048_576, 0.3)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := index.Build(sets); err != nil {
			b.Fatal(err)
		}
	}
}
