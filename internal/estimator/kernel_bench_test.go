package estimator_test

import (
	"fmt"
	"sort"
	"testing"

	"privrange/internal/dataset"
	"privrange/internal/estimator"
	"privrange/internal/index"
	"privrange/internal/sampling"
	"privrange/internal/stats"
	"privrange/internal/workload"
)

const (
	// kernelNodes and kernelRate are the batch-ingest deployment shape:
	// 16 nodes sampled at p ≈ 0.08.
	kernelNodes = 16
	kernelRate  = 0.08
	// kernelBatchSize is the CountBatch size of batch-ingest.
	kernelBatchSize = 64
	// kernelBatches distinct batches are cycled so the branch predictor
	// cannot learn one batch's search paths: a repeated batch reads
	// several times faster on a branchy kernel than fresh batches do.
	kernelBatches = 512
)

// kernelFixture builds a 16-node index with about perNode samples per
// node over the ozone series, and kernelBatches distinct batches of
// quantile-anchored queries over the same data.
func kernelFixture(b *testing.B, perNode int) (*index.Index, [][]estimator.Query) {
	b.Helper()
	records := int(float64(kernelNodes*perNode) / kernelRate)
	series, err := dataset.GenerateSeries(dataset.Ozone, dataset.GenerateConfig{Seed: 1, Records: records})
	if err != nil {
		b.Fatal(err)
	}
	parts, err := series.Partition(kernelNodes)
	if err != nil {
		b.Fatal(err)
	}
	root := stats.NewRNG(2)
	sets := make([]*sampling.SampleSet, kernelNodes)
	for i, part := range parts {
		sorted := append([]float64(nil), part...)
		sort.Float64s(sorted)
		if sets[i], err = sampling.Draw(sorted, kernelRate, root.Child(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
	ix, err := index.Build(sets)
	if err != nil {
		b.Fatal(err)
	}
	qs, err := workload.QuantileAnchored{Values: series.Values, Seed: 3}.Queries(kernelBatches * kernelBatchSize)
	if err != nil {
		b.Fatal(err)
	}
	batches := make([][]estimator.Query, kernelBatches)
	for i := range batches {
		batches[i] = qs[i*kernelBatchSize : (i+1)*kernelBatchSize]
	}
	return ix, batches
}

// BenchmarkEstimateIndexBatch measures the tile kernel answering one
// 64-query batch per op at the batch-ingest shape (~90 samples per node)
// and at 5 000 samples per node, cycling distinct batches. ns/node-query
// is the cost of one per-node term.
func BenchmarkEstimateIndexBatch(b *testing.B) {
	for _, perNode := range []int{90, 5000} {
		b.Run(fmt.Sprintf("samples=%d", perNode), func(b *testing.B) {
			ix, batches := kernelFixture(b, perNode)
			rc := estimator.RankCounting{P: kernelRate}
			out := make([]float64, kernelBatchSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := rc.EstimateIndexBatch(ix, batches[i%kernelBatches], out); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*kernelNodes*kernelBatchSize), "ns/node-query")
		})
	}
}

// BenchmarkEstimateIndexSingle is the one-query tile the serial buy path
// takes, cycling the same distinct queries.
func BenchmarkEstimateIndexSingle(b *testing.B) {
	ix, batches := kernelFixture(b, 90)
	rc := estimator.RankCounting{P: kernelRate}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := batches[(i/kernelBatchSize)%kernelBatches][i%kernelBatchSize]
		if _, err := rc.EstimateIndex(ix, q); err != nil {
			b.Fatal(err)
		}
	}
}
