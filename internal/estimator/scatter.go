package estimator

import (
	"fmt"

	"privrange/internal/index"
	"privrange/internal/sampling"
)

// This file holds the scatter forms of the batched estimators, built for
// sharded deployments. A shard cannot return per-query partial sums:
// float addition is not associative, so summing per-shard partials would
// break the engine's bit-identity guarantee the moment nodes of
// different shards interleave in global id order. Instead each shard
// scatters its raw per-node terms into the caller's global (rows × m)
// table at the nodes' global rows, and the caller reduces every query's
// column in row order — exactly the node-index-order reduction the
// single-broker batch path performs, so the final estimates match it
// bit-for-bit for any shard count.

// validateScatter checks the preconditions shared by both scatter forms.
// k is the local node count; dst must hold whole rows of stride m and
// every rows[j] must address one of them.
func validateScatter(k int, queries []Query, rows []int, dst []float64, p float64) error {
	if p <= 0 || p > 1 {
		return fmt.Errorf("estimator: sampling probability %v outside (0, 1]", p)
	}
	for i, q := range queries {
		if err := q.Validate(); err != nil {
			return fmt.Errorf("estimator: scatter query %d: %w", i, err)
		}
	}
	if len(rows) != k {
		return fmt.Errorf("estimator: scatter rows length %d != %d nodes", len(rows), k)
	}
	m := len(queries)
	if m == 0 {
		return fmt.Errorf("estimator: scatter with no queries")
	}
	if len(dst)%m != 0 {
		return fmt.Errorf("estimator: scatter dst length %d not a multiple of %d queries", len(dst), m)
	}
	totalRows := len(dst) / m
	for j, row := range rows {
		if row < 0 || row >= totalRows {
			return fmt.Errorf("estimator: scatter row %d for node %d outside dst's %d rows", row, j, totalRows)
		}
	}
	return nil
}

// EstimateIndexScatter evaluates every query against every node of the
// columnar index and writes the raw per-node term for (node j, query qi)
// into dst[rows[j]*m+qi], m = len(queries), with no reduction. Each term
// is bit-identical to the one EstimateIndexBatch would fold into its
// node-order sum, so a caller reducing dst rows in order reproduces the
// unsharded batch exactly. Distinct rows touch disjoint cells, so
// concurrent scatters into one dst are safe as long as their row sets
// are disjoint.
func (r RankCounting) EstimateIndexScatter(ix *index.Index, queries []Query, rows []int, dst []float64) error {
	if ix == nil {
		return fmt.Errorf("estimator: nil sample index")
	}
	if err := validateScatter(ix.Nodes(), queries, rows, dst, r.P); err != nil {
		return err
	}
	pass := tilePass{ix: ix, queries: queries, rows: rows, dst: dst, kern: kernelRank, p: r.P}
	pass.run(len(queries) * flatEstimateWork(ix))
	return nil
}

// EstimateScatter is EstimateIndexScatter over sample sets — the
// fallback a shard uses while its columnar index is stale or absent.
// Terms are bit-identical to the flat form (the key kernel mirrors
// estimateNode exactly), so mixed fresh/stale shards still compose into
// the unsharded answer.
func (r RankCounting) EstimateScatter(sets []*sampling.SampleSet, queries []Query, rows []int, dst []float64) error {
	for i, set := range sets {
		if set == nil {
			return fmt.Errorf("estimator: nil sample set for node %d", i)
		}
	}
	if err := validateScatter(len(sets), queries, rows, dst, r.P); err != nil {
		return err
	}
	pass := tilePass{sets: sets, queries: queries, rows: rows, dst: dst, kern: kernelRank, p: r.P}
	pass.run(len(queries) * setsEstimateWork(sets))
	return nil
}
