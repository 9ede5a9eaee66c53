package core

import (
	"privrange/internal/estimator"
	"privrange/internal/index"
	"privrange/internal/sampling"
	"privrange/internal/shard"
	"privrange/internal/telemetry"
)

// snapshot is one immutable, atomically consistent view of the source —
// everything a query needs once planning is done. Estimation runs
// lock-free against it: collections replace the underlying sample sets
// (and the columnar index) rather than mutating them, so a snapshot
// taken before a collection stays valid afterwards (it just describes
// the older state).
type snapshot struct {
	sets []*sampling.SampleSet
	// idx is the columnar sample index built over sets at collection
	// time, shared immutably through the snapshot. It is nil when the
	// source has no fresh index (nothing collected yet, or the sample
	// state was mutated behind the source's back); estimation then falls
	// back to the SampleSet path, which is slower but always correct —
	// both paths are property-tested bit-identical.
	idx  *index.Index
	rate float64
	// nodes is k and n is |D| at capture time.
	nodes, n int
	// version is the source's monotonic sample-state version: it moves
	// whenever any node's stored sample is rewritten, even at unchanged
	// (n, rate) — e.g. a recovered node re-reporting a redrawn sample.
	version uint64
	// coverage is the fraction of records held by reachable nodes at
	// capture time — the degradation provenance released with answers.
	coverage float64
	// views holds the per-shard estimation views when the source is a
	// ShardedSource; estimation then scatter-gathers across them (see
	// router.go) instead of running the single-index kernels. Nil for
	// single-broker sources.
	views []shard.View
	// spans, when non-nil, is the sampled request's per-shard span group:
	// the scatter path emits one span per shard under it. Nil (the
	// default, and always for unsampled requests) is inert. It is set by
	// the engine wrappers just before estimation and never captured —
	// snapshot identity (the cache key fields above) ignores it.
	spans *telemetry.SpanGroup
}

// snapshotLocked captures the source state. Callers must hold e.mu in
// either mode (read for queries, write during collection).
func (e *Engine) snapshotLocked() snapshot {
	var s snapshot
	if ss, ok := e.src.(ShardedSource); ok {
		cs := ss.ShardSnapshot()
		s.sets, s.rate, s.nodes, s.n = cs.Sets, cs.Rate, cs.Nodes, cs.N
		s.version, s.coverage = cs.Version, cs.Coverage
		s.views = cs.Views
		return s
	}
	s.sets, s.idx, s.rate, s.nodes, s.n, s.version, s.coverage = e.src.Snapshot()
	return s
}

// readSnapshot captures the source state under the engine's read lock.
func (e *Engine) readSnapshot() snapshot {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.snapshotLocked()
}

// rankEstimate computes the un-noised RankCounting estimate for one
// query against a snapshot, preferring the flat columnar index (zero
// allocations, branch-free binary searches) and falling back to the
// SampleSet oracle path when no index was captured. The two paths
// return bit-identical values, so callers cannot observe which one ran.
func rankEstimate(snap snapshot, q estimator.Query) (float64, error) {
	if snap.views != nil {
		var out [1]float64
		if err := rankEstimateSharded(snap, []estimator.Query{q}, out[:]); err != nil {
			return 0, err
		}
		return out[0], nil
	}
	rc := estimator.RankCounting{P: snap.rate}
	if snap.idx != nil {
		return rc.EstimateIndex(snap.idx, q)
	}
	return rc.Estimate(snap.sets, q)
}

// rankEstimateBatch fills raws[i] with the un-noised estimate for
// queries[i], using the tiled flat-index batch kernel when the snapshot
// carries an index and the per-query fallback otherwise.
func rankEstimateBatch(snap snapshot, queries []estimator.Query, raws []float64) error {
	if snap.views != nil {
		return rankEstimateSharded(snap, queries, raws)
	}
	rc := estimator.RankCounting{P: snap.rate}
	if snap.idx != nil {
		return rc.EstimateIndexBatch(snap.idx, queries, raws)
	}
	return forEach(len(queries), func(i int) error {
		raw, err := rc.Estimate(snap.sets, queries[i])
		if err != nil {
			return err
		}
		raws[i] = raw
		return nil
	})
}
