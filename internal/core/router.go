package core

import (
	"fmt"
	"sync"

	"privrange/internal/estimator"
	"privrange/internal/shard"
	"privrange/internal/telemetry"
)

// ShardedSource is a Source that is actually a fleet of broker shards.
// The engine detects it at snapshot time and routes estimation through
// the scatter-gather path below instead of the single-index kernels;
// everything else — planning, budget accounting, noise, caching — is
// identical, so a sharded deployment still pays exactly one noise draw
// and one accountant charge per released answer.
type ShardedSource interface {
	Source
	// ShardSnapshot returns one atomically consistent cross-shard view:
	// the composed sample sets plus the per-shard estimation views.
	ShardSnapshot() shard.Snapshot
}

// routerMaxScratchFloats caps the rows×m scatter table at 16 MiB, the
// same ceiling the single-index batch kernel applies to its k×m block;
// larger batches are processed in deterministic query blocks.
const routerMaxScratchFloats = 1 << 21

// routerScratchPool recycles scatter tables so steady-state sharded
// batches allocate nothing proportional to rows×m.
var routerScratchPool = sync.Pool{New: func() any { return new([]float64) }}

// rankEstimateSharded fills out[i] with the un-noised RankCounting
// estimate for queries[i] by scatter-gathering across the snapshot's
// shard views: every shard writes its raw per-node terms into a shared
// (rows × m) table at its nodes' global rows, then each query's column
// is reduced in row order. Row order is global node-id order — the
// exact reduction order of the unsharded kernels — so the results are
// bit-identical to a single-broker engine over the same fleet, for any
// shard count and any GOMAXPROCS.
func rankEstimateSharded(snap snapshot, queries []estimator.Query, out []float64) error {
	if len(out) != len(queries) {
		return fmt.Errorf("core: sharded batch out length %d != %d queries", len(out), len(queries))
	}
	rows := len(snap.sets)
	if rows == 0 {
		for i := range out {
			out[i] = 0
		}
		return nil
	}
	rc := estimator.RankCounting{P: snap.rate}
	// Query blocking bounds scratch memory; the block size depends only
	// on the fleet size, never on scheduling, so results stay
	// deterministic.
	block := len(queries)
	if rows*block > routerMaxScratchFloats {
		block = routerMaxScratchFloats / rows
		if block < 1 {
			block = 1
		}
	}
	sp := routerScratchPool.Get().(*[]float64)
	defer routerScratchPool.Put(sp)
	for q0 := 0; q0 < len(queries); q0 += block {
		q1 := q0 + block
		if q1 > len(queries) {
			q1 = len(queries)
		}
		if err := scatterBlock(snap.views, rc, queries[q0:q1], rows, sp, out[q0:q1], snap.spans); err != nil {
			return err
		}
	}
	return nil
}

// scatterBlock evaluates one query block: every shard view scatters its
// per-node terms into the rows×m table concurrently (views own disjoint
// rows, so no locks), then a single pass reduces each query's column in
// row order. Errors are kept per shard and the first by shard order is
// returned, whichever shard finished first. spans, when non-nil,
// records one span per shard (the clock reads live inside the telemetry
// package; a nil group costs two nil checks per shard and never
// perturbs determinism — span emission observes the scatter, it does
// not order it).
func scatterBlock(views []shard.View, rc estimator.RankCounting, queries []estimator.Query, rows int, sp *[]float64, out []float64, spans *telemetry.SpanGroup) error {
	m := len(queries)
	if cap(*sp) < rows*m {
		*sp = make([]float64, rows*m)
	}
	scratch := (*sp)[:rows*m]
	errs := make([]error, len(views))
	active := 0
	for _, v := range views {
		if len(v.Sets) > 0 {
			active++
		}
	}
	scatterView := func(s int) {
		start := spans.StartShard()
		v := views[s]
		if v.Idx != nil {
			errs[s] = rc.EstimateIndexScatter(v.Idx, queries, v.Rows, scratch)
		} else {
			errs[s] = rc.EstimateScatter(v.Sets, queries, v.Rows, scratch)
		}
		spans.EndShard(s, start)
	}
	// One goroutine per shard but the last active one, which runs on the
	// caller: shards are coarse units (each fans its own tiles out when
	// the work merits it), S is small, and a fresh goroutine would grow
	// its stack into the kernel frame on every batch.
	var wg sync.WaitGroup
	for s, v := range views {
		if len(v.Sets) == 0 {
			continue
		}
		if active--; active == 0 {
			scatterView(s)
			break
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			scatterView(s)
		}(s)
	}
	wg.Wait()
	// First error by shard order, so error selection is deterministic.
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for qi := range queries {
		total := 0.0
		for row := 0; row < rows; row++ {
			total += scratch[row*m+qi]
		}
		out[qi] = total
	}
	return nil
}
