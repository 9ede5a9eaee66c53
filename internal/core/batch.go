package core

import (
	"fmt"

	"privrange/internal/dp"
	"privrange/internal/estimator"
	"privrange/internal/stats"
	"privrange/internal/telemetry"
)

// AnswerBatch serves many range queries at one shared accuracy level.
// The optimization problem depends only on (α, δ) and the deployment
// state, so the plan is solved once and reused; each released answer
// still carries fresh independent noise and spends its own ε′ (m
// releases compose sequentially — the total m·ε′ is charged up front,
// all-or-nothing). The answer cache is bypassed: batch semantics promise
// independent noise per query.
//
// Estimation runs through the snapshot's columnar index when one is
// available: the whole batch is evaluated by the tiled flat-index
// kernel (node-chunk × query-chunk work units over the worker pool,
// pooled scratch, index-order reduction), so per-query cost is a pair
// of branch-light binary searches per node and the batch allocates a
// small constant amount regardless of deployment size. Without an index
// the per-query SampleSet path fans out instead — same values either
// way.
//
// One draw from the engine's release stream keys the batch; query i
// perturbs with the independent ChaCha8 stream (batchKey, i). One
// scratch RNG is re-keyed per query (stats.RNG.Reseed: one ChaCha8
// block, no allocation), which is bit-identical to allocating
// per-query streams. The release stream sits on a lane no (batchKey, i)
// reaches, so the noise is fresh per batch yet the released values are
// bit-identical for a fixed seed and call sequence regardless of
// GOMAXPROCS or scheduling.
func (e *Engine) AnswerBatch(queries []estimator.Query, acc estimator.Accuracy) ([]*Answer, error) {
	m := e.tele.Load()
	var tr telemetry.Trace
	m.begin(&tr, "core.answer_batch")
	out, outcome, indexed, err := e.answerBatch(queries, acc, &tr)
	m.finishBatch(&tr, outcome, indexed, len(out))
	return out, err
}

// answerBatch is the pipeline behind AnswerBatch; the wrapper owns the
// stack-held trace and closes it with the reported outcome and
// estimation path.
func (e *Engine) answerBatch(queries []estimator.Query, acc estimator.Accuracy, tr *telemetry.Trace) (out []*Answer, outcome string, indexed bool, err error) {
	if len(queries) == 0 {
		return nil, outcomeInvalid, false, fmt.Errorf("core: empty batch")
	}
	for i, q := range queries {
		if err := q.Validate(); err != nil {
			return nil, outcomeInvalid, false, fmt.Errorf("core: batch query %d: %w", i, err)
		}
	}
	snap := e.readSnapshot()
	tr.Mark("sample_lookup")
	plan, snap, err := e.planFor(acc, snap)
	tr.Mark("optimize")
	if err != nil {
		return nil, outcomeError, false, err
	}
	indexed = snap.idx != nil
	mech, err := dp.NewMechanism(plan.Epsilon, plan.Sensitivity)
	if err != nil {
		return nil, outcomeError, indexed, err
	}
	// Estimate first, commit second: the batch must not spend budget or
	// advance the noise stream until it can no longer fail. Charging
	// before estimation would burn m·ε′ (and a noise key) on a batch the
	// caller never received — and shift every later answer's noise.
	raws := make([]float64, len(queries))
	if err := rankEstimateBatch(snap, queries, raws); err != nil {
		return nil, outcomeError, indexed, err
	}
	tr.Mark("estimate")
	e.releaseMu.Lock()
	if e.accountant != nil {
		if err := e.accountant.Spend(plan.EpsilonPrime * float64(len(queries))); err != nil {
			e.releaseMu.Unlock()
			return nil, outcomeError, indexed, err
		}
	}
	batchKey := e.rng.Int63()
	e.releaseMu.Unlock()
	// Perturbation is cheap relative to estimation, so it stays on the
	// calling goroutine: one backing array for all answers, one scratch
	// RNG re-keyed to stream (batchKey, i) per query.
	answers := make([]Answer, len(queries))
	out = make([]*Answer, len(queries))
	noise := stats.NewStream(batchKey, 0)
	for i := range queries {
		noise.Reseed(batchKey, int64(i))
		answers[i] = Answer{
			Query:             queries[i],
			Accuracy:          acc,
			Value:             mech.Perturb(raws[i], noise),
			Plan:              plan,
			Rate:              snap.rate,
			Nodes:             snap.nodes,
			N:                 snap.n,
			Coverage:          snap.coverage,
			CollectionVersion: snap.version,
		}
		out[i] = &answers[i]
	}
	tr.Mark("perturb")
	if snap.coverage < 1 {
		return out, outcomeDegraded, indexed, nil
	}
	return out, outcomeOK, indexed, nil
}
