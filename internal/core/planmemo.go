package core

import (
	"math"
	"sync"

	"privrange/internal/estimator"
	"privrange/internal/optimize"
)

// planMemoCap bounds the plan memo. pricing.DefaultMenu offers 90
// accuracies, so 256 entries hold the whole menu at a couple of
// (rate, n) generations; a larger memo buys no hits on the menu and
// costs resident memory on workloads whose (α, δ) never repeat.
const planMemoCap = 256

// planKey identifies one instance of problem (3). prob compares every
// Problem field, present and future; bits adds the float fields'
// Float64bits so that equal keys mean bit-equal solver inputs (== alone
// would merge +0 and −0).
type planKey struct {
	prob optimize.Problem
	bits [4]uint64
}

func keyOf(p optimize.Problem) planKey {
	return planKey{prob: p, bits: [4]uint64{
		math.Float64bits(p.Accuracy.Alpha),
		math.Float64bits(p.Accuracy.Delta),
		math.Float64bits(p.P),
		math.Float64bits(p.Sensitivity),
	}}
}

// planMemo maps solver inputs to the plan SolveRefined returned for
// them. The solver is a pure function of its inputs, so a hit is
// exactly the plan a fresh solve would produce. Only successful plans
// are stored. When full, the memo is cleared rather than ranged over
// for a victim: the release path must not range over maps.
type planMemo struct {
	mu    sync.Mutex
	plans map[planKey]optimize.Plan
}

func (pm *planMemo) get(k planKey) (optimize.Plan, bool) {
	pm.mu.Lock()
	plan, ok := pm.plans[k]
	pm.mu.Unlock()
	return plan, ok
}

// put stores plan under k and returns how many entries it evicted to
// make room.
func (pm *planMemo) put(k planKey, plan optimize.Plan) (evicted int) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if pm.plans == nil {
		pm.plans = make(map[planKey]optimize.Plan)
	}
	if _, ok := pm.plans[k]; !ok && len(pm.plans) >= planMemoCap {
		evicted = len(pm.plans)
		clear(pm.plans)
	}
	pm.plans[k] = plan
	return evicted
}

// solveAt solves optimization problem (3) against a snapshot through the
// engine's plan memo. It reads and writes only the memo, so read-path
// callers need no engine lock.
func (e *Engine) solveAt(acc estimator.Accuracy, snap snapshot) (optimize.Plan, error) {
	prob := optimize.Problem{
		Accuracy: acc,
		P:        snap.rate,
		K:        snap.nodes,
		N:        snap.n,
	}
	if prob.P <= 0 {
		return optimize.Plan{}, optimize.ErrInfeasible
	}
	m := e.tele.Load()
	k := keyOf(prob)
	if plan, ok := e.plans.get(k); ok {
		m.notePlanMemo(true, 0)
		return plan, nil
	}
	plan, err := prob.SolveRefined()
	if err != nil {
		m.notePlanMemo(false, 0)
		return optimize.Plan{}, err
	}
	m.notePlanMemo(false, e.plans.put(k, plan))
	return plan, nil
}
