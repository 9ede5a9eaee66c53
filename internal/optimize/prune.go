package optimize

import (
	"errors"
	"fmt"
	"math"

	"privrange/internal/estimator"
)

// Branch-and-bound over the α′ grid (DESIGN.md §18). ε(α′) is the
// product of slackFactor, which rises with α′, and confidenceLog, which
// falls, so over grid points [i0, i1] no point's computed ε is below
// slackFactor(α′(i0)) · confidenceLog at α′(i1), less a float margin.
// A block whose bound already exceeds a known point's ε by skipMargin
// cannot hold the winner and is skipped; the rest is scanned point by
// point in index order with solveGrid's original loop body, so the
// winner — the first index attaining the minimum computed ε′ — and its
// bits are unchanged.
const (
	// pruneFanout is the number of children a block splits into.
	pruneFanout = 4
	// pruneLeaf is the largest block scanned point by point without
	// first being bounded.
	pruneLeaf = 4
	// pruneSeeds is the number of evenly spaced grid points whose ε
	// picks the starting point of the incumbent's descent.
	pruneSeeds = 8
	// boundRel and boundAbs lower confidenceLog at a block's last point
	// into a bound for every point in the block: they cover the few-ulp
	// rounding of the division and the Log, which may otherwise order two
	// neighbouring points against the true monotone trend.
	boundRel = 1e-12
	boundAbs = 1e-14
	// minPruneEpsPrime is the smallest incumbent ε′ that enables pruning.
	// Below it the amplification could underflow and the relative-error
	// argument behind skipMargin no longer holds.
	minPruneEpsPrime = 0x1p-1000
)

// gridSearch is one grid search in progress: the winner so far and the
// ε cut above which a block cannot hold the winner.
type gridSearch struct {
	p      *Problem
	lo, hi float64
	grid   int
	best   Plan
	found  bool
	// cut is skipMargin times the ε of a grid point whose computed ε′ is
	// finite and normal; +Inf (no point known yet) disables pruning.
	cut float64
	// evals counts grid points whose ε was computed, in the scan, the
	// bounds and the incumbent's descent alike.
	evals int
}

// alphaAt is grid point i's α′: the one expression the scan, the bounds
// and the incumbent share, so each sees the same α′ bits.
func (s *gridSearch) alphaAt(i int) float64 {
	return s.lo + (s.hi-s.lo)*float64(i)/float64(s.grid)
}

// search returns the grid winner without Tau.
func (s *gridSearch) search() (Plan, error) {
	s.cut = math.Inf(1)
	s.seed()
	if err := s.scan(1, s.grid-1); err != nil {
		return Plan{}, err
	}
	if !s.found {
		return Plan{}, fmt.Errorf("%w: empty feasible grid in (%v, %v)", ErrInfeasible, s.lo, s.hi)
	}
	return s.best, nil
}

// seed finds a low-ε grid point and, when its ε′ passes the saturation
// guard, sets the cut from it. It samples pruneSeeds evenly spaced
// points and then descends from the best by halving steps — ε is
// unimodal in practice, though correctness never depends on it: any
// feasible grid point is a valid incumbent.
func (s *gridSearch) seed() {
	n := s.grid - 1
	if n <= pruneLeaf {
		return
	}
	step := max(n/pruneSeeds, 1)
	at, eps := 0, math.Inf(1)
	for i := (step + 1) / 2; i <= n; i += step {
		if e, ok := s.epsilonAt(i); ok && e < eps {
			at, eps = i, e
		}
	}
	if at == 0 {
		return
	}
	for step /= 2; step > 0; step /= 2 {
		for _, i := range [2]int{at - step, at + step} {
			if i < 1 || i > n {
				continue
			}
			if e, ok := s.epsilonAt(i); ok && e < eps {
				at, eps = i, e
			}
		}
	}
	s.evals++
	if plan, err := s.p.baseAt(s.alphaAt(at)); err == nil {
		if plan, err = s.p.amplified(plan); err == nil {
			s.tighten(plan)
		}
	}
}

// epsilonAt is grid point i's computed ε, and false where it is
// infeasible. Unlike baseAt it builds no error.
func (s *gridSearch) epsilonAt(i int) (float64, bool) {
	s.evals++
	a := s.alphaAt(i)
	d, ok := s.deltaPrime(a)
	if !ok {
		return 0, false
	}
	return s.p.slackFactor(a) * confidenceLog(d, s.p.Accuracy.Delta), true
}

// deltaPrime is δ′ at α′, and false wherever baseAt would report the
// point infeasible.
func (s *gridSearch) deltaPrime(alphaPrime float64) (float64, bool) {
	if !(alphaPrime > 0 && alphaPrime < s.p.Accuracy.Alpha) {
		return 0, false
	}
	d, err := estimator.AchievableDelta(s.p.P, alphaPrime, s.p.K, s.p.N)
	if err != nil || !(d > s.p.Accuracy.Delta) {
		return 0, false
	}
	return d, true
}

// tighten lowers the cut to a plan's ε when the plan's ε′ is finite and
// normal. Saturation guard: where ε′ overflows to +Inf, every point
// past the cut would tie at +Inf rather than lose, and the full scan's
// tie-break — the first feasible point — could sit in a pruned block.
func (s *gridSearch) tighten(plan Plan) {
	if plan.EpsilonPrime >= minPruneEpsPrime && plan.EpsilonPrime <= math.MaxFloat64 {
		s.cut = math.Min(s.cut, plan.Epsilon*skipMargin)
	}
}

// bound is a lower bound on the computed ε of every feasible grid point
// in [i0, i1], or -Inf where none is cheap to state (i1 infeasible).
func (s *gridSearch) bound(i0, i1 int) float64 {
	s.evals++
	d, ok := s.deltaPrime(s.alphaAt(i1))
	if !ok {
		return math.Inf(-1)
	}
	lower := confidenceLog(d, s.p.Accuracy.Delta)*(1-boundRel) - boundAbs
	return s.p.slackFactor(s.alphaAt(i0)) * lower
}

// scan visits the feasible grid points in [i0, i1] in index order,
// skipping every block whose bound exceeds the cut.
func (s *gridSearch) scan(i0, i1 int) error {
	if i1-i0 < pruneLeaf {
		for i := i0; i <= i1; i++ {
			if err := s.visit(i); err != nil {
				return err
			}
		}
		return nil
	}
	if s.bound(i0, i1) > s.cut {
		return nil
	}
	size := (i1 - i0 + pruneFanout) / pruneFanout
	for a := i0; a <= i1; a += size {
		if err := s.scan(a, min(a+size-1, i1)); err != nil {
			return err
		}
	}
	return nil
}

// visit is the exhaustive scan's loop body for grid point i.
func (s *gridSearch) visit(i int) error {
	s.evals++
	plan, err := s.p.baseAt(s.alphaAt(i))
	if err == nil && (plan.Epsilon > s.cut || s.found && !(plan.Epsilon <= s.best.Epsilon*skipMargin)) {
		// ε′ = ln(1−p+p·e^ε) is increasing in ε with elasticity ≥ 1,
		// so a point whose ε is relatively 1e-12 above the winner's —
		// or the cut's point's — has a true ε′ at least that far above,
		// far past the few-ulp error of Log1p/Expm1: its computed ε′
		// cannot win. Skipping its amplification leaves the winner's
		// bits unchanged.
		return nil
	}
	if err == nil {
		plan, err = s.p.amplified(plan)
	}
	if err != nil {
		if errors.Is(err, ErrInfeasible) {
			return nil
		}
		return err
	}
	if !s.found || plan.EpsilonPrime < s.best.EpsilonPrime {
		s.best = plan
		s.found = true
		s.tighten(plan)
	}
	return nil
}
