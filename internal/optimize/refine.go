package optimize

import (
	"errors"
	"math"
)

// SolveRefined runs the grid search and then polishes the winner with a
// golden-section search over α′ in the bracket spanned by the winning
// grid point's neighbours. ε′(α′) is continuous and — empirically across
// the feasible interval — unimodal (it diverges at both ends: α′ → α
// leaves no noise slack, α′ → α′_min leaves no confidence slack), so the
// bracket refinement converges to the interior optimum far past grid
// resolution. The returned plan is always feasible and never worse than
// the plain grid solution.
func (p *Problem) SolveRefined() (Plan, error) {
	best, err := p.solveGrid()
	if err != nil {
		return Plan{}, err
	}
	lo := p.minAlphaPrime()
	hi := p.Accuracy.Alpha
	grid := float64(p.grid())
	step := (hi - lo) / grid

	// Bracket one grid step to each side of the winner, clipped to the
	// open feasible interval.
	a := math.Max(lo+1e-12, best.AlphaPrime-step)
	b := math.Min(hi-1e-12, best.AlphaPrime+step)
	if a >= b {
		return p.withTau(best), nil
	}

	value := func(alphaPrime float64) (Plan, bool) {
		plan, err := p.epsilonAt(alphaPrime)
		if err != nil {
			return Plan{}, false
		}
		return plan, true
	}

	const (
		invPhi = 0.6180339887498949 // (√5 − 1) / 2
		iters  = 60
	)
	c := b - (b-a)*invPhi
	d := a + (b-a)*invPhi
	pc, okc := value(c)
	pd, okd := value(d)
	for i := 0; i < iters && b-a > 1e-14; i++ {
		// Infeasible probes (possible at the extreme ends of the bracket)
		// rank as +Inf.
		fc, fd := math.Inf(1), math.Inf(1)
		if okc {
			fc = pc.EpsilonPrime
		}
		if okd {
			fd = pd.EpsilonPrime
		}
		if fc < fd {
			b, d, pd, okd = d, c, pc, okc
			c = b - (b-a)*invPhi
			pc, okc = value(c)
		} else {
			a, c, pc, okc = c, d, pd, okd
			d = a + (b-a)*invPhi
			pd, okd = value(d)
		}
	}
	for _, cand := range []struct {
		plan Plan
		ok   bool
	}{{pc, okc}, {pd, okd}} {
		if cand.ok && cand.plan.EpsilonPrime < best.EpsilonPrime {
			best = cand.plan
		}
	}
	return p.withTau(best), nil
}

// IsInfeasible reports whether err (from Solve or SolveRefined) means the
// accuracy requirement cannot be met at the current sampling rate.
func IsInfeasible(err error) bool {
	return errors.Is(err, ErrInfeasible)
}
