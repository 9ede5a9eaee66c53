package optimize

import (
	"errors"
	"fmt"
	"math"

	"privrange/internal/dp"
	"privrange/internal/estimator"
)

// refProblem carries a verbatim copy of the solver as it stood before
// validation was hoisted out of the α′ searches and Tau was deferred to
// the winning plan. The differential test in solver_diff_test.go holds
// the current solver to it bit for bit. Only the receiver type differs.
type refProblem Problem

func (p *refProblem) validate() error {
	if err := p.Accuracy.Validate(); err != nil {
		return err
	}
	if p.P <= 0 || p.P > 1 {
		return fmt.Errorf("optimize: sampling probability %v outside (0, 1]", p.P)
	}
	if p.K < 1 {
		return fmt.Errorf("optimize: node count %d < 1", p.K)
	}
	if p.N < 1 {
		return fmt.Errorf("optimize: dataset size %d < 1", p.N)
	}
	if p.Sensitivity < 0 {
		return fmt.Errorf("optimize: negative sensitivity %v", p.Sensitivity)
	}
	if p.GridPoints < 0 {
		return fmt.Errorf("optimize: negative grid size %d", p.GridPoints)
	}
	return nil
}

func (p *refProblem) sensitivity() float64 {
	if p.Sensitivity > 0 {
		return p.Sensitivity
	}
	return 1 / p.P
}

func (p *refProblem) grid() int {
	if p.GridPoints > 0 {
		return p.GridPoints
	}
	return 2000
}

func (p *refProblem) minAlphaPrime() float64 {
	return math.Sqrt(8*float64(p.K)/(1-p.Accuracy.Delta)) / (p.P * float64(p.N))
}

func (p *refProblem) EpsilonForAlphaPrime(alphaPrime float64) (Plan, error) {
	if err := p.validate(); err != nil {
		return Plan{}, err
	}
	alpha, delta := p.Accuracy.Alpha, p.Accuracy.Delta
	if alphaPrime <= 0 || alphaPrime >= alpha {
		return Plan{}, fmt.Errorf("%w: alpha' %v not in (0, %v)", ErrInfeasible, alphaPrime, alpha)
	}
	deltaPrime, err := estimator.AchievableDelta(p.P, alphaPrime, p.K, p.N)
	if err != nil {
		return Plan{}, err
	}
	if deltaPrime <= delta {
		return Plan{}, fmt.Errorf("%w: delta' %v does not exceed required delta %v at alpha'=%v",
			ErrInfeasible, deltaPrime, delta, alphaPrime)
	}
	sens := p.sensitivity()
	slack := (alpha - alphaPrime) * float64(p.N)
	eps := sens / slack * math.Log(deltaPrime/(deltaPrime-delta))
	epsPrime, err := dp.AmplifyBySampling(eps, p.P)
	if err != nil {
		return Plan{}, err
	}
	noise := dp.Laplace{Scale: sens / eps}
	return Plan{
		AlphaPrime:   alphaPrime,
		DeltaPrime:   deltaPrime,
		Epsilon:      eps,
		EpsilonPrime: epsPrime,
		Sensitivity:  sens,
		NoiseScale:   sens / eps,
		Tau:          noise.AbsCDF(slack),
	}, nil
}

func (p *refProblem) Solve() (Plan, error) {
	if err := p.validate(); err != nil {
		return Plan{}, err
	}
	lo := p.minAlphaPrime()
	hi := p.Accuracy.Alpha
	if lo >= hi {
		// Even a pure-sampling answer misses δ: the paper's broker would
		// collect more samples. Report the rate that would open the
		// search space.
		need, rerr := estimator.RequiredProbability(p.Accuracy, p.K, p.N)
		if rerr != nil {
			return Plan{}, rerr
		}
		return Plan{}, fmt.Errorf("%w: sampling rate %.5f too low, need at least ~%.5f", ErrInfeasible, p.P, need)
	}
	grid := p.grid()
	var (
		best  Plan
		found bool
	)
	for i := 1; i < grid; i++ {
		alphaPrime := lo + (hi-lo)*float64(i)/float64(grid)
		plan, err := p.EpsilonForAlphaPrime(alphaPrime)
		if err != nil {
			if errors.Is(err, ErrInfeasible) {
				continue
			}
			return Plan{}, err
		}
		if !found || plan.EpsilonPrime < best.EpsilonPrime {
			best = plan
			found = true
		}
	}
	if !found {
		return Plan{}, fmt.Errorf("%w: empty feasible grid in (%v, %v)", ErrInfeasible, lo, hi)
	}
	return best, nil
}

func (p *refProblem) SolveRefined() (Plan, error) {
	best, err := p.Solve()
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
		return best, nil
	}

	value := func(alphaPrime float64) (Plan, bool) {
		plan, err := p.EpsilonForAlphaPrime(alphaPrime)
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
	return best, nil
}
