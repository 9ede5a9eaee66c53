// Package optimize solves the paper's optimization problem (3): given a
// customer's (α, δ) accuracy requirement and samples already collected at
// Bernoulli rate p, find the noise-adding plan with the *strongest*
// differential privacy — the smallest effective budget
// ε′ = ln(1 + p(e^ε − 1)) — such that the sampled-then-perturbed answer
// still satisfies (α, δ)-range counting.
//
// The broker splits the error budget between the two phases: the sampling
// phase delivers an (α′, δ′)-accurate estimate (α′ ≤ α, δ′ ≥ δ, with δ′
// determined by the existing sampling rate via Chebyshev), and the Laplace
// phase may consume the remaining slack (α−α′)n as long as
// Pr[|Lap| ≤ (α−α′)n] ≥ δ/δ′. For a fixed α′ the minimal base budget has
// the closed form
//
//	ε(α′) = Δγ̂ / ((α−α′)·n) · ln(δ′/(δ′−δ))
//
// with Δγ̂ = 1/p, the expected sensitivity of the RankCounting estimate.
// A grid search over α′ then minimizes ε (and, monotonically, ε′).
package optimize

import (
	"errors"
	"fmt"
	"math"

	"privrange/internal/dp"
	"privrange/internal/estimator"
)

// ErrInfeasible reports that no (α′, δ′, ε) triple can meet the requested
// accuracy with the samples at hand; the broker must collect more samples
// first.
var ErrInfeasible = errors.New("optimize: accuracy requirement infeasible at current sampling rate")

// Problem describes one instance of optimization problem (3).
type Problem struct {
	// Accuracy is the customer-requested (α, δ).
	Accuracy estimator.Accuracy
	// P is the Bernoulli sampling rate of the samples the broker holds.
	P float64
	// K is the number of IoT nodes.
	K int
	// N is the global dataset size |D|.
	N int
	// Sensitivity overrides the estimator sensitivity Δγ̂ used for noise
	// calibration. Zero selects the paper's default, the expected
	// sensitivity 1/p.
	Sensitivity float64
	// GridPoints is the resolution of the α′ search grid. Zero selects
	// 2000 points, fine enough that the discretization error in ε′ is
	// far below experimental noise.
	GridPoints int
}

// Plan is a feasible solution to problem (3): the internal accuracy split
// plus the calibrated noise.
type Plan struct {
	// AlphaPrime and DeltaPrime are the sampling phase's accuracy.
	AlphaPrime, DeltaPrime float64
	// Epsilon is the base Laplace budget ε.
	Epsilon float64
	// EpsilonPrime is the effective budget after privacy amplification by
	// sampling, ε′ = ln(1 + p(e^ε − 1)) — the quantity minimized.
	EpsilonPrime float64
	// Sensitivity is the Δγ̂ used to calibrate noise.
	Sensitivity float64
	// NoiseScale is the Laplace scale Δγ̂/ε actually added to the
	// estimate.
	NoiseScale float64
	// Tau is Pr[|Lap| ≤ (α−α′)n], the noise phase's share of the
	// confidence budget; the composite guarantee is DeltaPrime·Tau ≥ δ.
	Tau float64
}

func (p *Problem) validate() error {
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

func (p *Problem) sensitivity() float64 {
	if p.Sensitivity > 0 {
		return p.Sensitivity
	}
	return 1 / p.P
}

func (p *Problem) grid() int {
	if p.GridPoints > 0 {
		return p.GridPoints
	}
	return 2000
}

// minAlphaPrime returns the smallest α′ at which the existing samples
// still deliver δ′ > δ: from δ′(α′) = 1 − 8k/(p²α′²n²) solved at δ′ = δ,
//
//	α′_min = √(8k/(1−δ)) / (p·n).
func (p *Problem) minAlphaPrime() float64 {
	return math.Sqrt(8*float64(p.K)/(1-p.Accuracy.Delta)) / (p.P * float64(p.N))
}

// EpsilonForAlphaPrime computes the minimal base budget for a fixed α′:
// the closed form the paper derives from the Laplace tail. It returns
// ErrInfeasible when α′ leaves no room for either phase.
func (p *Problem) EpsilonForAlphaPrime(alphaPrime float64) (Plan, error) {
	if err := p.validate(); err != nil {
		return Plan{}, err
	}
	plan, err := p.epsilonAt(alphaPrime)
	if err != nil {
		return Plan{}, err
	}
	return p.withTau(plan), nil
}

// epsilonAt is EpsilonForAlphaPrime on an already validated problem,
// leaving Tau unset: the searches evaluate it ~2 000 times per solve but
// need Tau (one math.Exp) only for the winner, which withTau fills in.
func (p *Problem) epsilonAt(alphaPrime float64) (Plan, error) {
	plan, err := p.baseAt(alphaPrime)
	if err != nil {
		return Plan{}, err
	}
	return p.amplified(plan)
}

// baseAt is the first half of epsilonAt: α′'s δ′ and the closed-form
// base budget ε, with EpsilonPrime and NoiseScale unset. The grid
// search reads ε here to skip amplifying points that cannot win.
func (p *Problem) baseAt(alphaPrime float64) (Plan, error) {
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
	return Plan{
		AlphaPrime:  alphaPrime,
		DeltaPrime:  deltaPrime,
		Epsilon:     sens / slack * math.Log(deltaPrime/(deltaPrime-delta)),
		Sensitivity: sens,
	}, nil
}

// amplified is the second half of epsilonAt: it fills in ε′ (Lemma 3.4)
// and the noise scale of a baseAt plan.
func (p *Problem) amplified(plan Plan) (Plan, error) {
	epsPrime, err := dp.AmplifyBySampling(plan.Epsilon, p.P)
	if err != nil {
		return Plan{}, err
	}
	plan.EpsilonPrime = epsPrime
	plan.NoiseScale = plan.Sensitivity / plan.Epsilon
	return plan, nil
}

// withTau fills in the plan's noise-phase confidence Pr[|Lap| ≤ (α−α′)n]
// from the same operands epsilonAt used, so the bits match computing it
// inline.
func (p *Problem) withTau(plan Plan) Plan {
	slack := (p.Accuracy.Alpha - plan.AlphaPrime) * float64(p.N)
	plan.Tau = dp.Laplace{Scale: plan.NoiseScale}.AbsCDF(slack)
	return plan
}

// Solve runs the grid search over α′ and returns the plan with the
// smallest effective budget ε′. It returns ErrInfeasible (wrapped with the
// minimum workable sampling rate) when even α′ → α cannot reach δ.
func (p *Problem) Solve() (Plan, error) {
	best, err := p.solveGrid()
	if err != nil {
		return Plan{}, err
	}
	return p.withTau(best), nil
}

// skipMargin is the relative ε margin above the grid's current winner
// past which solveGrid skips amplification (DESIGN.md §17).
const skipMargin = 1 + 1e-12

// solveGrid validates the problem once and runs Solve's grid search,
// returning the winner without Tau.
func (p *Problem) solveGrid() (Plan, error) {
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
		plan, err := p.baseAt(alphaPrime)
		if err == nil && found && !(plan.Epsilon <= best.Epsilon*skipMargin) {
			// ε′ = ln(1−p+p·e^ε) is increasing in ε with elasticity
			// ≥ 1, so a point whose ε is relatively 1e-12 above the
			// winner's has a true ε′ at least that far above, far past
			// the few-ulp error of Log1p/Expm1: its computed ε′ cannot
			// win. Skipping its amplification leaves the winner's bits
			// unchanged.
			continue
		}
		if err == nil {
			plan, err = p.amplified(plan)
		}
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

// Verify checks that the plan satisfies every constraint of problem (3)
// for this problem instance; experiments and property tests call it to
// guarantee the solver never emits an invalid plan. tol absorbs grid and
// floating-point slack.
func (p *Problem) Verify(plan Plan, tol float64) error {
	if err := p.validate(); err != nil {
		return err
	}
	alpha, delta := p.Accuracy.Alpha, p.Accuracy.Delta
	if plan.AlphaPrime <= 0 || plan.AlphaPrime > alpha+tol {
		return fmt.Errorf("optimize: plan alpha' %v violates 0 < alpha' <= alpha=%v", plan.AlphaPrime, alpha)
	}
	if plan.DeltaPrime < delta-tol {
		return fmt.Errorf("optimize: plan delta' %v below delta=%v", plan.DeltaPrime, delta)
	}
	// Sampling constraint: p >= √(2k)/(α′n) · 2/√(1−δ′).
	needP := math.Sqrt(2*float64(p.K)) / (plan.AlphaPrime * float64(p.N)) * 2 / math.Sqrt(1-plan.DeltaPrime)
	if p.P < needP-tol {
		return fmt.Errorf("optimize: sampling rate %v below required %v for (alpha', delta')", p.P, needP)
	}
	if plan.Epsilon <= 0 {
		return fmt.Errorf("optimize: non-positive epsilon %v", plan.Epsilon)
	}
	// Noise constraint: Pr[|Lap| ≤ (α−α′)n] ≥ δ/δ′.
	noise := dp.Laplace{Scale: plan.NoiseScale}
	tau := noise.AbsCDF((alpha - plan.AlphaPrime) * float64(p.N))
	if tau < delta/plan.DeltaPrime-tol {
		return fmt.Errorf("optimize: noise tail %v below delta/delta' = %v", tau, delta/plan.DeltaPrime)
	}
	// Amplification bookkeeping: ε′ = ln(1 + p(e^ε − 1)).
	wantPrime, err := dp.AmplifyBySampling(plan.Epsilon, p.P)
	if err != nil {
		return err
	}
	if math.Abs(wantPrime-plan.EpsilonPrime) > tol {
		return fmt.Errorf("optimize: epsilon' %v inconsistent with amplification %v", plan.EpsilonPrime, wantPrime)
	}
	return nil
}
