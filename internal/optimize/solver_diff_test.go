package optimize

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"privrange/internal/estimator"
)

// pick returns one of the edge values with probability 1/4 and a draw
// from gen otherwise.
func pick(r *rand.Rand, gen func() float64, edges ...float64) float64 {
	if r.Intn(4) == 0 {
		return edges[r.Intn(len(edges))]
	}
	return gen()
}

// logUniform draws from [lo, hi] uniformly in log space.
func logUniform(r *rand.Rand, lo, hi float64) float64 {
	return math.Exp(math.Log(lo) + r.Float64()*(math.Log(hi)-math.Log(lo)))
}

// randomProblem draws half its problems near the feasibility boundary —
// valid inputs with p between half and four times the rate Theorem 3.3
// requires — and half with edge and invalid values mixed in.
func randomProblem(r *rand.Rand) Problem {
	if r.Intn(2) == 0 {
		return boundaryProblem(r)
	}
	nan := math.NaN()
	prob := Problem{
		Accuracy: estimator.Accuracy{
			Alpha: pick(r, func() float64 { return logUniform(r, 1e-3, 0.95) }, 0, 1, -0.1, 1.5, nan, 1e-12, 0.999999),
			Delta: pick(r, func() float64 { return r.Float64() }, 0, 1, 0.999999, 1e-9, nan, -0.2),
		},
		P: pick(r, func() float64 { return logUniform(r, 1e-4, 1) }, 0, 1, 1.1, -0.5, nan, 1e-9),
		K: []int{1, 2, 4, 10, 16, 64, 0, -1}[r.Intn(8)],
		N: []int{17568, 2000, 100000, 50, 1, 0, -5, 1 << 40}[r.Intn(8)],
	}
	switch r.Intn(8) {
	case 0:
		prob.Sensitivity = logUniform(r, 1e-3, 100)
	case 1:
		prob.Sensitivity = []float64{-1, nan, math.Inf(1)}[r.Intn(3)]
	}
	prob.GridPoints = randomGrid(r, -1, 1, 2, 3)
	return prob
}

func boundaryProblem(r *rand.Rand) Problem {
	prob := Problem{
		Accuracy: estimator.Accuracy{Alpha: logUniform(r, 5e-3, 0.5), Delta: 0.05 + 0.9*r.Float64()},
		K:        []int{1, 4, 10, 16, 64}[r.Intn(5)],
		N:        []int{17568, 2000, 100000, 5000}[r.Intn(4)],
	}
	if r.Intn(4) == 0 {
		prob.Sensitivity = logUniform(r, 1e-2, 50)
	}
	prob.GridPoints = randomGrid(r, 17)
	need, err := estimator.RequiredProbability(prob.Accuracy, prob.K, prob.N)
	if err != nil {
		panic(err)
	}
	prob.P = math.Min(1, need*(0.5+3.5*r.Float64()))
	if r.Intn(8) == 0 {
		// A sliver: α′_min sits within a relative 1e-15..1e-9 of α, so
		// SolveRefined's refinement bracket can collapse.
		lo := prob.Accuracy.Alpha * (1 - logUniform(r, 1e-15, 1e-9))
		prob.P = math.Sqrt(8*float64(prob.K)/(1-prob.Accuracy.Delta)) / (lo * float64(prob.N))
	}
	return prob
}

// randomGrid returns the default grid (0) a quarter of the time — the
// engine's case, but the slowest — and otherwise 300 or one of extra.
func randomGrid(r *rand.Rand, extra ...int) int {
	switch r.Intn(4) {
	case 0:
		return 0
	case 1:
		return extra[r.Intn(len(extra))]
	}
	return 300
}

func samePlanBits(a, b Plan) bool {
	af := []float64{a.AlphaPrime, a.DeltaPrime, a.Epsilon, a.EpsilonPrime, a.Sensitivity, a.NoiseScale, a.Tau}
	bf := []float64{b.AlphaPrime, b.DeltaPrime, b.Epsilon, b.EpsilonPrime, b.Sensitivity, b.NoiseScale, b.Tau}
	for i := range af {
		if math.Float64bits(af[i]) != math.Float64bits(bf[i]) {
			return false
		}
	}
	return true
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error() && errors.Is(a, ErrInfeasible) == errors.Is(b, ErrInfeasible)
}

// TestSolverMatchesReferenceBitwise holds Solve, SolveRefined and
// EpsilonForAlphaPrime to the reference copy in reference_test.go:
// identical Plan bits and identical errors on random problems, feasible
// and infeasible, valid and invalid.
func TestSolverMatchesReferenceBitwise(t *testing.T) {
	t.Parallel()
	cases := 1500
	if testing.Short() {
		cases = 200
	}
	r := rand.New(rand.NewSource(20190707))
	feasible := 0
	for i := 0; i < cases; i++ {
		prob := randomProblem(r)
		ref := refProblem(prob)

		got, gotErr := prob.Solve()
		want, wantErr := ref.Solve()
		if !sameErr(gotErr, wantErr) || !samePlanBits(got, want) {
			t.Fatalf("Solve(%+v) = %+v, %v; reference %+v, %v", prob, got, gotErr, want, wantErr)
		}
		if gotErr == nil {
			feasible++
		}

		got, gotErr = prob.SolveRefined()
		want, wantErr = ref.SolveRefined()
		if !sameErr(gotErr, wantErr) || !samePlanBits(got, want) {
			t.Fatalf("SolveRefined(%+v) = %+v, %v; reference %+v, %v", prob, got, gotErr, want, wantErr)
		}

		alphaPrime := pick(r, func() float64 { return r.Float64() * prob.Accuracy.Alpha }, 0, -1, prob.Accuracy.Alpha, math.NaN())
		got, gotErr = prob.EpsilonForAlphaPrime(alphaPrime)
		want, wantErr = ref.EpsilonForAlphaPrime(alphaPrime)
		if !sameErr(gotErr, wantErr) || !samePlanBits(got, want) {
			t.Fatalf("EpsilonForAlphaPrime(%+v, %v) = %+v, %v; reference %+v, %v",
				prob, alphaPrime, got, gotErr, want, wantErr)
		}
	}
	// The draw must exercise the feasible path, not just validation.
	if feasible < cases/4 {
		t.Fatalf("only %d of %d random problems were feasible", feasible, cases)
	}
}
