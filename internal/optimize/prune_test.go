package optimize

import (
	"math"
	"math/rand"
	"testing"

	"privrange/internal/estimator"
)

// sameAsReference fails t unless Solve and SolveRefined return the
// reference solver's plan bits and errors on prob.
func sameAsReference(t *testing.T, prob Problem) {
	t.Helper()
	ref := refProblem(prob)
	got, gotErr := prob.Solve()
	want, wantErr := ref.Solve()
	if !sameErr(gotErr, wantErr) || !samePlanBits(got, want) {
		t.Fatalf("Solve(%+v) = %+v, %v; reference %+v, %v", prob, got, gotErr, want, wantErr)
	}
	got, gotErr = prob.SolveRefined()
	want, wantErr = ref.SolveRefined()
	if !sameErr(gotErr, wantErr) || !samePlanBits(got, want) {
		t.Fatalf("SolveRefined(%+v) = %+v, %v; reference %+v, %v", prob, got, gotErr, want, wantErr)
	}
}

// TestSolverMatchesReferenceBitwiseSaturated pins the saturation guard.
// On this sliver every grid point is feasible but its ε′ overflows to
// +Inf, so the exhaustive scan returns the first feasible point. Points
// with a larger ε tie at +Inf there rather than lose, and pruning them
// against an incumbent would pick a different point.
func TestSolverMatchesReferenceBitwiseSaturated(t *testing.T) {
	t.Parallel()
	prob := Problem{
		Accuracy: estimator.Accuracy{Alpha: 0.01212191228596909, Delta: 0.6605784375993601},
		P:        0.032040119650585466,
		K:        64,
		N:        100000,
	}
	for _, grid := range []int{0, 17, 300} {
		prob.GridPoints = grid
		lo, hi, g := prob.minAlphaPrime(), prob.Accuracy.Alpha, prob.grid()
		feasible := 0
		for i := 1; i < g; i++ {
			plan, err := prob.EpsilonForAlphaPrime(lo + (hi-lo)*float64(i)/float64(g))
			if err != nil {
				continue
			}
			feasible++
			if !math.IsInf(plan.EpsilonPrime, 1) {
				t.Fatalf("grid %d: point %d has finite eps' %v; the case needs every eps' at +Inf", grid, i, plan.EpsilonPrime)
			}
		}
		if feasible == 0 {
			t.Fatalf("grid %d: no feasible point; the case needs some", grid)
		}
		sameAsReference(t, prob)
	}
}

// TestSolverMatchesReferenceBitwiseBlockBoundaries draws grid sizes at
// and around the pruned scan's block and leaf sizes, so single-block
// grids and partial last blocks are compared bitwise against the
// reference solver.
func TestSolverMatchesReferenceBitwiseBlockBoundaries(t *testing.T) {
	t.Parallel()
	grids := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 31, 32, 33, 63, 64, 65, 255, 256, 257, 1999, 2000, 2001}
	perGrid := 60
	if testing.Short() {
		perGrid = 10
	}
	r := rand.New(rand.NewSource(20190709))
	for _, grid := range grids {
		for i := 0; i < perGrid; i++ {
			var prob Problem
			if i%2 == 0 {
				prob = batchProblem(r)
			} else {
				prob = boundaryProblem(r)
			}
			prob.GridPoints = grid
			sameAsReference(t, prob)
		}
	}
}

// TestGridPruningFires fails if the branch-and-bound stops pruning: on
// batch-shaped problems the search must evaluate at most a fifth of
// the grid on average, counting bounds and the incumbent's descent. A
// planner miss must also allocate nothing. Not parallel: AllocsPerRun
// counts every goroutine's allocations.
func TestGridPruningFires(t *testing.T) {
	r := rand.New(rand.NewSource(20190710))
	probs := make([]Problem, 1000)
	for i := range probs {
		probs[i] = batchProblem(r)
	}
	evals, points := 0, 0
	for _, prob := range probs {
		_, n, err := prob.solveGrid()
		if err != nil {
			t.Fatalf("solveGrid(%+v): %v", prob, err)
		}
		evals += n
		points += prob.grid() - 1
	}
	if share := float64(evals) / float64(points); share > 0.20 {
		t.Errorf("search evaluated %.1f%% of the grid on average, want at most 20%%", 100*share)
	}

	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := probs[i%len(probs)].SolveRefined(); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("SolveRefined miss allocates %v times, want 0", allocs)
	}
}

// denseTolerance bounds how far SolveRefined's ε′ may sit above the
// minimum over a 100× finer grid. The golden-section refine lands at or
// below that minimum on every problem tried, so the slack only absorbs
// rounding.
const denseTolerance = 1e-9

// TestSolveRefinedNearDenseGridOptimum pins planner quality without the
// reference solver: SolveRefined's plan must pass Verify, and its ε′
// must be within denseTolerance (relative) of the best ε′ on a grid 100×
// finer than the problem's, evaluated point by point.
func TestSolveRefinedNearDenseGridOptimum(t *testing.T) {
	t.Parallel()
	cases := 40
	if testing.Short() {
		cases = 8
	}
	r := rand.New(rand.NewSource(20190711))
	checked := 0
	for i := 0; i < cases; i++ {
		var prob Problem
		if i%2 == 0 {
			prob = batchProblem(r)
		} else {
			prob = boundaryProblem(r)
		}
		plan, err := prob.SolveRefined()
		if IsInfeasible(err) {
			continue
		}
		if err != nil {
			t.Fatalf("SolveRefined(%+v): %v", prob, err)
		}
		if err := prob.Verify(plan, 1e-9); err != nil {
			t.Fatalf("SolveRefined(%+v) = %+v fails Verify: %v", prob, plan, err)
		}
		lo, hi := prob.minAlphaPrime(), prob.Accuracy.Alpha
		dense := 100 * prob.grid()
		best := math.Inf(1)
		for j := 1; j < dense; j++ {
			cand, err := prob.EpsilonForAlphaPrime(lo + (hi-lo)*float64(j)/float64(dense))
			if err == nil && cand.EpsilonPrime < best {
				best = cand.EpsilonPrime
			}
		}
		if !(plan.EpsilonPrime <= best*(1+denseTolerance)) {
			t.Fatalf("SolveRefined(%+v) eps' = %v, dense-grid minimum %v (relative gap %.3g)",
				prob, plan.EpsilonPrime, best, (plan.EpsilonPrime-best)/best)
		}
		checked++
	}
	if checked < cases/2 {
		t.Fatalf("only %d of %d problems were feasible", checked, cases)
	}
}
