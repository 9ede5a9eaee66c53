package optimize

import (
	"math/rand"
	"testing"

	"privrange/internal/dp"
	"privrange/internal/estimator"
)

// TestAmplificationStrictlyAboveSkipMargin is the property solveGrid's
// amplify-skip rests on: raising ε by the relative margin always
// raises the computed ε′, for p across (0, 1] and ε across the
// planner's range, so a skipped point could not have had a smaller ε′.
func TestAmplificationStrictlyAboveSkipMargin(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(1212))
	for i := 0; i < 200000; i++ {
		p := pick(r, func() float64 { return logUniform(r, 1e-6, 1) }, 1, 1e-6, 0.5)
		eps := logUniform(r, 1e-9, 100)
		lo, err := dp.AmplifyBySampling(eps, p)
		if err != nil {
			t.Fatal(err)
		}
		hi, err := dp.AmplifyBySampling(eps*skipMargin, p)
		if err != nil {
			t.Fatal(err)
		}
		if !(hi > lo) {
			t.Fatalf("AmplifyBySampling(%v·(1+1e-12), %v) = %v, not above %v", eps, p, hi, lo)
		}
	}
}

// batchProblem is a problem shaped like the broker's batch-ingest
// path: 16 nodes, CityPulse-sized n growing by ingested days, p near
// 0.08, α ∈ [0.05, 0.30], δ ∈ [0.5, 0.9], the engine's default grid.
func batchProblem(r *rand.Rand) Problem {
	return Problem{
		Accuracy: estimator.Accuracy{Alpha: 0.05 + 0.25*r.Float64(), Delta: 0.5 + 0.4*r.Float64()},
		P:        0.06 + 0.04*r.Float64(),
		K:        16,
		N:        17568 + 288*r.Intn(60),
	}
}

// TestSolverMatchesReferenceBitwiseBatchShaped extends the bitwise
// differential test against reference_test.go to batch-ingest-shaped
// problems, where the amplify-skip fires on most of the grid.
func TestSolverMatchesReferenceBitwiseBatchShaped(t *testing.T) {
	t.Parallel()
	cases := 600
	if testing.Short() {
		cases = 100
	}
	r := rand.New(rand.NewSource(20190708))
	feasible := 0
	for i := 0; i < cases; i++ {
		prob := batchProblem(r)
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
	}
	if feasible < cases*9/10 {
		t.Fatalf("only %d of %d batch-shaped problems were feasible", feasible, cases)
	}
}

// sinkPlan keeps benchmarked plans observable to the compiler.
var sinkPlan Plan

// BenchmarkSolveRefinedMiss times one planner miss on batch-shaped
// problems: a fresh (α, δ) every call, as the batch-ingest workload
// sees, with no plan memo in front.
func BenchmarkSolveRefinedMiss(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	probs := make([]Problem, 256)
	for i := range probs {
		probs[i] = batchProblem(r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := probs[i%len(probs)].SolveRefined()
		if err != nil && !IsInfeasible(err) {
			b.Fatal(err)
		}
		sinkPlan = plan
	}
}
