package core

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"

	"privrange/internal/estimator"
	"privrange/internal/optimize"
	"privrange/internal/pricing"
	"privrange/internal/telemetry"
)

func planBits(p optimize.Plan) [7]uint64 {
	return [7]uint64{
		math.Float64bits(p.AlphaPrime), math.Float64bits(p.DeltaPrime),
		math.Float64bits(p.Epsilon), math.Float64bits(p.EpsilonPrime),
		math.Float64bits(p.Sensitivity), math.Float64bits(p.NoiseScale),
		math.Float64bits(p.Tau),
	}
}

// freshSolve is the memo-free oracle: what solveAt computed before the
// memo existed.
func freshSolve(acc estimator.Accuracy, rate float64, k, n int) (optimize.Plan, error) {
	prob := optimize.Problem{Accuracy: acc, P: rate, K: k, N: n}
	return prob.SolveRefined()
}

// menuEngine returns an engine over a network already collected at a
// rate where every DefaultMenu accuracy is feasible, with
// auto-collection off so the rate cannot move under the test.
func menuEngine(t *testing.T, opts ...Option) (*Engine, snapshot) {
	t.Helper()
	nw, _ := buildNetwork(t, 4, 6000, 41)
	if _, err := nw.EnsureRate(1); err != nil {
		t.Fatal(err)
	}
	eng, err := New(nw, append([]Option{WithSeed(3), WithAutoCollect(false)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return eng, eng.readSnapshot()
}

func feasibleMenu(t *testing.T, snap snapshot) []estimator.Accuracy {
	t.Helper()
	var menu []estimator.Accuracy
	for _, acc := range pricing.DefaultMenu() {
		if _, err := freshSolve(acc, snap.rate, snap.nodes, snap.n); err == nil {
			menu = append(menu, acc)
		}
	}
	if len(menu) < 45 {
		t.Fatalf("only %d menu entries feasible at p=%v", len(menu), snap.rate)
	}
	return menu
}

func TestPlanMemoHitMatchesFreshSolve(t *testing.T) {
	t.Parallel()
	eng, snap := menuEngine(t)
	q := estimator.Query{L: 20, U: 80}
	for _, acc := range feasibleMenu(t, snap) {
		want, err := freshSolve(acc, snap.rate, snap.nodes, snap.n)
		if err != nil {
			t.Fatal(err)
		}
		// The first call misses and fills the memo; the rest hit it.
		for i := 0; i < 3; i++ {
			got, err := eng.Plan(acc)
			if err != nil {
				t.Fatal(err)
			}
			if planBits(got) != planBits(want) {
				t.Fatalf("Plan(%+v) call %d = %+v, fresh solve %+v", acc, i, got, want)
			}
			ans, err := eng.Answer(q, acc)
			if err != nil {
				t.Fatal(err)
			}
			if planBits(ans.Plan) != planBits(want) {
				t.Fatalf("Answer(%+v) call %d plan = %+v, fresh solve %+v", acc, i, ans.Plan, want)
			}
		}
	}
}

// TestPlanMemoEntriesPassVerify checks every memoized plan against
// problem (3)'s constraints and the amplification identity
// ε′ = ln(1 − p + p·e^ε).
func TestPlanMemoEntriesPassVerify(t *testing.T) {
	t.Parallel()
	eng, snap := menuEngine(t)
	for _, acc := range feasibleMenu(t, snap) {
		if _, err := eng.Plan(acc); err != nil {
			t.Fatal(err)
		}
	}
	eng.plans.mu.Lock()
	defer eng.plans.mu.Unlock()
	if len(eng.plans.plans) == 0 {
		t.Fatal("memo is empty after planning the menu")
	}
	for k, plan := range eng.plans.plans {
		if err := k.prob.Verify(plan, 1e-9); err != nil {
			t.Errorf("memoized plan for %+v fails Verify: %v", k.prob, err)
		}
		p := k.prob.P
		want := math.Log(1 - p + p*math.Exp(plan.Epsilon))
		if math.Abs(plan.EpsilonPrime-want) > 1e-12*math.Max(1, want) {
			t.Errorf("%+v: epsilon' %v, ln(1-p+p*e^eps) = %v", k.prob, plan.EpsilonPrime, want)
		}
	}
}

// TestPlanMemoEpsilonMonotone: a looser α or a weaker δ never needs more
// noise budget, so ε is non-increasing in α and non-decreasing in δ.
func TestPlanMemoEpsilonMonotone(t *testing.T) {
	t.Parallel()
	eng, snap := menuEngine(t)
	feasible := map[estimator.Accuracy]bool{}
	for _, acc := range feasibleMenu(t, snap) {
		feasible[acc] = true
	}
	eps := func(acc estimator.Accuracy) float64 {
		plan, err := eng.Plan(acc)
		if err != nil {
			t.Fatal(err)
		}
		return plan.Epsilon
	}
	const tol = 1e-9
	menu := pricing.DefaultMenu()
	for _, a := range menu {
		for _, b := range menu {
			if !feasible[a] || !feasible[b] || a == b {
				continue
			}
			ea, eb := eps(a), eps(b)
			if a.Delta == b.Delta && a.Alpha < b.Alpha && eb > ea*(1+tol) {
				t.Errorf("epsilon rises with alpha: %+v -> %v, %+v -> %v", a, ea, b, eb)
			}
			if a.Alpha == b.Alpha && a.Delta < b.Delta && eb < ea*(1-tol) {
				t.Errorf("epsilon falls with delta: %+v -> %v, %+v -> %v", a, ea, b, eb)
			}
		}
	}
}

// TestPlanMemoNoStalePlan: once the rate (forced re-collection) or n
// (ingest) moves, the engine plans at the new inputs, never from the
// entry memoized at the old ones.
func TestPlanMemoNoStalePlan(t *testing.T) {
	t.Parallel()
	nw, _ := buildNetwork(t, 4, 6000, 43)
	eng, err := New(nw, WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	q := estimator.Query{L: 30, U: 90}
	loose := estimator.Accuracy{Alpha: 0.3, Delta: 0.5}
	check := func(stage string, old optimize.Plan) optimize.Plan {
		t.Helper()
		ans, err := eng.Answer(q, loose)
		if err != nil {
			t.Fatal(err)
		}
		want, err := freshSolve(loose, ans.Rate, ans.Nodes, ans.N)
		if err != nil {
			t.Fatal(err)
		}
		if planBits(ans.Plan) != planBits(want) {
			t.Fatalf("%s: Answer plan %+v, fresh solve at p=%v n=%d %+v", stage, ans.Plan, ans.Rate, ans.N, want)
		}
		quoted, err := eng.Plan(loose)
		if err != nil {
			t.Fatal(err)
		}
		if planBits(quoted) != planBits(want) {
			t.Fatalf("%s: Plan %+v, fresh solve %+v", stage, quoted, want)
		}
		if planBits(ans.Plan) == planBits(old) {
			t.Fatalf("%s: plan did not move with the solver inputs", stage)
		}
		return ans.Plan
	}
	first := check("first answer", optimize.Plan{})

	// A stricter request forces re-collection at a higher rate.
	rate := nw.Rate()
	if _, err := eng.Answer(q, estimator.Accuracy{Alpha: 0.02, Delta: 0.9}); err != nil {
		t.Fatal(err)
	}
	if nw.Rate() <= rate {
		t.Fatalf("strict request did not raise the rate (%v -> %v)", rate, nw.Rate())
	}
	second := check("after re-collection", first)

	// Ingest changes n at an unchanged rate.
	n := nw.TotalN()
	if err := nw.Ingest(1, []float64{5, 10, 15, 20, 25, 30, 35}); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.EnsureRate(nw.Rate()); err != nil {
		t.Fatal(err)
	}
	if nw.TotalN() == n {
		t.Fatal("ingest did not change n")
	}
	check("after ingest", second)
}

// TestPlanMemoConcurrent runs Answer and Plan from several goroutines on
// the menu; every plan seen must be the fresh solve's bits. Run under
// -race it also checks the memo's synchronization.
func TestPlanMemoConcurrent(t *testing.T) {
	t.Parallel()
	eng, snap := menuEngine(t)
	menu := feasibleMenu(t, snap)
	want := make([]optimize.Plan, len(menu))
	for i, acc := range menu {
		var err error
		if want[i], err = freshSolve(acc, snap.rate, snap.nodes, snap.n); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2*len(menu); i++ {
				j := (i*7 + g*13) % len(menu)
				var got optimize.Plan
				if (i+g)%2 == 0 {
					ans, err := eng.Answer(estimator.Query{L: float64(g), U: float64(g + 60)}, menu[j])
					if err != nil {
						t.Error(err)
						return
					}
					got = ans.Plan
				} else {
					var err error
					if got, err = eng.Plan(menu[j]); err != nil {
						t.Error(err)
						return
					}
				}
				if planBits(got) != planBits(want[j]) {
					t.Errorf("goroutine %d: plan for %+v = %+v, want %+v", g, menu[j], got, want[j])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPlanMemoBoundedAndCounted fills the memo past its cap and checks
// the bound, the clear-on-full eviction and the hit/miss/evict counters
// on both telemetry surfaces.
func TestPlanMemoBoundedAndCounted(t *testing.T) {
	t.Parallel()
	reg := telemetry.NewRegistry()
	eng, _ := menuEngine(t, WithTelemetry(NewMetrics(reg)))
	misses := planMemoCap + 10
	for i := 0; i < misses; i++ {
		acc := estimator.Accuracy{Alpha: 0.3 + float64(i)*1e-4, Delta: 0.5}
		if _, err := eng.Plan(acc); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Plan(acc); err != nil {
			t.Fatal(err)
		}
	}
	eng.plans.mu.Lock()
	size := len(eng.plans.plans)
	eng.plans.mu.Unlock()
	if size != misses-planMemoCap {
		t.Errorf("memo holds %d plans, want %d after one clear", size, misses-planMemoCap)
	}

	want := map[string]uint64{
		`privrange_core_plan_memo_total{result="hit"}`:   uint64(misses),
		`privrange_core_plan_memo_total{result="miss"}`:  uint64(misses),
		`privrange_core_plan_memo_total{result="evict"}`: planMemoCap,
	}
	for _, c := range reg.Snapshot().Counters {
		if w, ok := want[c.Name+c.Labels]; ok {
			if c.Value != w {
				t.Errorf("snapshot %s%s = %d, want %d", c.Name, c.Labels, c.Value, w)
			}
			delete(want, c.Name+c.Labels)
		}
	}
	if len(want) != 0 {
		t.Errorf("snapshot lacks %v", want)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `privrange_core_plan_memo_total{result="evict"} 256`) {
		t.Errorf("/metrics exposition lacks the evict count:\n%s", buf.String())
	}
}

// TestPlanMemoHitAllocs gates the allocations of a memo-hit Answer. The
// ceiling is the measured count; a rise means the hit path started
// allocating again.
func TestPlanMemoHitAllocs(t *testing.T) {
	eng, _ := menuEngine(t)
	q := estimator.Query{L: 20, U: 80}
	acc := estimator.Accuracy{Alpha: 0.1, Delta: 0.5}
	if _, err := eng.Answer(q, acc); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := eng.Answer(q, acc); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("memo-hit Answer: %v allocs/op", allocs)
	const ceiling = 3
	if allocs > ceiling {
		t.Errorf("memo-hit Answer allocates %v/op, ceiling %d", allocs, ceiling)
	}
}
