package core

import (
	"testing"

	"privrange/internal/estimator"
)

// TestAnswerBatchAllocs gates the allocations of a 64-query AnswerBatch
// on a memo-hit plan. The ceiling is the measured count, so per-query
// noise keying (or anything else) can never add per-query allocations.
func TestAnswerBatchAllocs(t *testing.T) {
	eng, snap := menuEngine(t)
	if snap.idx == nil {
		t.Fatal("fixture has no columnar index; the gate would time the fallback path")
	}
	acc := estimator.Accuracy{Alpha: 0.1, Delta: 0.5}
	queries := make([]estimator.Query, 64)
	for i := range queries {
		queries[i] = estimator.Query{L: float64(i), U: float64(i + 60)}
	}
	if _, err := eng.AnswerBatch(queries, acc); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := eng.AnswerBatch(queries, acc); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("64-query AnswerBatch: %v allocs/op", allocs)
	const ceiling = 8
	if allocs > ceiling {
		t.Errorf("64-query AnswerBatch allocates %v/op, ceiling %d", allocs, ceiling)
	}
}
