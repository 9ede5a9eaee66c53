package estimator

import (
	"math"
	"runtime"
	"testing"

	"privrange/internal/index"
	"privrange/internal/stats"
)

// TestScatterTermsBitIdentical is the scatter path's differential
// property test: for random sets and queries, the per-node terms both
// scatter forms write must be bit-identical to the terms the batch
// kernel folds into its node-order sum — reducing the scatter table in
// row order must reproduce EstimateIndexBatch exactly.
func TestScatterTermsBitIdentical(t *testing.T) {
	rng := stats.NewRNG(71)
	for trial := 0; trial < 60; trial++ {
		gen := generators[trial%len(generators)]
		k := 1 + rng.Intn(70)
		m := 1 + rng.Intn(25)
		if trial%4 >= 2 {
			m = kernelBatchSizes[(trial/4)%len(kernelBatchSizes)]
		}
		p := 0.05 + 0.9*rng.Float64()
		sets := gen.sets(t, rng, k, 200, p)
		queries := gen.queries(rng, m)
		ix, err := index.Build(sets)
		if err != nil {
			t.Fatal(err)
		}
		rc := RankCounting{P: p}

		want := make([]float64, m)
		if err := rc.EstimateIndexBatch(ix, queries, want); err != nil {
			t.Fatal(err)
		}

		// Identity rows: row j = node j, so reducing rows in order is the
		// batch kernel's node-order reduction.
		rows := make([]int, k)
		for j := range rows {
			rows[j] = j
		}
		for _, name := range []string{"index", "sets"} {
			dst := make([]float64, k*m)
			if name == "index" {
				err = rc.EstimateIndexScatter(ix, queries, rows, dst)
			} else {
				err = rc.EstimateScatter(sets, queries, rows, dst)
			}
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			for qi := 0; qi < m; qi++ {
				total := 0.0
				for row := 0; row < k; row++ {
					total += dst[row*m+qi]
				}
				if math.Float64bits(total) != math.Float64bits(want[qi]) {
					t.Fatalf("trial %d (%s) %s query %d: reduced %v != batch %v", trial, gen.name, name, qi, total, want[qi])
				}
			}
		}
	}
}

// TestScatterDisjointRows pins the property sharding relies on: two
// scatters into one dst with disjoint, interleaved row sets compose to
// the same table as one scatter over the union — each term lands in its
// own row regardless of which call wrote it.
func TestScatterDisjointRows(t *testing.T) {
	rng := stats.NewRNG(72)
	k, m := 40, 9
	p := 0.3
	sets := randomSets(t, rng, k, 150, p)
	queries := randomQueries(rng, m)
	rc := RankCounting{P: p}

	rows := make([]int, k)
	for j := range rows {
		rows[j] = j
	}
	want := make([]float64, k*m)
	if err := rc.EstimateScatter(sets, queries, rows, want); err != nil {
		t.Fatal(err)
	}

	// Split nodes into evens and odds — maximally interleaved rows.
	var evenSets, oddSets = sets[:0:0], sets[:0:0]
	var evenRows, oddRows []int
	for j, set := range sets {
		if j%2 == 0 {
			evenSets = append(evenSets, set)
			evenRows = append(evenRows, j)
		} else {
			oddSets = append(oddSets, set)
			oddRows = append(oddRows, j)
		}
	}
	got := make([]float64, k*m)
	if err := rc.EstimateScatter(evenSets, queries, evenRows, got); err != nil {
		t.Fatal(err)
	}
	if err := rc.EstimateScatter(oddSets, queries, oddRows, got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("cell %d: split scatter %v != whole scatter %v", i, got[i], want[i])
		}
	}
}

// TestScatterGOMAXPROCSInvariant pins that the tiled parallel fill
// cannot affect which term lands where: a deployment big enough to
// engage the pool scatters identically on one P and many.
func TestScatterGOMAXPROCSInvariant(t *testing.T) {
	rng := stats.NewRNG(73)
	k, m := 128, 40
	p := 0.5
	for _, gen := range generators {
		sets := gen.sets(t, rng, k, 3000, p)
		queries := gen.queries(rng, m)
		ix, err := index.Build(sets)
		if err != nil {
			t.Fatal(err)
		}
		rc := RankCounting{P: p}
		rows := make([]int, k)
		for j := range rows {
			rows[j] = j
		}
		run := func(procs int) []float64 {
			old := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(old)
			dst := make([]float64, k*m)
			if err := rc.EstimateIndexScatter(ix, queries, rows, dst); err != nil {
				t.Fatal(err)
			}
			return dst
		}
		serial := run(1)
		parallel := run(max(runtime.NumCPU(), 4))
		for i := range serial {
			if math.Float64bits(serial[i]) != math.Float64bits(parallel[i]) {
				t.Fatalf("%s cell %d: serial %v != parallel %v", gen.name, i, serial[i], parallel[i])
			}
		}
	}
}

// TestScatterValidation pins the precondition checks of both forms.
func TestScatterValidation(t *testing.T) {
	rng := stats.NewRNG(74)
	sets := randomSets(t, rng, 4, 50, 0.5)
	ix, err := index.Build(sets)
	if err != nil {
		t.Fatal(err)
	}
	rc := RankCounting{P: 0.5}
	queries := []Query{{L: 0, U: 10}}
	good := []int{0, 1, 2, 3}
	dst := make([]float64, 4)
	cases := []struct {
		name string
		call func() error
	}{
		{"nil index", func() error { return rc.EstimateIndexScatter(nil, queries, good, dst) }},
		{"index bad p", func() error { return RankCounting{P: 2}.EstimateIndexScatter(ix, queries, good, dst) }},
		{"bad p", func() error { return RankCounting{P: 0}.EstimateScatter(sets, queries, good, dst) }},
		{"invalid query", func() error {
			return rc.EstimateScatter(sets, []Query{{L: 5, U: 1}}, good, dst)
		}},
		{"rows length", func() error { return rc.EstimateScatter(sets, queries, []int{0, 1}, dst) }},
		{"row out of range", func() error {
			return rc.EstimateScatter(sets, queries, []int{0, 1, 2, 9}, dst)
		}},
		{"negative row", func() error {
			return rc.EstimateScatter(sets, queries, []int{0, 1, 2, -1}, dst)
		}},
		{"ragged dst", func() error {
			return rc.EstimateScatter(sets, queries, good, make([]float64, 3))
		}},
		{"no queries", func() error { return rc.EstimateScatter(sets, nil, good, nil) }},
	}
	for _, tc := range cases {
		if err := tc.call(); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}
