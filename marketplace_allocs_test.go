package privrange

import "testing"

// TestBuyPlanMemoHitAllocs gates the allocations of a Marketplace.Buy
// whose plan is already memoized. The ceiling is the measured count; a
// rise means the repeated-accuracy sale started allocating again.
func TestBuyPlanMemoHitAllocs(t *testing.T) {
	mp, err := NewMarketplace(Tariff{Base: 1, C: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if err := mp.AddDataset("ozone", testSeries(t, 6).Values, Options{Nodes: 10, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	acc := Accuracy{Alpha: 0.08, Delta: 0.6}
	if _, err := mp.Buy("alice", "ozone", 40, 100, acc); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := mp.Buy("alice", "ozone", 40, 100, acc); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("memo-hit Buy: %v allocs/op", allocs)
	const ceiling = 6
	if allocs > ceiling {
		t.Errorf("memo-hit Buy allocates %v/op, ceiling %d", allocs, ceiling)
	}
}
