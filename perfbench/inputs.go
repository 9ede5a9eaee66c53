package main

import (
	"fmt"

	"privrange/internal/dataset"
	"privrange/internal/estimator"
	"privrange/internal/market"
	"privrange/internal/pricing"
	"privrange/internal/stats"
	"privrange/internal/workload"
)

// nodes is the simulated IoT fleet size of every workload.
const nodes = 16

// customerCount is how many customer accounts the buys spread over.
const customerCount = 16

// corpus is buy-serial's generated data: one CityPulse-sized series
// per pollutant.
type corpus struct {
	names  []string
	series [][]float64
}

func newCorpus(seed int64) (*corpus, error) {
	table, err := dataset.Generate(dataset.GenerateConfig{Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("generate dataset: %w", err)
	}
	c := &corpus{}
	for _, p := range dataset.Pollutants() {
		s, err := table.Series(p)
		if err != nil {
			return nil, err
		}
		c.names = append(c.names, p.String())
		c.series = append(c.series, s.Values)
	}
	return c, nil
}

// rangePool holds QuantileAnchored ranges per dataset.
type rangePool [][]estimator.Query

func newRangePool(c *corpus, seed int64, perDataset int) (rangePool, error) {
	pool := make(rangePool, len(c.series))
	for i, values := range c.series {
		qs, err := workload.QuantileAnchored{Values: values, Seed: seed + int64(i)}.Queries(perDataset)
		if err != nil {
			return nil, err
		}
		pool[i] = qs
	}
	return pool, nil
}

func customer(i int) string { return fmt.Sprintf("c%02d", i) }

// buyRequest draws one buy over a uniformly chosen dataset with a
// QuantileAnchored range and a uniformly chosen menu accuracy. No
// measured accuracy mix exists to draw from, so every entry of
// pricing.DefaultMenu() is equally likely.
func buyRequest(rng *stats.RNG, c *corpus, pool rangePool, menu []estimator.Accuracy) market.Request {
	ds := rng.Intn(len(c.names))
	q := pool[ds][rng.Intn(len(pool[ds]))]
	acc := menu[rng.Intn(len(menu))]
	return market.Request{
		Op: "buy", Dataset: c.names[ds], Customer: customer(rng.Intn(customerCount)),
		L: q.L, U: q.U, Alpha: acc.Alpha, Delta: acc.Delta,
	}
}

// warmupBuys buys every (dataset, menu accuracy) pair once, so lazy
// re-collection and every first-use allocation happen before timing.
func warmupBuys(c *corpus, pool rangePool) []market.Request {
	var out []market.Request
	for ds, name := range c.names {
		for i, acc := range pricing.DefaultMenu() {
			q := pool[ds][i%len(pool[ds])]
			out = append(out, market.Request{
				Op: "buy", Dataset: name, Customer: customer(i % customerCount),
				L: q.L, U: q.U, Alpha: acc.Alpha, Delta: acc.Delta,
			})
		}
	}
	return out
}
