package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"privrange"
	"privrange/internal/estimator"
	"privrange/internal/market"
	"privrange/internal/pricing"
	"privrange/internal/stats"
)

const (
	// digestPrefix is how many releases the determinism check replays.
	digestPrefix = 2000
	// buyRequests is how many generated buys the loop cycles through.
	buyRequests = 4096
	// buySetups is how many times buy-serial sets up; setup_s is the
	// median.
	buySetups = 15
	// buyRSSAfter is the sale count at which buy-serial reads its peak
	// RSS: about 0.6 s into the window on the reference VM. Later, the
	// ledger's growth and the collector's timing make the reading swing
	// by several percent.
	buyRSSAfter = 2000
)

// buyRig is one set-up of buy-serial: a marketplace with telemetry on
// (as the production daemon runs it) and an ops endpoint the run
// scrapes.
type buyRig struct {
	mp       *privrange.Marketplace
	ops      *privrange.OpsServer
	releases []uint64 // released value bits, in order, up to digestPrefix
	sold     int      // sales made
	lastID   int64    // the last sale's receipt id
	skips    int      // sales whose receipt id did not follow the last one
	bad      int
}

// newBuyMarket registers the corpus on a fresh marketplace.
func newBuyMarket(c *corpus, seed int64) (*privrange.Marketplace, error) {
	mp, err := privrange.NewMarketplace(privrange.Tariff{Base: 1, C: 1e9})
	if err != nil {
		return nil, err
	}
	for i, name := range c.names {
		if err := mp.AddDataset(name, c.series[i], privrange.Options{Nodes: nodes, Seed: seed + int64(i) + 1}); err != nil {
			return nil, err
		}
	}
	return mp, nil
}

// buy sells one request and records what the checks need.
func (r *buyRig) buy(req market.Request) error {
	res, err := r.mp.Buy(req.Customer, req.Dataset, req.L, req.U, privrange.Accuracy{Alpha: req.Alpha, Delta: req.Delta})
	if err != nil {
		return err
	}
	if len(r.releases) < digestPrefix {
		r.releases = append(r.releases, math.Float64bits(res.Value))
	}
	if r.sold > 0 && res.ReceiptID != r.lastID+1 {
		r.skips++
	}
	r.lastID = res.ReceiptID
	r.sold++
	if math.IsNaN(res.Value) || math.IsInf(res.Value, 0) || !(res.EpsilonPrime > 0) {
		r.bad++
	}
	return nil
}

func (r *buyRig) close() error {
	if r.ops != nil {
		return r.ops.Close()
	}
	return nil
}

func digest(bits []uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range bits {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

func setUpBuy(c *corpus, seed int64, warm []market.Request) (*buyRig, error) {
	mp, err := newBuyMarket(c, seed)
	if err != nil {
		return nil, err
	}
	mp.EnableTelemetry()
	rig := &buyRig{mp: mp}
	if rig.ops, err = mp.ServeOps("127.0.0.1:0"); err != nil {
		return nil, err
	}
	for _, req := range warm {
		if err := rig.buy(req); err != nil {
			_ = rig.close()
			return nil, fmt.Errorf("warm-up buy: %w", err)
		}
	}
	return rig, nil
}

// closedLoop calls op on requests in order from one caller until d has
// passed, returning per-call samples, the gaps between calls (when
// rec records spans) and the next request's index. mark, when not nil,
// ticks after every call.
func closedLoop(d time.Duration, reqs []market.Request, from int, rec *recorder, name string, mark *rssMark, op func(market.Request) error) (samples []sample, gaps []float64, next int, err error) {
	start := time.Now()
	last := start
	i := from
	for time.Since(start) < d {
		req := reqs[i%len(reqs)]
		t0 := time.Now()
		var callErr error
		if rec != nil {
			gaps = append(gaps, float64(t0.Sub(last))/float64(time.Millisecond))
			rec.time(name, func() { callErr = op(req) })
		} else {
			callErr = op(req)
		}
		last = time.Now()
		if callErr != nil {
			return nil, nil, i, callErr
		}
		samples = append(samples, sample{lat: last.Sub(t0)})
		i++
		mark.tick(len(samples))
	}
	return samples, gaps, i, nil
}

// closedWindows is how many windows a closed loop's p99 and rate are
// the median over.
const closedWindows = 10

// runBuy runs buy-serial: serial Marketplace.Buy sales from one caller
// in a closed loop.
func runBuy(cfg config, rep *report) error {
	c, err := newCorpus(cfg.seed)
	if err != nil {
		return err
	}
	pool, err := newRangePool(c, cfg.seed, 4096)
	if err != nil {
		return err
	}
	warm := warmupBuys(c, pool)
	rng := stats.NewRNG(cfg.seed + 7)
	menu := pricing.DefaultMenu()
	reqs := make([]market.Request, buyRequests)
	for i := range reqs {
		reqs[i] = buyRequest(rng, c, pool, menu)
	}

	rig, setupS, err := setUpMany(buySetups,
		func() (*buyRig, error) { return setUpBuy(c, cfg.seed, warm) },
		func(r *buyRig) error { return r.close() })
	if err != nil {
		return err
	}
	defer rig.close()
	before, err := scrape(rig.ops.Addr())
	if err != nil {
		return err
	}

	var plain, traced []sample
	var gaps []float64
	rec := &recorder{}
	mark := &rssMark{after: buyRSSAfter}
	cpu0 := cpuTime()
	if cfg.trace {
		next := 0
		err = alternate(cfg.window(), func(d time.Duration, on bool) error {
			if !on {
				rig.mp.EnableTracing(0)
				s, _, n, err := closedLoop(d, reqs, next, nil, "", nil, rig.buy)
				plain, next = append(plain, s...), n
				return err
			}
			rig.mp.EnableTracing(64)
			s, g, n, err := closedLoop(d, reqs, next, rec, "bench.buy", nil, rig.buy)
			traced, gaps, next = append(traced, s...), append(gaps, g...), n
			return err
		})
	} else {
		plain, _, _, err = closedLoop(cfg.window(), reqs, 0, nil, "", mark, rig.buy)
		mark.take()
	}
	if err != nil {
		return err
	}
	cpuPerOp := float64(cpuTime()-cpu0) / float64(time.Microsecond) / float64(len(plain)+len(traced))
	for range len(plain) + len(traced) {
		rep.ops.note(outcomeOK)
	}
	sum := summarize(plain, closedWindows)
	rep.note("cpu_us_per_buy %.2f", cpuPerOp)
	rep.note("closed loop, one caller, untraced: buy_p50_ms %.4f buy_p90_ms %.4f buy_p99_ms %.4f buy_p999_ms %.4f (n=%d; p99 is the median of per-window p99s)",
		sum.p50, sum.p90, sum.p99, sum.p999, sum.n)
	rep.note("buys_per_s %.2f (median over %d windows of sales per second busy in Buy)", sum.rate, rateWindows)

	after, err := scrape(rig.ops.Addr())
	if err != nil {
		return err
	}
	collections := after.counter("privrange_iot_collection_rounds_total") - before.counter("privrange_iot_collection_rounds_total")
	rep.verify("no-collection-in-window", collections == 0, "%v collection rounds during the timed window", collections)
	rep.verify("buys-finite", rig.bad == 0, "%d of %d buys had a non-finite value or ε′ <= 0", rig.bad, rig.sold)
	rep.verify("receipts-contiguous", rig.skips == 0, "%d of %d receipt ids did not follow the one before", rig.skips, rig.sold)
	if err := checkReplay(cfg, rep, c, append(warm, reqs...), rig.releases); err != nil {
		return err
	}

	if cfg.trace {
		t := summarize(traced, closedWindows)
		rep.note("traced buy p50 %.4f ms (n=%d) vs untraced %.4f ms (n=%d), over %d alternating segments each",
			t.p50, t.n, sum.p50, sum.n, traceSegments)
		rep.layer("telemetry.trace_overhead_ratio", t.p50/sum.p50, "ratio")
		tw, err := scrapeTraces(rig.ops.Addr())
		if err != nil {
			return err
		}
		return buyLayers(cfg, rep, c, before, after, reqs, gaps, nestByTime(rec.all(), fromWire(tw)))
	}
	if mark.err != nil {
		return mark.err
	}
	reportClosed(rep, buySetups, setupS, mark, sum, sum.rate)
	return nil
}

// reportClosed adds a closed-loop workload's end-to-end metrics. Tail
// percentiles stay in the human report: on a two-CPU host with CPU steal
// their run-to-run spread is several times any usable bound.
func reportClosed(rep *report, setups int, setupS float64, rss *rssMark, s summary, throughput float64) {
	rep.e2e("setup_s", setupS, "s", setups)
	rep.e2e("latency_p50_ms", s.p50, "ms", s.n)
	rep.e2e("throughput_per_s", throughput, "1/s", s.n)
	rep.e2e("peak_rss_mb", rss.mb, "MB", min(rss.after, s.n))
}

// checkReplay re-runs the first releases on a fresh marketplace with the
// same seed and requires bit-identical values.
func checkReplay(cfg config, rep *report, c *corpus, reqs []market.Request, want []uint64) error {
	mp, err := newBuyMarket(c, cfg.seed)
	if err != nil {
		return err
	}
	twin := &buyRig{mp: mp}
	for _, req := range reqs[:len(want)] {
		if err := twin.buy(req); err != nil {
			return fmt.Errorf("replay buy: %w", err)
		}
	}
	a, b := digest(want), digest(twin.releases)
	rep.verify("releases-deterministic", a == b, "digest of %d released values %016x, replay %016x", len(want), a, b)
	return nil
}

// nestByTime parents each of the program's server-originated root spans
// on the benchmark span whose interval contains it (one caller, so the
// match is unique) and keeps only the benchmark spans that were
// traced inside the program.
func nestByTime(bench, program []span) []span {
	var out []span
	j := 0
	roots := make([]int, 0)
	for i, s := range program {
		if s.Parent == "" {
			roots = append(roots, i)
		}
	}
	for _, b := range bench {
		for j < len(roots) && program[roots[j]].Start < b.Start {
			j++
		}
		if j < len(roots) && program[roots[j]].end() <= b.end() {
			root := &program[roots[j]]
			b.Trace = root.Trace
			root.Parent = b.ID
			out = append(out, b)
		}
	}
	return append(out, program...)
}

// buyLayers reports buy-serial's per-layer metrics: the run's own
// counters, then the in-process layer probes on the workload's inputs
// (the serving probe stands in for the transport and coalescer this
// workload bypasses, the settle probe for its missing WAL).
func buyLayers(cfg config, rep *report, c *corpus, before, after snapshot, reqs []market.Request, gaps []float64, spans []span) error {
	sales := after.counter("privrange_market_purchases_total") - before.counter("privrange_market_purchases_total")
	sorted := append([]float64(nil), gaps...)
	sort.Float64s(sorted)
	rep.layer("load.gen_lag_p99_ms", nearestRank(sorted, 0.99), "ms")
	// No collection runs in the timed window and every dataset has the
	// same size and fleet, so rate, k and n are fixed and the accuracy is
	// the whole plan key of each of the window's sales.
	keys := make([][2]float64, int(sales))
	for i := range keys {
		r := reqs[i%len(reqs)]
		keys[i] = [2]float64{r.Alpha, r.Delta}
	}
	rep.layer("optimize.repeat_key_share", repeatShare(keys), "ratio")
	if err := writeSpans(spanFile(cfg), spans); err != nil {
		return err
	}
	roots := 0
	for _, s := range spans {
		if s.Name == "bench.buy" {
			roots++
		}
	}
	reportSelf(rep, spans, roots)
	in := probeInputs{seed: cfg.seed, values: c.series[0], requests: reqs}
	for _, r := range reqs {
		in.queries = append(in.queries, estimator.Query{L: r.L, U: r.U})
		in.accs = append(in.accs, r.Accuracy())
	}
	return runProbes(cfg, rep, in)
}
