package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"privrange"
	"privrange/internal/core"
	"privrange/internal/dp"
	"privrange/internal/estimator"
	"privrange/internal/index"
	"privrange/internal/iot"
	"privrange/internal/market"
	"privrange/internal/pricing"
	"privrange/internal/stats"
	"privrange/internal/telemetry"
	"privrange/internal/wire"
)

// probeBudget is how long each layer probe repeats its call.
const probeBudget = 150 * time.Millisecond

// probeInputs are one workload's inputs, re-used to time each layer's
// public functions in isolation after the traced run: the same series,
// ranges, accuracies and protocol messages the workload sent.
type probeInputs struct {
	seed     int64
	values   []float64
	queries  []estimator.Query
	accs     []estimator.Accuracy
	requests []market.Request
}

// perOp repeats f until budget has passed (at least minN times) and
// returns mean nanoseconds per call and mallocs per call.
func perOp(budget time.Duration, minN int, f func(i int)) (ns, allocs float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	start := time.Now()
	n := 0
	for ; n < minN || time.Since(start) < budget; n++ {
		f(n)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms)
	return float64(elapsed.Nanoseconds()) / float64(n), float64(ms.Mallocs-m0) / float64(n)
}

// partition splits values into k contiguous node shares, as the
// facade does.
func partition(values []float64, k int) [][]float64 {
	parts := make([][]float64, k)
	base, extra, off := len(values)/k, len(values)%k, 0
	for i := range parts {
		size := base
		if i < extra {
			size++
		}
		parts[i] = values[off : off+size]
		off += size
	}
	return parts
}

// strictest returns the accuracy that needs the highest sampling rate.
func strictest(accs []estimator.Accuracy) estimator.Accuracy {
	best := accs[0]
	for _, a := range accs[1:] {
		if a.Alpha < best.Alpha || (a.Alpha == best.Alpha && a.Delta > best.Delta) {
			best = a
		}
	}
	return best
}

// probeEngine builds one dataset's engine the way the facade does and
// collects at the rate the workload's strictest accuracy needs.
func probeEngine(in probeInputs) (*core.Engine, *iot.Network, error) {
	nw, err := iot.New(partition(in.values, nodes), iot.Config{Seed: in.seed})
	if err != nil {
		return nil, nil, err
	}
	acct, err := dp.NewAccountant(0)
	if err != nil {
		return nil, nil, err
	}
	eng, err := core.New(nw, core.WithSeed(in.seed+1), core.WithAccountant(acct))
	if err != nil {
		return nil, nil, err
	}
	if _, err := eng.Answer(in.queries[0], strictest(in.accs)); err != nil {
		return nil, nil, fmt.Errorf("probe warm-up: %w", err)
	}
	return eng, nw, nil
}

// runProbes times every layer's public functions on the workload's
// inputs and adds the per-layer metrics.
func runProbes(cfg config, rep *report, in probeInputs) error {
	eng, nw, err := probeEngine(in)
	if err != nil {
		return err
	}
	qs, accs := in.queries, in.accs
	acc := func(i int) estimator.Accuracy { return accs[i%len(accs)] }
	q := func(i int) estimator.Query { return qs[i%len(qs)] }
	var probeErr error
	keep := func(err error) {
		if err != nil && probeErr == nil {
			probeErr = err
		}
	}

	// optimize: one solve of problem (3) on the live snapshot.
	ns, _ := perOp(probeBudget, 8, func(i int) { _, err := eng.Plan(acc(i)); keep(err) })
	rep.layer("optimize.solve_us", ns/1e3, "us")

	// core: one release, a keyed batch and a serial batch of 64.
	ns, allocs := perOp(probeBudget, 8, func(i int) { _, err := eng.Answer(q(i), acc(i)); keep(err) })
	rep.layer("core.answer_us", ns/1e3, "us")
	rep.layer("core.allocs_per_answer", allocs, "count")
	batch := func(i int) []estimator.Query {
		out := make([]estimator.Query, 64)
		for j := range out {
			out[j] = q(i*64 + j)
		}
		return out
	}
	batches := make([][]estimator.Query, 16)
	for i := range batches {
		batches[i] = batch(i)
	}
	ns, _ = perOp(probeBudget, 4, func(i int) { _, err := eng.AnswerBatch(batches[i%16], acc(i)); keep(err) })
	rep.layer("core.batch_us_per_query", ns/64/1e3, "us")
	ns, _ = perOp(probeBudget, 4, func(i int) { _, err := eng.AnswerBatchSerial(batches[i%16], acc(i)); keep(err) })
	rep.layer("core.serial_batch_us_per_query", ns/64/1e3, "us")

	// estimator: the noiseless kernel behind every release.
	ns, _ = perOp(probeBudget, 64, func(i int) { _, err := eng.EstimateOnly(q(i)); keep(err) })
	rep.layer("estimator.ns_per_query", ns, "ns")

	// stats and dp: keying one noise stream, one Laplace draw.
	ns, _ = perOp(probeBudget, 64, func(i int) { _ = stats.NewStream(in.seed, int64(i)) })
	rep.layer("stats.stream_key_ns", ns, "ns")
	plan, err := eng.Plan(acc(0))
	if err != nil {
		return err
	}
	mech, err := dp.NewMechanism(plan.Epsilon, plan.Sensitivity)
	if err != nil {
		return err
	}
	rng := stats.NewRNG(in.seed)
	ns, _ = perOp(probeBudget, 64, func(i int) { _ = mech.Perturb(float64(i), rng) })
	rep.layer("dp.perturb_ns", ns, "ns")

	// shard: scatter-gather cost at S=4 against S=1 on identical batches.
	ratio, err := routingRatio(in, batches)
	if err != nil {
		return err
	}
	rep.layer("shard.routing_ratio", ratio, "ratio")

	// iot, wire and index: one collection round at the workload's rate.
	if err := probeCollection(rep, in, nw.Rate()); err != nil {
		return err
	}
	if err := probeWire(rep, nw); err != nil {
		return err
	}

	// market: the protocol codec on the workload's own messages.
	if err := probeCodec(rep, in, eng); err != nil {
		return err
	}
	if err := probeSettle(cfg, rep, in); err != nil {
		return err
	}
	if err := probeServe(rep, in); err != nil {
		return err
	}
	return probeErr
}

// routingRatio times CountBatch at S=4 and S=1 on identical batches,
// alternating, and returns the ratio of their median batch times.
func routingRatio(in probeInputs, batches [][]estimator.Query) (float64, error) {
	var systems [2]*privrange.System
	for i, shards := range []int{4, 1} {
		sys, err := privrange.NewSystem(in.values, privrange.Options{Nodes: nodes, Shards: shards, Seed: in.seed})
		if err != nil {
			return 0, err
		}
		systems[i] = sys
	}
	ranges := make([][]privrange.Range, len(batches))
	for i, b := range batches {
		for _, q := range b {
			ranges[i] = append(ranges[i], privrange.Range{L: q.L, U: q.U})
		}
	}
	warm := strictest(in.accs)
	var times [2][]float64
	for round := -1; round < 24; round++ {
		for s, sys := range systems {
			a := in.accs[(round+1)%len(in.accs)]
			if round < 0 {
				a = warm
			}
			t0 := time.Now()
			if _, err := sys.CountBatch(ranges[(round+1)%len(ranges)], privrange.Accuracy{Alpha: a.Alpha, Delta: a.Delta}); err != nil {
				return 0, err
			}
			if round >= 0 {
				times[s] = append(times[s], float64(time.Since(t0)))
			}
		}
	}
	return median(times[0]) / median(times[1]), nil
}

// probeCollection times a fresh fleet's first collection round at rate
// and reports the communication it billed, then the index build.
func probeCollection(rep *report, in probeInputs, rate float64) error {
	var ms, samples, bytes, build []float64
	var idxBytes float64
	for round := 0; round < 3; round++ {
		nw, err := iot.New(partition(in.values, nodes), iot.Config{Seed: in.seed + int64(round)})
		if err != nil {
			return err
		}
		c0 := nw.Cost()
		t0 := time.Now()
		if _, err := nw.EnsureRate(rate); err != nil {
			return err
		}
		ms = append(ms, float64(time.Since(t0))/1e6)
		c1 := nw.Cost()
		samples = append(samples, float64(c1.SamplesShipped-c0.SamplesShipped))
		bytes = append(bytes, float64(c1.Bytes-c0.Bytes))
		sets := nw.SampleSets()
		t0 = time.Now()
		ix, err := index.Build(sets)
		if err != nil {
			return err
		}
		build = append(build, float64(time.Since(t0))/1e6)
		idxBytes = float64(ix.MemoryBytes())
	}
	rep.layer("iot.collect_ms", median(ms), "ms")
	rep.layer("iot.samples_shipped", median(samples), "count")
	rep.layer("iot.bytes_shipped", median(bytes), "bytes")
	rep.layer("index.build_ms", median(build), "ms")
	rep.layer("index.bytes", idxBytes, "bytes")
	return nil
}

// probeWire round-trips every node's sample report through the node
// protocol codec.
func probeWire(rep *report, nw *iot.Network) error {
	sets := nw.SampleSets()
	msgs := make([]*wire.SampleReport, len(sets))
	total, size := 0, 0
	for i, s := range sets {
		msgs[i] = &wire.SampleReport{NodeID: i, N: s.N, Replace: true, Samples: s.Samples}
		total += len(s.Samples)
		b, err := wire.Encode(msgs[i])
		if err != nil {
			return err
		}
		size += len(b)
	}
	if total == 0 {
		return fmt.Errorf("probe fleet holds no samples")
	}
	encoded := make([][]byte, len(msgs))
	var werr error
	ns, _ := perOp(probeBudget, 4, func(int) {
		for i, m := range msgs {
			b, err := wire.Encode(m)
			if err != nil {
				werr = err
			}
			encoded[i] = b
		}
	})
	rep.layer("wire.encode_ns_per_sample", ns/float64(total), "ns")
	ns, _ = perOp(probeBudget, 4, func(int) {
		for _, b := range encoded {
			if _, _, err := wire.Decode(b); err != nil {
				werr = err
			}
		}
	})
	rep.layer("wire.decode_ns_per_sample", ns/float64(total), "ns")
	rep.layer("wire.bytes_per_sample", float64(size)/float64(total), "bytes")
	return werr
}

// probeCodec times encoding/json on the workload's requests and on a
// buy response of the kind the broker sends back.
func probeCodec(rep *report, in probeInputs, eng *core.Engine) error {
	ans, err := eng.Answer(in.queries[0], in.accs[0])
	if err != nil {
		return err
	}
	resp := market.Response{
		ID: 1, OK: true, Price: 1234.5, Variance: 9876.5, Value: ans.Value, Clamped: ans.Clamped(),
		EpsilonPrime: ans.Plan.EpsilonPrime, Rate: ans.Rate, Coverage: ans.Coverage, CollectionVersion: ans.CollectionVersion,
		Receipt: &market.Receipt{ID: 42, Customer: "c01", Dataset: "ozone", L: in.queries[0].L, U: in.queries[0].U,
			Alpha: in.accs[0].Alpha, Delta: in.accs[0].Delta, Price: 1234.5, EpsilonPrime: ans.Plan.EpsilonPrime, Coverage: 1},
	}
	reqs := append([]market.Request(nil), in.requests...)
	wireReqs := make([][]byte, len(reqs))
	for i := range reqs {
		reqs[i].ID = uint64(i + 1)
		b, err := json.Marshal(reqs[i])
		if err != nil {
			return err
		}
		wireReqs[i] = b
	}
	wireResp, err := json.Marshal(resp)
	if err != nil {
		return err
	}
	var cerr error
	encNs, encAllocs := perOp(probeBudget, 64, func(i int) {
		if _, err := json.Marshal(&reqs[i%len(reqs)]); err != nil {
			cerr = err
		}
		if _, err := json.Marshal(&resp); err != nil {
			cerr = err
		}
	})
	decNs, decAllocs := perOp(probeBudget, 64, func(i int) {
		var r market.Request
		if err := json.Unmarshal(wireReqs[i%len(wireReqs)], &r); err != nil {
			cerr = err
		}
		var out market.Response
		if err := json.Unmarshal(wireResp, &out); err != nil {
			cerr = err
		}
	})
	rep.layer("market.codec.encode_ns", encNs/2, "ns")
	rep.layer("market.codec.decode_ns", decNs/2, "ns")
	rep.layer("market.codec.allocs", (encAllocs+decAllocs)/2, "count")
	return cerr
}

// probeBroker registers one engine over the workload's series on a
// fresh broker.
func probeBroker(in probeInputs) (*market.Broker, error) {
	eng, _, err := probeEngine(in)
	if err != nil {
		return nil, err
	}
	b, err := market.NewBroker(pricing.BaseFeePlusInverse{Base: 1, C: 1e9})
	if err != nil {
		return nil, err
	}
	if err := b.Register("probe", eng, len(in.values), nodes); err != nil {
		return nil, err
	}
	return b, nil
}

// probeBuys re-targets the workload's ranges and accuracies at the
// probe dataset.
func probeBuys(in probeInputs, n int) []market.Request {
	out := make([]market.Request, n)
	for i := range out {
		q, a := in.queries[i%len(in.queries)], in.accs[i%len(in.accs)]
		out[i] = market.Request{Op: "buy", Dataset: "probe", Customer: customer(i % customerCount), L: q.L, U: q.U, Alpha: a.Alpha, Delta: a.Delta}
	}
	return out
}

// probeSettle times Broker.Buy with a WAL against a twin broker without
// one on the same inputs, then reads the WAL's fsync stage.
func probeSettle(cfg config, rep *report, in probeInputs) error {
	durable, err := probeBroker(in)
	if err != nil {
		return err
	}
	dir := filepath.Join(cfg.workdir, "probe-wal")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := durable.EnableDurability(dir); err != nil {
		return err
	}
	defer durable.CloseDurability()
	plain, err := probeBroker(in)
	if err != nil {
		return err
	}
	buys := probeBuys(in, 4096)
	var berr error
	buy := func(b *market.Broker) func(int) {
		return func(i int) {
			if _, err := b.Buy(buys[i%len(buys)]); err != nil {
				berr = err
			}
		}
	}
	var walNs, plainNs []float64
	for round := 0; round < 3; round++ {
		ns, _ := perOp(probeBudget/3, 4, buy(durable))
		walNs = append(walNs, ns)
		ns, _ = perOp(probeBudget/3, 4, buy(plain))
		plainNs = append(plainNs, ns)
	}
	rep.layer("market.settle_us", median(walNs)/1e3, "us")
	rep.layer("market.settle_nowal_us", median(plainNs)/1e3, "us")

	reg := telemetry.NewRegistry()
	reg.SetTraceSampling(1)
	durable.SetTelemetry(market.NewMetrics(reg))
	for i := 0; i < 64; i++ {
		buy(durable)(i)
	}
	snap := snapshot{reg.Snapshot()}
	count, sum := snap.histogram(telemetry.StageSecondsMetric, "wal.fsync")
	fsyncs := snap.counter("privrange_market_wal_fsyncs_total")
	sales := snap.counter("privrange_market_purchases_total")
	walBytes := snap.counter("privrange_market_wal_bytes_total")
	rep.layer("market.wal.fsync_ms", sum/math.Max(count, 1)*1e3, "ms")
	rep.layer("market.wal.fsyncs_per_sale", fsyncs/math.Max(sales, 1), "ratio")
	rep.layer("market.wal.bytes_per_sale", walBytes/math.Max(sales, 1), "bytes")
	rep.layer("market.wal.compactions", snap.counter("privrange_market_wal_compactions_total"), "count")
	rep.layer("market.wal.snapshot_bytes", fileSize(filepath.Join(dir, "snapshot.json")), "bytes")
	return berr
}

// servingConns is how many pipelined connections the serving probe
// opens: one per CPU of the two-CPU reference host.
const servingConns = 2

// requestTimeout bounds one exchange of the serving probe.
const requestTimeout = 5 * time.Second

// probeServe serves a coalescing probe broker on loopback, as the
// daemon runs, and sends the workload's buys, every one traced, from
// pipelined clients with 32 in flight: the client's span minus the
// server's handler span is the transport's share, and the broker's
// counters show how the coalescer folded them.
func probeServe(rep *report, in probeInputs) error {
	b, err := probeBroker(in)
	if err != nil {
		return err
	}
	reg := telemetry.NewRegistry()
	b.SetTelemetry(market.NewMetrics(reg))
	coal := b.EnableCoalescing(market.CoalesceConfig{})
	defer coal.Close()
	srv, err := market.Serve(b, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	buf := telemetry.NewSpanBuf(1 << 12)
	var clients []*market.Client
	for i := 0; i < servingConns; i++ {
		c, err := market.Dial(srv.Addr(), market.WithPipelining(), market.WithTracing(1, buf), market.WithRequestTimeout(requestTimeout))
		if err != nil {
			return err
		}
		defer c.Close()
		clients = append(clients, c)
	}
	buys := probeBuys(in, 1024)
	gauges := pollGauges(func() snapshot { return snapshot{reg.Snapshot()} }, 5*time.Millisecond)
	outs := make([]outcome, len(buys))
	var wg sync.WaitGroup
	sem := make(chan struct{}, 32)
	for i, req := range buys {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int, req market.Request) {
			defer wg.Done()
			defer func() { <-sem }()
			outs[i] = classify(clients[i%len(clients)].Do(req))
		}(i, req)
	}
	wg.Wait()
	occupancy, queue := gauges()
	errs := 0
	for _, o := range outs {
		if o != outcomeOK && o != outcomeShed {
			errs++
		}
	}
	snap := snapshot{reg.Snapshot()}
	batches := snap.counter("privrange_market_coalesce_batches_total")
	rep.layer("market.transport.client_minus_server_ms", median(joinClientServer(fromBuf(buf), fromWire(reg.TraceSpans()))), "ms")
	rep.layer("market.coalesce.batches", batches, "count")
	rep.layer("market.coalesce.folded_per_batch", snap.counter("privrange_market_coalesce_folded_total")/math.Max(batches, 1), "ratio")
	rep.layer("market.pipeline_occupancy", occupancy, "ratio")
	rep.layer("market.engine_queue_depth", queue, "count")
	rep.layer("market.shed", snap.counter("privrange_market_shed_total"), "count")
	rep.layer("market.errors", float64(errs), "count")
	return nil
}

// classify maps a protocol exchange to an outcome. Sheds and timeouts
// are failures like any error.
func classify(resp *market.Response, err error) outcome {
	switch {
	case err != nil && errors.Is(err, os.ErrDeadlineExceeded):
		return outcomeTimeout
	case err != nil:
		return outcomeError
	case resp.Retryable:
		return outcomeShed
	case !resp.OK:
		return outcomeError
	default:
		return outcomeOK
	}
}

// pollGauges samples the broker's saturation gauges until the returned
// func is called, which stops the poller and returns their means.
func pollGauges(scrape func() snapshot, every time.Duration) func() (occupancy, queue float64) {
	stop := make(chan struct{})
	done := make(chan struct{})
	var occ, q []float64
	go func() {
		defer close(done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				s := scrape()
				occ = append(occ, s.gauge("privrange_market_pipeline_occupancy"))
				q = append(q, s.gauge("privrange_market_engine_queue_depth"))
			}
		}
	}()
	return func() (float64, float64) {
		close(stop)
		<-done
		return mean(occ), mean(q)
	}
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// joinClientServer pairs each client span with the server span it
// parented (same trace id) and returns client − server durations in ms.
func joinClientServer(client, server []span) []float64 {
	type key struct{ trace, parent string }
	byParent := make(map[key]span)
	for _, s := range server {
		if s.Parent != "" {
			byParent[key{s.Trace, s.Parent}] = s
		}
	}
	var out []float64
	for _, c := range client {
		if s, ok := byParent[key{c.Trace, c.ID}]; ok {
			out = append(out, float64(c.Dur-s.Dur)/1e6)
		}
	}
	return out
}

func fileSize(path string) float64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(st.Size())
}
