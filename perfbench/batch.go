package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"privrange"
	"privrange/internal/dataset"
	"privrange/internal/estimator"
	"privrange/internal/market"
	"privrange/internal/workload"
)

const (
	// batchSize is the number of ranges per CountBatch.
	batchSize = 64
	// ingestSize is one day of readings at CityPulse's 5-minute cadence.
	ingestSize = 288
	// ingestEvery spaces ingests on the clock, so the run length — not
	// the program's speed — fixes how much the dataset grows. One day
	// of readings per second is an assumed cadence, not a measured one.
	ingestEvery = time.Second
	// batchShards is the broker shard count of batch-ingest.
	batchShards = 4
	// batchSetups is how many times batch-ingest sets up; setup_s is
	// the median. One set-up takes milliseconds, so it takes many.
	batchSetups = 61
	// batchRSSAfter is the batch count at which batch-ingest reads its
	// peak RSS: about 10 s into the window on the reference VM.
	batchRSSAfter = 8000
	// zMargin is the one-sided normal quantile (p = 0.001) of the
	// binomial margin the accuracy check allows.
	zMargin = 3.09
)

// batchOp is one step of the batch-ingest loop: a batch (index into the
// pre-generated batches) or, when ingest is set, the next day of
// readings.
type batchOp struct {
	ingest bool
	idx    int
}

type batchInputs struct {
	initial []float64
	stream  []float64 // readings ingested, ingestSize at a time
	ranges  [][]privrange.Range
	seed    uint64
	strict  privrange.Accuracy
}

// acc is batch idx's accuracy: a fresh continuous (α, δ), never looser
// to plan than the warm-up's strictest one, so no plan repeats however
// many batches a run gets through. It is a pure function of the seed
// and idx (two SplitMix64 outputs). The ranges α ∈ [0.05, 0.30] and
// δ ∈ [0.5, 0.9] are assumed, not measured.
func (in *batchInputs) acc(idx int) privrange.Accuracy {
	x := in.seed + uint64(2*idx)*0x9e3779b97f4a7c15
	u := func() float64 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return float64((z^z>>31)>>11) / (1 << 53)
	}
	return privrange.Accuracy{Alpha: 0.05 + 0.25*u(), Delta: 0.5 + 0.4*u()}
}

func newBatchInputs(seed int64, seconds int) (*batchInputs, error) {
	days := seconds + 2
	series, err := dataset.GenerateSeries(dataset.Ozone, dataset.GenerateConfig{Seed: seed, Records: dataset.CityPulseRecords + days*ingestSize})
	if err != nil {
		return nil, err
	}
	in := &batchInputs{
		initial: series.Values[:dataset.CityPulseRecords],
		stream:  series.Values[dataset.CityPulseRecords:],
		seed:    uint64(seed),
		strict:  privrange.Accuracy{Alpha: 0.05, Delta: 0.9},
	}
	const batches = 512
	qs, err := workload.QuantileAnchored{Values: in.initial, Seed: seed}.Queries(batches * batchSize)
	if err != nil {
		return nil, err
	}
	for b := 0; b < batches; b++ {
		rs := make([]privrange.Range, batchSize)
		for i := range rs {
			q := qs[b*batchSize+i]
			rs[i] = privrange.Range{L: q.L, U: q.U}
		}
		in.ranges = append(in.ranges, rs)
	}
	return in, nil
}

// batchRig is one set-up of batch-ingest.
type batchRig struct {
	sys             *privrange.System
	sorted          []float64 // the live dataset, sorted, for exact counts
	fed             int       // ingests applied
	nextIngest      time.Time // when the loop ingests next
	ops             []batchOp // ops the loop ran, in order
	bits            []uint64  // released value bits of the checked prefix
	hits            int       // answers within α·n of the exact count
	total           int
	wantSum, varSum float64 // Σδ and Σδ(1−δ) over answers
}

func setUpBatch(seed int64, in *batchInputs) (*batchRig, error) {
	sys, err := privrange.NewSystem(in.initial, privrange.Options{Nodes: nodes, Shards: batchShards, Seed: seed})
	if err != nil {
		return nil, err
	}
	rig := &batchRig{sys: sys, sorted: append([]float64(nil), in.initial...)}
	sort.Float64s(rig.sorted)
	if _, err := sys.CountBatch(in.ranges[0], in.strict); err != nil {
		return nil, fmt.Errorf("warm-up batch: %w", err)
	}
	return rig, nil
}

// do runs one op and returns its duration and released answers.
func (r *batchRig) do(in *batchInputs, op batchOp) (time.Duration, []*privrange.Answer, error) {
	if op.ingest {
		day := in.stream[r.fed*ingestSize : (r.fed+1)*ingestSize]
		t0 := time.Now()
		err := r.sys.Ingest(day)
		d := time.Since(t0)
		r.fed++
		r.sorted = append(r.sorted, day...)
		sort.Float64s(r.sorted)
		return d, nil, err
	}
	ranges, acc := in.ranges[op.idx%len(in.ranges)], in.acc(op.idx)
	t0 := time.Now()
	ans, err := r.sys.CountBatch(ranges, acc)
	return time.Since(t0), ans, err
}

// check scores answers against exact counts from the sorted dataset.
func (r *batchRig) check(ranges []privrange.Range, acc privrange.Accuracy, ans []*privrange.Answer) {
	n := float64(len(r.sorted))
	for i, a := range ans {
		lo := sort.SearchFloat64s(r.sorted, ranges[i].L)
		hi := sort.Search(len(r.sorted), func(j int) bool { return r.sorted[j] > ranges[i].U })
		if math.Abs(a.Value-float64(hi-lo)) <= acc.Alpha*n {
			r.hits++
		}
		r.total++
		r.wantSum += acc.Delta
		r.varSum += acc.Delta * (1 - acc.Delta)
		if len(r.bits) < digestPrefix {
			r.bits = append(r.bits, math.Float64bits(a.Value))
		}
	}
}

// batchRun records loops: batch and ingest latencies, the gaps between
// traced calls, the answers released and each batch's plan key (α, δ, rate,
// n).
type batchRun struct {
	batches, ingests []sample
	gaps             []float64
	answers          int
	keys             [][4]float64
}

// loop runs ops from one caller for d, batches numbered from first,
// ingesting whenever the rig's ingest clock is due, and adds them to
// run. It returns the next batch number.
func (r *batchRig) loop(in *batchInputs, d time.Duration, first int, rec *recorder, mark *rssMark, run *batchRun) (int, error) {
	start := time.Now()
	idx := first
	last := start
	for time.Since(start) < d {
		op := batchOp{idx: idx}
		if !time.Now().Before(r.nextIngest) && (r.fed+1)*ingestSize <= len(in.stream) {
			op = batchOp{ingest: true}
			r.nextIngest = r.nextIngest.Add(ingestEvery)
		} else {
			idx++
		}
		name := "bench.count_batch"
		if op.ingest {
			name = "bench.ingest"
		}
		if rec != nil {
			run.gaps = append(run.gaps, float64(time.Since(last))/float64(time.Millisecond))
		}
		var dur time.Duration
		var ans []*privrange.Answer
		var err error
		call := func() { dur, ans, err = r.do(in, op) }
		if rec != nil {
			rec.time(name, call)
		} else {
			call()
		}
		if err != nil {
			return idx, fmt.Errorf("%s: %w", name, err)
		}
		r.ops = append(r.ops, op)
		if op.ingest {
			run.ingests = append(run.ingests, sample{lat: dur})
		} else {
			run.batches = append(run.batches, sample{lat: dur})
			run.answers += len(ans)
			acc := in.acc(op.idx)
			run.keys = append(run.keys, [4]float64{acc.Alpha, acc.Delta, r.sys.SamplingRate(), float64(r.sys.N())})
			r.check(in.ranges[op.idx%len(in.ranges)], acc, ans)
			mark.tick(len(run.batches))
		}
		last = time.Now()
	}
	return idx, nil
}

func runBatchIngest(cfg config, rep *report) error {
	in, err := newBatchInputs(cfg.seed, cfg.seconds)
	if err != nil {
		return err
	}
	rig, setupS, err := setUpMany(batchSetups,
		func() (*batchRig, error) { return setUpBatch(cfg.seed, in) },
		func(*batchRig) error { return nil })
	if err != nil {
		return err
	}
	rate := rig.sys.SamplingRate()
	plain, traced := &batchRun{}, &batchRun{}
	rec := &recorder{}
	mark := &rssMark{after: batchRSSAfter}
	rig.nextIngest = time.Now()
	if cfg.trace {
		next := 1
		err = alternate(cfg.window(), func(d time.Duration, on bool) error {
			if on {
				next, err = rig.loop(in, d, next, rec, nil, traced)
			} else {
				next, err = rig.loop(in, d, next, nil, nil, plain)
			}
			return err
		})
	} else {
		_, err = rig.loop(in, cfg.window(), 1, nil, mark, plain)
		mark.take()
	}
	if err != nil {
		return err
	}
	for range len(rig.ops) {
		rep.ops.note(outcomeOK)
	}

	sum := summarize(plain.batches, closedWindows)
	ingest := summarize(plain.ingests, 1)
	perS := sum.rate * batchSize
	rep.note("closed loop, one caller: batches of %d ranges at fresh (α, δ), S=%d, %d nodes; an ingest of %d readings every %v",
		batchSize, batchShards, nodes, ingestSize, ingestEvery)
	rep.note("untraced: batch_p50_ms %.4f batch_p90_ms %.4f batch_p99_ms %.4f batch_p999_ms %.4f (n=%d; p99 is the median of per-window p99s)",
		sum.p50, sum.p90, sum.p99, sum.p999, sum.n)
	rep.note("ingest_p50_ms %.4f (n=%d)", ingest.p50, ingest.n)
	rep.note("answers_per_s %.1f (median over %d windows of answers per second busy in CountBatch; %d answers)", perS, rateWindows, plain.answers)

	rep.verify("no-collection-in-window", rig.sys.SamplingRate() == rate,
		"sampling rate %.6g after warm-up, %.6g at the end (ingests refresh at the held rate)", rate, rig.sys.SamplingRate())
	margin := zMargin * math.Sqrt(rig.varSum)
	rep.verify("answers-within-alpha-n", float64(rig.hits) >= rig.wantSum-margin,
		"%d of %d answers within α·n of the exact count; need ≥ Σδ − %.2f·sqrt(Σδ(1−δ)) = %.1f − %.1f",
		rig.hits, rig.total, zMargin, rig.wantSum, margin)
	if err := checkBatchReplay(cfg.seed, rep, in, rig.ops, rig.bits); err != nil {
		return err
	}

	if cfg.trace {
		tp50 := summarize(traced.batches, 1).p50
		rep.note("traced batch p50 %.4f ms (n=%d) vs untraced %.4f ms, over %d alternating segments each; System has no tracing, so only the benchmark's own spans are traced",
			tp50, len(traced.batches), sum.p50, traceSegments)
		rep.layer("telemetry.trace_overhead_ratio", tp50/sum.p50, "ratio")
		return batchLayers(cfg, rep, in, plain, traced, rec.all())
	}
	if mark.err != nil {
		return mark.err
	}
	reportClosed(rep, batchSetups, setupS, mark, sum, perS)
	return nil
}

// checkBatchReplay re-runs the ops that released the checked prefix on
// a fresh system with the same seed and requires bit-identical values.
func checkBatchReplay(seed int64, rep *report, in *batchInputs, ops []batchOp, want []uint64) error {
	twin, err := setUpBatch(seed, in)
	if err != nil {
		return err
	}
	for _, op := range ops {
		if len(twin.bits) >= len(want) {
			break
		}
		_, ans, err := twin.do(in, op)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		if !op.ingest {
			twin.check(in.ranges[op.idx%len(in.ranges)], in.acc(op.idx), ans)
		}
	}
	got := twin.bits
	if len(got) > len(want) {
		got = got[:len(want)]
	}
	a, b := digest(want), digest(got)
	rep.verify("releases-deterministic", a == b, "digest of %d released values %016x, replay %016x", len(want), a, b)
	return nil
}

// batchLayers reports batch-ingest's per-layer metrics. The workload
// never touches the market, so every layer's cost, the market's too,
// comes from the in-process probes on its inputs.
func batchLayers(cfg config, rep *report, in *batchInputs, run, traced *batchRun, spans []span) error {
	sort.Float64s(traced.gaps)
	rep.layer("load.gen_lag_p99_ms", nearestRank(traced.gaps, 0.99), "ms")
	rep.layer("optimize.repeat_key_share", repeatShare(append(run.keys, traced.keys...)), "ratio")
	if err := writeSpans(spanFile(cfg), spans); err != nil {
		return err
	}
	reportSelf(rep, spans, len(spans))
	pi := probeInputs{seed: cfg.seed, values: in.initial}
	for b, rs := range in.ranges {
		acc := in.acc(b)
		for _, r := range rs {
			pi.queries = append(pi.queries, estimator.Query{L: r.L, U: r.U})
			pi.accs = append(pi.accs, estimator.Accuracy{Alpha: acc.Alpha, Delta: acc.Delta})
			if len(pi.requests) < 4096 {
				pi.requests = append(pi.requests, market.Request{Op: "buy", Dataset: "ozone", Customer: customer(b % customerCount),
					L: r.L, U: r.U, Alpha: acc.Alpha, Delta: acc.Delta})
			}
		}
	}
	return runProbes(cfg, rep, pi)
}
