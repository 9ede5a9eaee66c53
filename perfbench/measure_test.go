package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	"privrange"
	"privrange/internal/market"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestNearestRankPercentiles(t *testing.T) {
	var d dist
	for i := 100; i >= 1; i-- {
		d.add(sample{lat: time.Duration(i) * time.Millisecond})
	}
	d.finish()
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 99}, {0.999, 100}, {0.01, 1}, {0, 1}, {1, 100}} {
		if got := d.quantile(c.q); got != c.want {
			t.Errorf("q%.3f = %v, want %v", c.q, got, c.want)
		}
	}
	if got := (&dist{}).quantile(0.5); !math.IsNaN(got) {
		t.Errorf("empty quantile = %v, want NaN", got)
	}
}

func TestBeyondCountsSamplesAboveThePercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{{1000, 0.99, 10}, {999, 0.99, 9}, {100, 0.99, 1}, {1000, 0.5, 500}, {0, 0.99, 0}} {
		if got := beyond(c.n, c.q); got != c.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
}

func TestFailuresCountAsMissingEveryLimit(t *testing.T) {
	var d dist
	for i := 0; i < 98; i++ {
		d.add(sample{lat: time.Millisecond})
	}
	d.add(sample{out: outcomeShed})
	d.add(sample{out: outcomeTimeout})
	d.finish()
	if d.failed != 2 || len(d.lat) != 100 {
		t.Fatalf("failed %d of %d, want 2 of 100", d.failed, len(d.lat))
	}
	if p := d.quantile(0.99); !math.IsInf(p, 1) {
		t.Errorf("p99 with 2%% failures = %v, want +Inf", p)
	}
	if p := d.quantile(0.5); p != 1 {
		t.Errorf("p50 = %v, want 1ms", p)
	}
	var tl tally
	for _, o := range []outcome{outcomeOK, outcomeError, outcomeShed, outcomeTimeout, outcomeError, outcomeOK} {
		tl.note(o)
	}
	if tl.attempted != 6 || tl.failed != 4 {
		t.Errorf("tally %+v", tl)
	}
}

func TestMedian(t *testing.T) {
	v := []float64{4, 1, 3, 2}
	if got := median(v); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if v[0] != 4 {
		t.Error("median reordered its input")
	}
}

func TestWindowCountKeepsTenSamplesBeyondP99(t *testing.T) {
	for _, c := range []struct{ n, max, want int }{
		{10000, 10, 10}, {5000, 10, 5}, {1999, 4, 1}, {2000, 4, 2}, {50, 4, 1}, {0, 4, 1},
	} {
		if got := windowCount(c.n, c.max); got != c.want {
			t.Errorf("windowCount(%d, %d) = %d, want %d", c.n, c.max, got, c.want)
		}
	}
}

func TestSummarizeRateIsTheMedianWindow(t *testing.T) {
	var ss []sample
	for w := 0; w < 3; w++ {
		lat := time.Millisecond
		if w == 1 {
			lat = 10 * time.Millisecond // one slow window
		}
		for i := 0; i < 1000; i++ {
			ss = append(ss, sample{lat: lat})
		}
	}
	s := summarize(ss, 3)
	if s.n != 3000 || !near(s.rate, 1000) || s.p50 != 1 {
		t.Errorf("summary %+v", s)
	}
}

func TestWindowedP99IgnoresOneStalledWindow(t *testing.T) {
	var ss []sample
	for w := 0; w < 4; w++ {
		for i := 0; i < 1000; i++ {
			lat := time.Duration(1+i%10) * time.Millisecond
			if w == 2 && i%50 == 0 {
				lat = time.Second // a stall in one window
			}
			ss = append(ss, sample{lat: lat})
		}
	}
	p99, n := windowedP99(ss, 4)
	if n != 4000 || p99 != 10 {
		t.Errorf("windowed p99 = %v over %d, want 10 over 4000", p99, n)
	}
	// Too few samples for four windows of 1000: fewer windows.
	if p, n := windowedP99(ss[:1500], 4); n != 1500 || p != 10 {
		t.Errorf("short windowed p99 = %v over %d", p, n)
	}
}

func TestClassify(t *testing.T) {
	deadline := fmt.Errorf("market: read: %w", os.ErrDeadlineExceeded)
	for _, c := range []struct {
		resp *market.Response
		err  error
		want outcome
	}{
		{&market.Response{OK: true}, nil, outcomeOK},
		{&market.Response{Retryable: true, Error: "overloaded"}, nil, outcomeShed},
		{&market.Response{Error: "insufficient funds"}, nil, outcomeError},
		{nil, deadline, outcomeTimeout},
		{nil, errors.New("connection reset"), outcomeError},
	} {
		if got := classify(c.resp, c.err); got != c.want {
			t.Errorf("classify(%+v, %v) = %v, want %v", c.resp, c.err, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{Trace: "t", ID: "a", Name: "client.request", Start: 0, Dur: 100},
		{Trace: "t", ID: "b", Parent: "a", Name: "market.buy", Start: 10, Dur: 80},
		{Trace: "t", ID: "c", Parent: "b", Name: "market.buy.answer", Start: 20, Dur: 30},
		{Trace: "t", ID: "d", Parent: "b", Name: "wal.fsync", Start: 40, Dur: 30},       // overlaps c
		{Trace: "t", ID: "e", Parent: "b", Name: "market.buy.late", Start: 85, Dur: 20}, // runs past b
		{Trace: "u", ID: "c", Parent: "a", Name: "other", Start: 0, Dur: 50},            // other trace
	}
	got := selfTimes(spans)
	want := []int64{20, 80 - 50 - 5, 30, 30, 20, 50}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	by := layerSelf(spans)
	if by["client"] != 0.02 || by["market.wal"] != 0.03 {
		t.Errorf("layer self times %v", by)
	}
}

func TestLayerOf(t *testing.T) {
	for name, want := range map[string]string{
		"client.request": "client", "bench.buy": "client", "market.buy": "market",
		"market.buy.price": "market", "market.batch_sale.fsync": "market", "wal.fsync": "market.wal",
		"core.answer_batch_serial.optimize": "optimize", "core.answer.estimate": "estimator",
		"core.answer.perturb": "dp", "core.shard_scatter": "shard", "core.answer": "core",
	} {
		if got := layerOf(name); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestJoinClientServer(t *testing.T) {
	client := []span{{Trace: "t1", ID: "c1", Dur: 3e6}, {Trace: "t2", ID: "c2", Dur: 5e6}}
	server := []span{
		{Trace: "t1", ID: "s1", Parent: "c1", Dur: 1e6},
		{Trace: "t1", ID: "s2", Parent: "s1", Dur: 5e5},
		{Trace: "t3", ID: "s3", Parent: "c2", Dur: 1e6}, // other trace
	}
	got := joinClientServer(client, server)
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("joins = %v, want [2]", got)
	}
}

func TestNestByTimeParentsProgramRootsOnTheirCall(t *testing.T) {
	bench := []span{
		{ID: "b1", Name: "bench.buy", Start: 0, Dur: 100},
		{ID: "b2", Name: "bench.buy", Start: 100, Dur: 100},
		{ID: "b3", Name: "bench.buy", Start: 200, Dur: 100},
	}
	program := []span{
		{Trace: "p1", ID: "r1", Name: "market.buy", Start: 110, Dur: 80},
		{Trace: "p1", ID: "k1", Parent: "r1", Name: "wal.fsync", Start: 150, Dur: 30},
	}
	out := nestByTime(bench, program)
	if len(out) != 3 || out[0].ID != "b2" || out[0].Trace != "p1" || out[1].Parent != "b2" {
		t.Fatalf("nested = %+v", out)
	}
	self := selfTimes(out)
	if self[0] != 20 || self[1] != 50 {
		t.Errorf("self times %v, want [20 50 30]", self)
	}
}

func TestNestPhasesMovesCalleesUnderTheirPhase(t *testing.T) {
	spans := []span{
		{Trace: "t", ID: "op", Name: "market.buy", Start: 0, Dur: 100},
		{Trace: "t", ID: "p1", Parent: "op", Name: "market.buy.price", Start: 0, Dur: 10},
		{Trace: "t", ID: "p2", Parent: "op", Name: "market.buy.answer", Start: 10, Dur: 60},
		{Trace: "t", ID: "p3", Parent: "op", Name: "market.buy.fsync", Start: 70, Dur: 30},
		{Trace: "t", ID: "eng", Parent: "op", Name: "core.answer", Start: 12, Dur: 50},
		{Trace: "t", ID: "opt", Parent: "eng", Name: "core.answer.optimize", Start: 12, Dur: 40},
		{Trace: "t", ID: "wal", Parent: "op", Name: "wal.fsync", Start: 72, Dur: 25},
	}
	nested := nestPhases(spans)
	if nested[4].Parent != "p2" || nested[6].Parent != "p3" || nested[5].Parent != "eng" || nested[1].Parent != "op" {
		t.Fatalf("parents after nesting: %+v", nested)
	}
	by := layerSelf(spans)
	// market: op 0 + price 10 + answer 60−50 + fsync 30−25 = 25 µs·1e-3.
	if !near(by["market"], 0.025) || !near(by["core"], 0.010) || !near(by["optimize"], 0.040) || !near(by["market.wal"], 0.025) {
		t.Errorf("layer self times %v", by)
	}
}

func TestRSSMarkReadsOnceAtItsCount(t *testing.T) {
	m := &rssMark{after: 3}
	m.tick(2)
	if m.read {
		t.Fatal("read before its count")
	}
	m.tick(3)
	if !m.read || m.err != nil || m.mb <= 0 {
		t.Fatalf("mark %+v after its count", m)
	}
	first := m.mb
	m.mb = -1
	m.tick(4)
	m.take()
	if m.mb != -1 {
		t.Errorf("read again after %v MB", first)
	}
	var none *rssMark
	none.tick(10) // a nil mark ignores ticks
}

func TestAlternateSplitsTheWindowUntracedFirst(t *testing.T) {
	var got []bool
	var total time.Duration
	err := alternate(20*time.Second, func(d time.Duration, traced bool) error {
		got = append(got, traced)
		total += d
		return nil
	})
	if err != nil || len(got) != 2*traceSegments || total != 20*time.Second {
		t.Fatalf("%d segments over %v, err %v", len(got), total, err)
	}
	for i, traced := range got {
		if traced != (i%2 == 1) {
			t.Fatalf("segment %d traced=%v", i, traced)
		}
	}
	stop := errors.New("stop")
	calls := 0
	if err := alternate(time.Second, func(time.Duration, bool) error { calls++; return stop }); err != stop || calls != 1 {
		t.Errorf("error after %d calls: %v", calls, err)
	}
}

func TestBatchAccuraciesAreFreshAndInRange(t *testing.T) {
	in := &batchInputs{seed: 7}
	seen := make(map[privrange.Accuracy]bool)
	for i := 0; i < 100000; i++ {
		a := in.acc(i)
		if a.Alpha < 0.05 || a.Alpha >= 0.30 || a.Delta < 0.5 || a.Delta >= 0.9 {
			t.Fatalf("acc(%d) = %+v out of range", i, a)
		}
		if seen[a] {
			t.Fatalf("acc(%d) = %+v repeats", i, a)
		}
		seen[a] = true
	}
	if in.acc(5) != (&batchInputs{seed: 7}).acc(5) || in.acc(5) == (&batchInputs{seed: 8}).acc(5) {
		t.Error("acc is not a function of seed and index")
	}
}
