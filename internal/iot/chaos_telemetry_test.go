package iot

import (
	"errors"
	"testing"

	"privrange/internal/telemetry"
	"privrange/internal/wire"
)

// TestChaosBreakerEventOrdering replays the scripted breaker lifecycle
// (trip → exile → half-open re-trip → doubled backoff → half-open →
// recovery) with telemetry attached and pins the transition event log:
// the exact type sequence, strictly increasing Seq numbers, and the
// node/round attribution operators would correlate during an incident.
func TestChaosBreakerEventOrdering(t *testing.T) {
	t.Parallel()
	parts, _ := buildParts(t, 2, 600, 61)
	nw, err := New(parts, Config{
		Seed:             63,
		FailureThreshold: 2,
		BreakerBackoff:   2,
		Faults:           map[int]FaultProfile{1: {CrashWindows: []CrashWindow{{From: 1, Until: 6}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	m := NewMetrics(reg)
	nw.SetTelemetry(m)

	// Drive the same rounds as TestCircuitBreakerTripsAndReinstates: the
	// crashed node fails rounds 1-2 (trip), is exiled round 3, half-opens
	// and re-trips round 4, sits out the doubled backoff rounds 5-7, and
	// recovers round 8.
	for r := uint64(1); r <= 8; r++ {
		if _, err := nw.EnsureRate(0.3); err != nil && !errors.Is(err, ErrPartialRound) {
			t.Fatalf("round %d: %v", r, err)
		}
	}
	if nw.BreakerOpen(1) {
		t.Fatal("scenario should end with the breaker closed")
	}

	events := m.Events().Events()
	var breaker []telemetry.Event
	for _, ev := range events {
		switch ev.Type {
		case EventBreakerOpen, EventBreakerHalfOpen, EventBreakerClose:
			breaker = append(breaker, ev)
		}
	}

	want := []struct {
		typ   string
		round uint64
	}{
		{EventBreakerOpen, 2},     // threshold 2 hit: exile with backoff 2
		{EventBreakerHalfOpen, 4}, // backoff expired: probation retry
		{EventBreakerOpen, 4},     // retry fails: immediate re-trip
		{EventBreakerHalfOpen, 8}, // doubled backoff (4 rounds) expired
		{EventBreakerClose, 8},    // crash window over: success clears it
	}
	if len(breaker) != len(want) {
		t.Fatalf("breaker events = %d, want %d: %+v", len(breaker), len(want), breaker)
	}
	for i, ev := range breaker {
		if ev.Type != want[i].typ || ev.Round != want[i].round {
			t.Errorf("event %d = %s@round %d, want %s@round %d", i, ev.Type, ev.Round, want[i].typ, want[i].round)
		}
		if ev.Node != 1 {
			t.Errorf("event %d attributed to node %d, want 1", i, ev.Node)
		}
		if i > 0 && ev.Seq <= breaker[i-1].Seq {
			t.Errorf("event %d Seq %d not after %d: ordering must survive scrapes", i, ev.Seq, breaker[i-1].Seq)
		}
	}

	// The labelled transition counters must agree with the event log.
	if got := m.breakerOpens.Value(); got != 2 {
		t.Errorf("open transitions = %d, want 2", got)
	}
	if got := m.breakerHalfOpens.Value(); got != 2 {
		t.Errorf("half-open transitions = %d, want 2", got)
	}
	if got := m.breakerCloses.Value(); got != 1 {
		t.Errorf("close transitions = %d, want 1", got)
	}
}

// TestIndexRebuildFailureCountedNotFatal corrupts a stored sample set so
// the end-of-round index build fails, then checks that collection and
// heartbeat rounds still succeed, serve no index, and count and log
// each failed build.
func TestIndexRebuildFailureCountedNotFatal(t *testing.T) {
	t.Parallel()
	parts, _ := buildParts(t, 3, 600, 67)
	nw, err := New(parts, Config{Seed: 67})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	m := NewMetrics(reg)
	nw.SetTelemetry(m)
	if _, err := nw.EnsureRate(0.3); err != nil {
		t.Fatal(err)
	}
	if m.indexRebuildFailures.Value() != 0 {
		t.Fatal("healthy round counted an index failure")
	}
	// A negative dataset size passes SampleSet validation but not the
	// index's int32 column check.
	if err := nw.base.HandleReport(&wire.SampleReport{NodeID: 0, N: -1, Replace: true}); err != nil {
		t.Fatal(err)
	}
	rep, err := nw.EnsureRate(nw.Rate())
	if err != nil {
		t.Fatalf("failed index build failed the collection round: %v", err)
	}
	if _, idx, _, _, _, _, _ := nw.Snapshot(); idx != nil {
		t.Error("snapshot serves an index after a failed build")
	}
	hb, err := nw.HeartbeatRound()
	if err != nil {
		t.Fatalf("failed index build failed the heartbeat round: %v", err)
	}
	if got := m.indexRebuildFailures.Value(); got != 2 {
		t.Errorf("index rebuild failures = %d, want 2", got)
	}
	var got []telemetry.Event
	for _, ev := range m.Events().Events() {
		if ev.Type == EventIndexRebuildFailed {
			got = append(got, ev)
		}
	}
	want := []telemetry.Event{
		{Type: EventIndexRebuildFailed, Node: -1, Round: rep.Round, Detail: roundCollection},
		{Type: EventIndexRebuildFailed, Node: -1, Round: hb.Round, Detail: roundHeartbeat},
	}
	if len(got) != len(want) {
		t.Fatalf("index events = %+v, want %d", got, len(want))
	}
	for i := range want {
		g := got[i]
		if g.Type != want[i].Type || g.Node != want[i].Node || g.Round != want[i].Round || g.Detail != want[i].Detail {
			t.Errorf("event %d = %+v, want %+v", i, g, want[i])
		}
	}
}
