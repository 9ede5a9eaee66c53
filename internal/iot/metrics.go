package iot

import (
	"privrange/internal/telemetry"
)

// Breaker event types recorded in the telemetry event log. The breaker
// lifecycle for one node is open → half_open → (close | open again):
// tripping exiles the node, the backoff expiring half-opens it for one
// probationary attempt, and a success while on probation (or while
// tripped-and-counting) closes it.
const (
	EventBreakerOpen     = "breaker_open"
	EventBreakerHalfOpen = "breaker_half_open"
	EventBreakerClose    = "breaker_close"
)

// EventIndexRebuildFailed records a round whose columnar index build
// failed: queries then estimate over the slower SampleSet path until a
// later round builds it. The event's detail names the round kind.
const EventIndexRebuildFailed = "index_rebuild_failed"

// Round kinds carried as the detail of EventIndexRebuildFailed.
const (
	roundCollection = "collection"
	roundHeartbeat  = "heartbeat"
)

// Metrics is the collection layer's telemetry: round progress, coverage
// and rate gauges, the communication bill mirrored as counters, and the
// breaker transition log. Everything recorded here is deployment
// aggregate state — node ids, byte counts, round clocks — never sampled
// values. A nil *Metrics (and any nil handle inside) records nothing.
type Metrics struct {
	collectionRounds *telemetry.Counter
	heartbeatRounds  *telemetry.Counter
	nodesRefreshed   *telemetry.Counter
	nodesFailed      *telemetry.Counter
	heartbeatsMissed *telemetry.Counter

	messages        *telemetry.Counter
	messagesLost    *telemetry.Counter
	bytes           *telemetry.Counter
	retransmissions *telemetry.Counter
	corrupted       *telemetry.Counter
	samplesShipped  *telemetry.Counter

	coverage  *telemetry.Gauge
	rate      *telemetry.Gauge
	nodesDown *telemetry.Gauge

	breakerOpens     *telemetry.Counter
	breakerHalfOpens *telemetry.Counter
	breakerCloses    *telemetry.Counter

	indexRebuildFailures *telemetry.Counter

	events *telemetry.EventLog
}

// NewMetrics registers the collection layer's metric catalog on r,
// tagging every series with the given static labels (typically the
// dataset name). The registry's shared event log receives breaker
// transitions.
func NewMetrics(r *telemetry.Registry, labels ...telemetry.Label) *Metrics {
	return &Metrics{
		collectionRounds: r.Counter("privrange_iot_collection_rounds_total", "collection rounds driven (EnsureRate/IngestRound)", labels...),
		heartbeatRounds:  r.Counter("privrange_iot_heartbeat_rounds_total", "liveness heartbeat rounds driven", labels...),
		nodesRefreshed:   r.Counter("privrange_iot_nodes_refreshed_total", "per-round node sample refreshes that succeeded", labels...),
		nodesFailed:      r.Counter("privrange_iot_nodes_failed_total", "per-round node collection attempts that failed", labels...),
		heartbeatsMissed: r.Counter("privrange_iot_heartbeats_missed_total", "heartbeats lost, corrupted past retries, or crash-swallowed", labels...),

		messages:        r.Counter("privrange_iot_messages_total", "protocol messages delivered end to end", labels...),
		messagesLost:    r.Counter("privrange_iot_messages_lost_total", "messages given up on after exhausting retries", labels...),
		bytes:           r.Counter("privrange_iot_bytes_total", "hop-weighted bytes billed on the wire", labels...),
		retransmissions: r.Counter("privrange_iot_retransmissions_total", "extra attempts caused by loss or detected corruption", labels...),
		corrupted:       r.Counter("privrange_iot_corrupted_messages_total", "attempts rejected by the wire decode path", labels...),
		samplesShipped:  r.Counter("privrange_iot_samples_shipped_total", "rank-annotated samples transferred end to end", labels...),

		coverage:  r.Gauge("privrange_iot_coverage", "fraction of records held by currently reachable nodes", labels...),
		rate:      r.Gauge("privrange_iot_sampling_rate", "network-wide guaranteed Bernoulli sampling rate", labels...),
		nodesDown: r.Gauge("privrange_iot_nodes_down", "nodes currently unreachable (manual, breaker or crash)", labels...),

		breakerOpens:     r.Counter("privrange_iot_breaker_transitions_total", "circuit breaker state transitions", append([]telemetry.Label{telemetry.L("state", "open")}, labels...)...),
		breakerHalfOpens: r.Counter("privrange_iot_breaker_transitions_total", "circuit breaker state transitions", append([]telemetry.Label{telemetry.L("state", "half_open")}, labels...)...),
		breakerCloses:    r.Counter("privrange_iot_breaker_transitions_total", "circuit breaker state transitions", append([]telemetry.Label{telemetry.L("state", "close")}, labels...)...),

		indexRebuildFailures: r.Counter("privrange_iot_index_rebuild_failures_total", "rounds whose columnar index build failed, leaving queries on the SampleSet path", labels...),

		events: r.Events(),
	}
}

// Events exposes the event log breaker transitions are appended to
// (nil when the metrics are detached).
func (m *Metrics) Events() *telemetry.EventLog {
	if m == nil {
		return nil
	}
	return m.events
}

// noteCollection records one collection round's outcome. Callers hold
// the network writer lock; only aggregate report fields cross into
// telemetry.
func (m *Metrics) noteCollection(rep *CollectionReport, down int) {
	if m == nil {
		return
	}
	m.collectionRounds.Inc()
	m.nodesRefreshed.Add(uint64(len(rep.Refreshed)))
	m.nodesFailed.Add(uint64(len(rep.Failed)))
	m.coverage.Set(rep.Coverage)
	m.rate.Set(rep.Achieved)
	m.nodesDown.Set(float64(down))
}

// noteHeartbeat records one heartbeat round's outcome.
func (m *Metrics) noteHeartbeat(rep *HeartbeatReport, coverage float64, down int) {
	if m == nil {
		return
	}
	m.heartbeatRounds.Inc()
	m.heartbeatsMissed.Add(uint64(len(rep.Missed)))
	m.coverage.Set(coverage)
	m.nodesDown.Set(float64(down))
}

// noteDelivery records one end-to-end delivered message carrying
// samples rank-annotated samples.
func (m *Metrics) noteDelivery(samples int) {
	if m == nil {
		return
	}
	m.messages.Inc()
	if samples > 0 {
		m.samplesShipped.Add(uint64(samples))
	}
}

// noteAttempts bills attempts' bytes and retransmissions to telemetry,
// mirroring the CostReport defer in transmit.
func (m *Metrics) noteAttempts(bytes int64, retransmissions int) {
	if m == nil {
		return
	}
	if bytes > 0 {
		m.bytes.Add(uint64(bytes))
	}
	if retransmissions > 0 {
		m.retransmissions.Add(uint64(retransmissions))
	}
}

// noteCorruption records one attempt rejected by the wire decode path.
func (m *Metrics) noteCorruption() {
	if m == nil {
		return
	}
	m.corrupted.Inc()
}

// noteGiveUp records one message abandoned after exhausting retries.
func (m *Metrics) noteGiveUp() {
	if m == nil {
		return
	}
	m.messagesLost.Inc()
}

// noteBreaker records one breaker transition as both a labelled counter
// increment and an ordered event-log entry.
func (m *Metrics) noteBreaker(state string, node int, round uint64) {
	if m == nil {
		return
	}
	switch state {
	case EventBreakerOpen:
		m.breakerOpens.Inc()
	case EventBreakerHalfOpen:
		m.breakerHalfOpens.Inc()
	case EventBreakerClose:
		m.breakerCloses.Inc()
	}
	m.events.Append(state, node, round, "")
}

// noteIndexRebuildFailure records one failed end-of-round index build as
// a counter increment and an event-log entry.
func (m *Metrics) noteIndexRebuildFailure(round uint64, kind string) {
	if m == nil {
		return
	}
	m.indexRebuildFailures.Inc()
	m.events.Append(EventIndexRebuildFailed, -1, round, kind)
}
