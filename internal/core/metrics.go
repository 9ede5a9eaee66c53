package core

import (
	"privrange/internal/telemetry"
)

// Trace outcome tags released by the engine. All are compile-time
// constants: the telemetrytaint analyzer forbids data-derived strings
// in telemetry positions.
const (
	outcomeOK       = "ok"
	outcomeDegraded = "degraded"
	outcomeCacheHit = "cache_hit"
	outcomeInvalid  = "invalid"
	outcomeError    = "error"
)

// Metrics is the engine's telemetry: per-query latency and outcome
// counters, cache effectiveness, the batch estimation path taken, and
// a ring of recent query traces. Everything recorded is released or
// deployment-level state (latencies, outcome tags, coverage-derived
// flags) — never raw estimates, sample values or query ranges. A nil
// *Metrics records nothing, so instrumented paths need no conditionals.
type Metrics struct {
	queriesOK       *telemetry.Counter
	queriesDegraded *telemetry.Counter
	queriesCached   *telemetry.Counter
	queriesInvalid  *telemetry.Counter
	queriesError    *telemetry.Counter

	cacheHits   *telemetry.Counter
	cacheMisses *telemetry.Counter

	planMemoHits   *telemetry.Counter
	planMemoMisses *telemetry.Counter
	planMemoEvicts *telemetry.Counter

	batchesIndex      *telemetry.Counter
	batchesSequential *telemetry.Counter
	batchQueries      *telemetry.Counter

	latency      *telemetry.Histogram
	batchLatency *telemetry.Histogram

	tracer *telemetry.Tracer
	// spans is the registry's distributed span buffer: engine traces
	// begun under a sampled context emit their phases there.
	spans *telemetry.SpanBuf
}

// NewMetrics registers the engine's metric catalog on r, tagging every
// series with the given static labels (typically the dataset name).
func NewMetrics(r *telemetry.Registry, labels ...telemetry.Label) *Metrics {
	outcome := func(tag string) []telemetry.Label {
		return append([]telemetry.Label{telemetry.L("outcome", tag)}, labels...)
	}
	const qHelp = "queries answered, by outcome"
	memo := func(result string) []telemetry.Label {
		return append([]telemetry.Label{telemetry.L("result", result)}, labels...)
	}
	const memoHelp = "plan memo lookups (hit, miss) and entries evicted (evict)"
	return &Metrics{
		queriesOK:       r.Counter("privrange_core_queries_total", qHelp, outcome(outcomeOK)...),
		queriesDegraded: r.Counter("privrange_core_queries_total", qHelp, outcome(outcomeDegraded)...),
		queriesCached:   r.Counter("privrange_core_queries_total", qHelp, outcome(outcomeCacheHit)...),
		queriesInvalid:  r.Counter("privrange_core_queries_total", qHelp, outcome(outcomeInvalid)...),
		queriesError:    r.Counter("privrange_core_queries_total", qHelp, outcome(outcomeError)...),

		cacheHits:   r.Counter("privrange_core_cache_hits_total", "answers served from the released-answer cache", labels...),
		cacheMisses: r.Counter("privrange_core_cache_misses_total", "cache lookups that fell through to the pipeline", labels...),

		planMemoHits:   r.Counter("privrange_core_plan_memo_total", memoHelp, memo("hit")...),
		planMemoMisses: r.Counter("privrange_core_plan_memo_total", memoHelp, memo("miss")...),
		planMemoEvicts: r.Counter("privrange_core_plan_memo_total", memoHelp, memo("evict")...),

		batchesIndex:      r.Counter("privrange_core_batches_total", "batches answered, by estimation path", append([]telemetry.Label{telemetry.L("path", "index_tiled")}, labels...)...),
		batchesSequential: r.Counter("privrange_core_batches_total", "batches answered, by estimation path", append([]telemetry.Label{telemetry.L("path", "sampleset")}, labels...)...),
		batchQueries:      r.Counter("privrange_core_batch_queries_total", "queries answered through AnswerBatch", labels...),

		latency:      r.Histogram("privrange_core_query_seconds", "end-to-end Answer latency", telemetry.LatencyBuckets, labels...),
		batchLatency: r.Histogram("privrange_core_batch_seconds", "end-to-end AnswerBatch latency", telemetry.LatencyBuckets, labels...),

		tracer: r.Tracer(),
		spans:  r.Spans(),
	}
}

// begin starts a query trace when metrics are attached. When they are
// not, the trace stays inert and every later Mark/End no-ops, so the
// uninstrumented hot path costs two branches.
func (m *Metrics) begin(tr *telemetry.Trace, op string) {
	if m == nil {
		return
	}
	tr.Begin(op)
}

// beginCtx starts a query trace joined to the caller's distributed
// trace context (the market's handler span); unsampled contexts
// degrade to a plain begin.
func (m *Metrics) beginCtx(tr *telemetry.Trace, op string, parent telemetry.SpanContext) {
	if m == nil {
		return
	}
	tr.BeginCtx(op, parent, m.spans)
}

// spanGroup returns the per-shard scatter span group for a sampled
// trace, nil otherwise — and a nil group is inert, so the scatter path
// passes it along unconditionally.
func (m *Metrics) spanGroup(tr *telemetry.Trace) *telemetry.SpanGroup {
	if m == nil {
		return nil
	}
	return m.spans.NewSpanGroup("core.shard_scatter", "", tr.SpanCtx())
}

// noteCacheLookup records one answer-cache probe.
func (m *Metrics) noteCacheLookup(hit bool) {
	if m == nil {
		return
	}
	if hit {
		m.cacheHits.Inc()
	} else {
		m.cacheMisses.Inc()
	}
}

// notePlanMemo records one plan-memo lookup and the entries its store
// evicted.
func (m *Metrics) notePlanMemo(hit bool, evicted int) {
	if m == nil {
		return
	}
	if hit {
		m.planMemoHits.Inc()
		return
	}
	m.planMemoMisses.Inc()
	if evicted > 0 {
		m.planMemoEvicts.Add(uint64(evicted))
	}
}

// finishQuery closes one Answer trace: tags the outcome, observes the
// latency, bumps the outcome counter and records the trace.
func (m *Metrics) finishQuery(tr *telemetry.Trace, outcome string) {
	if m == nil {
		return
	}
	tr.End(outcome)
	m.latency.Observe(tr.Total.Seconds())
	m.counterFor(outcome).Inc()
	m.tracer.Record(tr)
}

// finishBatch closes one AnswerBatch trace. indexed reports which
// estimation path served the batch; n is the batch size (zero when the
// batch failed before estimating).
func (m *Metrics) finishBatch(tr *telemetry.Trace, outcome string, indexed bool, n int) {
	if m == nil {
		return
	}
	tr.End(outcome)
	m.batchLatency.Observe(tr.Total.Seconds())
	if outcome == outcomeOK || outcome == outcomeDegraded {
		if indexed {
			m.batchesIndex.Inc()
		} else {
			m.batchesSequential.Inc()
		}
		m.batchQueries.Add(uint64(n))
	}
	m.counterFor(outcome).Inc()
	m.tracer.Record(tr)
}

func (m *Metrics) counterFor(outcome string) *telemetry.Counter {
	switch outcome {
	case outcomeOK:
		return m.queriesOK
	case outcomeDegraded:
		return m.queriesDegraded
	case outcomeCacheHit:
		return m.queriesCached
	case outcomeInvalid:
		return m.queriesInvalid
	default:
		return m.queriesError
	}
}
