package market

import (
	"strconv"

	"privrange/internal/telemetry"
)

// Metrics is the marketplace's telemetry: protocol request counters by
// operation, sale outcomes and revenue, transport connection health
// (accept/decode failures included — previously dropped silently) and
// a ring of purchase traces. Only commerce-level aggregates cross into
// telemetry: prices, variances and counts are tariff outputs or public
// metadata, never the private values being sold. A nil *Metrics
// records nothing.
type Metrics struct {
	reqCatalog *telemetry.Counter
	reqQuote   *telemetry.Counter
	reqBuy     *telemetry.Counter
	reqDeposit *telemetry.Counter
	reqBalance *telemetry.Counter
	reqAudit   *telemetry.Counter
	reqUnknown *telemetry.Counter
	reqInvalid *telemetry.Counter

	purchases  *telemetry.Counter
	rejections *telemetry.Counter
	revenue    *telemetry.Gauge

	connsAccepted   *telemetry.Counter
	connsActive     *telemetry.Gauge
	acceptFailures  *telemetry.Counter
	decodeFailures  *telemetry.Counter
	oversizedFrames *telemetry.Counter
	bytesRead       *telemetry.Counter
	bytesWritten    *telemetry.Counter

	// Admission control and buy coalescing (the serving path).
	shedTotal        *telemetry.Counter
	inflight         *telemetry.Gauge
	coalesceBatches  *telemetry.Counter
	coalesceFolded   *telemetry.Counter
	coalesceFallback *telemetry.Counter
	// Engine pressure: requests dispatched into the broker/engine and
	// not yet answered (what admission shedding should eventually key
	// off), and pipeline slots currently held across all connections
	// (how full the per-connection windows actually run).
	engineQueue       *telemetry.Gauge
	pipelineOccupancy *telemetry.Gauge

	walAppends     *telemetry.Counter
	walBytes       *telemetry.Counter
	walFsyncs      *telemetry.Counter
	walCompactions *telemetry.Counter
	walRecoveries  *telemetry.Counter
	walReplayed    *telemetry.Counter
	walTruncated   *telemetry.Counter

	buyLatency *telemetry.Histogram
	tracer     *telemetry.Tracer

	// Distributed tracing and SLOs. reg is retained so head-sampling
	// decisions see SetTraceSampling calls made after construction.
	reg    *telemetry.Registry
	spans  *telemetry.SpanBuf
	buySLO *telemetry.SLO
	events *telemetry.EventLog
}

// EventCoalesceFallback records a protocol buy that reached a closed
// coalescer and settled through the serial path instead of a batch.
const EventCoalesceFallback = "coalesce_fallback"

// NewMetrics registers the marketplace's metric catalog on r.
func NewMetrics(r *telemetry.Registry, labels ...telemetry.Label) *Metrics {
	op := func(tag string) []telemetry.Label {
		return append([]telemetry.Label{telemetry.L("op", tag)}, labels...)
	}
	const rHelp = "protocol requests handled, by operation"
	return &Metrics{
		reqCatalog: r.Counter("privrange_market_requests_total", rHelp, op("catalog")...),
		reqQuote:   r.Counter("privrange_market_requests_total", rHelp, op("quote")...),
		reqBuy:     r.Counter("privrange_market_requests_total", rHelp, op("buy")...),
		reqDeposit: r.Counter("privrange_market_requests_total", rHelp, op("deposit")...),
		reqBalance: r.Counter("privrange_market_requests_total", rHelp, op("balance")...),
		reqAudit:   r.Counter("privrange_market_requests_total", rHelp, op("audit")...),
		reqUnknown: r.Counter("privrange_market_requests_total", rHelp, op("unknown")...),
		reqInvalid: r.Counter("privrange_market_requests_total", rHelp, op("invalid")...),

		purchases:  r.Counter("privrange_market_purchases_total", "answers sold and recorded in the ledger", labels...),
		rejections: r.Counter("privrange_market_rejections_total", "buy requests refused (validation, funds, caps, engine failure)", labels...),
		revenue:    r.Gauge("privrange_market_revenue", "cumulative revenue from completed sales", labels...),

		connsAccepted:   r.Counter("privrange_market_connections_total", "TCP connections accepted", labels...),
		connsActive:     r.Gauge("privrange_market_connections_active", "TCP connections currently served", labels...),
		acceptFailures:  r.Counter("privrange_market_accept_failures_total", "listener Accept errors (listener still serving)", labels...),
		decodeFailures:  r.Counter("privrange_market_decode_failures_total", "malformed protocol frames (connection still serving)", labels...),
		oversizedFrames: r.Counter("privrange_market_oversized_frames_total", "protocol lines exceeding the frame limit (connection closed after a protocol error)", labels...),
		bytesRead:       r.Counter("privrange_market_bytes_read_total", "protocol bytes received", labels...),
		bytesWritten:    r.Counter("privrange_market_bytes_written_total", "protocol bytes sent", labels...),

		shedTotal:        r.Counter("privrange_market_shed_total", "requests refused by admission control with a retryable error", labels...),
		inflight:         r.Gauge("privrange_market_inflight_requests", "requests currently admitted and executing", labels...),
		coalesceBatches:  r.Counter("privrange_market_coalesce_batches_total", "coalesced batch sales executed", labels...),
		coalesceFolded:   r.Counter("privrange_market_coalesce_folded_total", "single-query buys folded into coalesced batches", labels...),
		coalesceFallback: r.Counter("privrange_market_coalesce_fallback_total", "protocol buys that reached a closed coalescer and settled serially", labels...),

		engineQueue:       r.Gauge("privrange_market_engine_queue_depth", "requests dispatched into the broker/engine and not yet answered", labels...),
		pipelineOccupancy: r.Gauge("privrange_market_pipeline_occupancy", "pipeline slots currently held across all connections", labels...),

		walAppends:     r.Counter("privrange_market_wal_appends_total", "mutation records journaled to the write-ahead log", labels...),
		walBytes:       r.Counter("privrange_market_wal_bytes_total", "bytes appended to the write-ahead log (framed)", labels...),
		walFsyncs:      r.Counter("privrange_market_wal_fsyncs_total", "group-commit fsyncs (one may cover many records)", labels...),
		walCompactions: r.Counter("privrange_market_wal_compactions_total", "log compactions into the snapshot", labels...),
		walRecoveries:  r.Counter("privrange_market_wal_recoveries_total", "recoveries performed at durability enablement", labels...),
		walReplayed:    r.Counter("privrange_market_wal_replayed_total", "records applied during recovery replay", labels...),
		walTruncated:   r.Counter("privrange_market_wal_truncated_bytes_total", "torn-tail bytes truncated during recovery", labels...),

		buyLatency: r.Histogram("privrange_market_buy_seconds", "end-to-end Buy latency (quote, debit, answer, record)", telemetry.LatencyBuckets, labels...),
		tracer:     r.Tracer(),

		reg:    r,
		spans:  r.Spans(),
		events: r.Events(),
	}
}

// SetBuySLO attaches the objective every completed or rejected buy is
// scored against (wired by the facade during telemetry setup, before
// serving starts).
func (m *Metrics) SetBuySLO(s *telemetry.SLO) {
	if m == nil {
		return
	}
	m.buySLO = s
}

// noteRequest counts one dispatched protocol request. The op string is
// one of the protocol's fixed operation names (already validated or
// about to be rejected), so the label set stays bounded.
func (m *Metrics) noteRequest(op string, valid bool) {
	if m == nil {
		return
	}
	if !valid {
		m.reqInvalid.Inc()
		return
	}
	switch op {
	case "catalog":
		m.reqCatalog.Inc()
	case "quote":
		m.reqQuote.Inc()
	case "buy":
		m.reqBuy.Inc()
	case "deposit":
		m.reqDeposit.Inc()
	case "balance":
		m.reqBalance.Inc()
	case "audit":
		m.reqAudit.Inc()
	default:
		m.reqUnknown.Inc()
	}
}

// begin starts a purchase trace when metrics are attached (see
// core.Metrics.begin for the inert-trace contract).
func (m *Metrics) begin(tr *telemetry.Trace, op string) {
	if m == nil {
		return
	}
	tr.Begin(op)
}

// beginWire starts a purchase trace joined to the request's wire
// trace context. A request carrying a sampled context is always
// traced; one without (or with a malformed value) starts a fresh
// server-originated trace when the registry's head sampler fires.
// The sampling decision is a modular counter — no randomness, no
// clock — so it can never perturb the release path.
func (m *Metrics) beginWire(tr *telemetry.Trace, op, wireCtx string) {
	if m == nil {
		return
	}
	if sc, ok := telemetry.ParseSpanContext(wireCtx); ok && sc.Sampled {
		tr.BeginCtx(op, sc, m.spans)
		return
	}
	if m.reg.Sampler().Sample() {
		tr.BeginCtx(op, m.spans.NewTrace(), m.spans)
		return
	}
	tr.Begin(op)
}

// beginBatchSpan starts the trace covering one coalesced batch sale.
// When any folded sale is sampled, the batch runs as a span on its own
// trace (it belongs to no single sale) and links every sampled sale's
// handler span; otherwise it stays a plain latency trace.
func (m *Metrics) beginBatchSpan(tr *telemetry.Trace, traces []*telemetry.Trace, slots []int) {
	if m == nil {
		return
	}
	linked := false
	for _, i := range slots {
		if sc := traces[i].SpanCtx(); sc.Sampled {
			if !linked {
				tr.BeginCtx("market.batch_sale", m.spans.NewTrace(), m.spans)
				linked = true
			}
			tr.Link(sc)
		}
	}
	if !linked {
		tr.Begin("market.batch_sale")
	}
}

// finishBatchSpan closes one batch-sale trace. folded is how many buys
// the batch settled (an aggregate count — clean for span attributes).
func (m *Metrics) finishBatchSpan(tr *telemetry.Trace, folded int) {
	if m == nil {
		return
	}
	tr.Annotate("folded", strconv.Itoa(folded))
	tr.End("ok")
	m.tracer.Record(tr)
}

// finishBuy closes one Buy trace and records the sale outcome. price
// is the tariff output for a completed sale (ignored on rejection).
func (m *Metrics) finishBuy(tr *telemetry.Trace, sold bool, price float64) {
	if m == nil {
		return
	}
	if sold {
		tr.End("ok")
		m.purchases.Inc()
		m.revenue.Add(price)
	} else {
		tr.End("rejected")
		m.rejections.Inc()
	}
	m.buyLatency.Observe(tr.Total.Seconds())
	m.buySLO.Observe(tr.Total, sold)
	m.tracer.Record(tr)
}

// noteWALAppend counts one journaled record and its framed bytes. Only
// commerce bookkeeping crosses into these counters — record contents
// (customers, prices) never do.
func (m *Metrics) noteWALAppend(bytes int) {
	if m == nil {
		return
	}
	m.walAppends.Inc()
	m.walBytes.Add(uint64(bytes))
}

func (m *Metrics) noteWALFsync() {
	if m == nil {
		return
	}
	m.walFsyncs.Inc()
}

func (m *Metrics) noteWALCompaction() {
	if m == nil {
		return
	}
	m.walCompactions.Inc()
}

// noteWALRecovery records one completed recovery: how many records
// replay applied and how many torn-tail bytes were truncated.
func (m *Metrics) noteWALRecovery(replayed int, truncatedBytes int64) {
	if m == nil {
		return
	}
	m.walRecoveries.Inc()
	m.walReplayed.Add(uint64(replayed))
	if truncatedBytes > 0 {
		m.walTruncated.Add(uint64(truncatedBytes))
	}
}

// noteConnOpen / noteConnClose track the live connection gauge.
func (m *Metrics) noteConnOpen() {
	if m == nil {
		return
	}
	m.connsAccepted.Inc()
	m.connsActive.Add(1)
}

func (m *Metrics) noteConnClose() {
	if m == nil {
		return
	}
	m.connsActive.Add(-1)
}

func (m *Metrics) noteAcceptFailure() {
	if m == nil {
		return
	}
	m.acceptFailures.Inc()
}

func (m *Metrics) noteDecodeFailure() {
	if m == nil {
		return
	}
	m.decodeFailures.Inc()
}

// noteOversizedFrame counts a protocol line that blew the frame limit.
// The connection dies (the stream cannot be resynced), but it dies
// loudly: counted here and answered with a protocol error first.
func (m *Metrics) noteOversizedFrame() {
	if m == nil {
		return
	}
	m.oversizedFrames.Inc()
}

// noteShed counts one request refused by admission control.
func (m *Metrics) noteShed() {
	if m == nil {
		return
	}
	m.shedTotal.Inc()
}

// noteAdmit / noteFinish track the in-flight admitted-request gauge.
func (m *Metrics) noteAdmit() {
	if m == nil {
		return
	}
	m.inflight.Add(1)
}

func (m *Metrics) noteFinish() {
	if m == nil {
		return
	}
	m.inflight.Add(-1)
}

// noteEngineEnter / noteEngineExit track how many requests are
// currently dispatched into the broker/engine — the queue depth a
// later admission policy can key off (ROADMAP item 4 follow-up).
func (m *Metrics) noteEngineEnter() {
	if m == nil {
		return
	}
	m.engineQueue.Add(1)
}

func (m *Metrics) noteEngineExit() {
	if m == nil {
		return
	}
	m.engineQueue.Add(-1)
}

// noteSlotAcquire / noteSlotRelease track pipeline-window occupancy
// across all connections.
func (m *Metrics) noteSlotAcquire() {
	if m == nil {
		return
	}
	m.pipelineOccupancy.Add(1)
}

func (m *Metrics) noteSlotRelease() {
	if m == nil {
		return
	}
	m.pipelineOccupancy.Add(-1)
}

// noteCoalesce records one executed batch sale folding n buys.
func (m *Metrics) noteCoalesce(n int) {
	if m == nil {
		return
	}
	m.coalesceBatches.Inc()
	m.coalesceFolded.Add(uint64(n))
}

// noteCoalesceFallback counts one buy that a closed coalescer handed
// to the serial path.
func (m *Metrics) noteCoalesceFallback() {
	if m == nil {
		return
	}
	m.coalesceFallback.Inc()
	m.events.Append(EventCoalesceFallback, -1, 0, "closed")
}

func (m *Metrics) noteRead(n int) {
	if m == nil || n <= 0 {
		return
	}
	m.bytesRead.Add(uint64(n))
}

// countWriter mirrors written byte counts into the metrics on the way
// to the underlying connection.
type countWriter struct {
	w interface{ Write([]byte) (int, error) }
	m *Metrics
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	if c.m != nil && n > 0 {
		c.m.bytesWritten.Add(uint64(n))
	}
	return n, err
}
