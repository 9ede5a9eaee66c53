package iot

import (
	"fmt"
	"math"
	"sync"

	"privrange/internal/index"
	"privrange/internal/sampling"
	"privrange/internal/stats"
	"privrange/internal/wire"
)

// Topology selects how node traffic reaches the base station.
type Topology int

const (
	// Flat is the paper's primary model: every node talks to the base
	// station directly (one hop).
	Flat Topology = iota
	// Tree arranges nodes in a balanced aggregation tree; each message is
	// relayed hop by hop toward the base station and its bytes are paid
	// once per hop. The paper notes flat-model algorithms "can be easily
	// extended to a general tree model" — this is that extension.
	Tree
)

// DefaultFreeHeartbeatSamples mirrors the paper's observation that ~16
// samples per node fit in an ordinary heartbeat message, incurring no
// additional communication cost.
const DefaultFreeHeartbeatSamples = 16

// Config parameterizes a simulated network.
type Config struct {
	// Seed drives all node-side randomness deterministically.
	Seed int64
	// Topology selects Flat (default) or Tree routing.
	Topology Topology
	// TreeFanout is the branching factor of the Tree topology. Zero
	// selects 4. Ignored for Flat.
	TreeFanout int
	// FreeHeartbeatSamples is the per-report sample count that piggybacks
	// on heartbeats for free. Negative disables the discount; zero
	// selects DefaultFreeHeartbeatSamples.
	FreeHeartbeatSamples int
	// LossRate is the probability that one transmission attempt is
	// dropped (per end-to-end message, applied per attempt). Lost
	// messages are retransmitted up to MaxRetries times; every attempt
	// is billed. Zero models a lossless link.
	LossRate float64
	// MaxRetries bounds retransmission attempts per message. Zero
	// selects 5; negative is invalid.
	MaxRetries int
	// Faults assigns per-node fault profiles (keyed by node id) so chaos
	// tests can script realistic failure scenarios — per-node loss,
	// byte corruption, scheduled crash/recover windows — instead of one
	// global Bernoulli loss rate. Nodes without an entry follow LossRate.
	Faults map[int]FaultProfile
	// NodeIDs assigns an explicit id to each initial partition:
	// parts[i] is held by node NodeIDs[i]. Ids must be distinct and
	// non-negative but need not be contiguous — a sharded deployment
	// builds each shard's network with the shard's *global* node ids so
	// every node keeps the exact per-id sampling stream it would have in
	// a single-broker network (seeds derive from the id). Nil selects the
	// historical 0..k-1 numbering.
	NodeIDs []int
	// FailureThreshold enables the collection circuit breaker: a node
	// failing this many consecutive rounds is auto-marked down (no more
	// bytes are wasted on it) and reinstated with exponential backoff.
	// Zero disables the breaker; negative is invalid.
	FailureThreshold int
	// BreakerBackoff is the breaker's base reinstatement delay in rounds;
	// each consecutive re-trip doubles it (capped). Zero selects 2;
	// negative is invalid. Ignored while FailureThreshold is 0.
	BreakerBackoff int
}

// CostReport is the running communication bill.
type CostReport struct {
	// Messages counts end-to-end protocol messages (not per-hop copies).
	Messages int
	// Bytes is the total on-the-wire volume, counted once per hop
	// traversed.
	Bytes int64
	// SamplesShipped counts rank-annotated samples transferred
	// end-to-end.
	SamplesShipped int
	// PiggybackedReports counts reports small enough to ride heartbeats
	// for free.
	PiggybackedReports int
	// Retransmissions counts extra attempts caused by simulated packet
	// loss or detected corruption. Their bytes are included in Bytes.
	Retransmissions int
	// CorruptedMessages counts attempts that arrived with flipped or
	// trailing bytes and were rejected by the wire decode path. Their
	// bytes crossed the wire and are included in Bytes.
	CorruptedMessages int
}

// Network wires k nodes to a base station under a topology and accounts
// for every byte exchanged. It is safe for concurrent use: collection,
// ingestion and membership changes serialize behind a writer lock, while
// read paths (rates, counts, sample sets, snapshots) share a read lock.
// Stored sample sets are immutable once published — collection replaces
// them — so a snapshot taken before a collection remains valid after it.
type Network struct {
	mu    sync.RWMutex
	cfg   Config
	nodes []*Node
	// idIndex maps a node id to its position in nodes. Ids are 0..k-1 by
	// default but arbitrary when Config.NodeIDs assigned explicit
	// (global) ids.
	idIndex map[int]int
	base    *BaseStation
	cost    CostReport
	// nodeRate tracks the Bernoulli rate each node's base-station sample
	// was collected at; the network-wide guaranteed rate is the minimum.
	nodeRate map[int]float64
	rng      *stats.RNG // drives simulated packet loss
	// dirty marks nodes that ingested new readings since their last
	// acknowledged report; EnsureRate must revisit them even when the
	// target rate is already met.
	dirty map[int]bool
	// down marks unreachable nodes: EnsureRate skips them (their stale
	// samples at the base station keep serving queries) and revisits
	// them on recovery. Entries come from SetDown or from the failure
	// circuit breaker (see breaker).
	down map[int]bool
	// breaker tracks per-node consecutive-failure state for the
	// collection circuit breaker (enabled by Config.FailureThreshold).
	breaker map[int]*breakerState
	// clock counts network rounds (EnsureRate, IngestRound,
	// HeartbeatRound); crash windows and breaker backoffs are scheduled
	// against it.
	clock uint64
	// metrics mirrors the cost report, round outcomes and breaker
	// transitions into telemetry. Nil (recording nothing) until
	// SetTelemetry attaches it.
	metrics *Metrics
}

// SetTelemetry attaches collection-layer metrics to the network. Pass
// nil to detach. Safe to call while rounds are running.
func (nw *Network) SetTelemetry(m *Metrics) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	nw.metrics = m
}

// downCountLocked counts nodes the base station cannot refresh right
// now (manual downs, breaker exiles, scheduled crashes). Callers hold
// nw.mu (read or write).
func (nw *Network) downCountLocked() int {
	down := 0
	for _, node := range nw.nodes {
		if nw.unreachableLocked(node.ID()) {
			down++
		}
	}
	return down
}

// New builds a network whose node i holds parts[i]. It returns an error
// for an empty partition list or invalid config.
func New(parts [][]float64, cfg Config) (*Network, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("iot: need at least one node partition")
	}
	if cfg.Topology != Flat && cfg.Topology != Tree {
		return nil, fmt.Errorf("iot: unknown topology %d", cfg.Topology)
	}
	if cfg.TreeFanout < 0 {
		return nil, fmt.Errorf("iot: negative tree fanout %d", cfg.TreeFanout)
	}
	if cfg.TreeFanout == 0 {
		cfg.TreeFanout = 4
	}
	if cfg.FreeHeartbeatSamples == 0 {
		cfg.FreeHeartbeatSamples = DefaultFreeHeartbeatSamples
	}
	if cfg.LossRate < 0 || cfg.LossRate >= 1 {
		return nil, fmt.Errorf("iot: loss rate %v outside [0, 1)", cfg.LossRate)
	}
	if cfg.MaxRetries < 0 {
		return nil, fmt.Errorf("iot: negative max retries %d", cfg.MaxRetries)
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 5
	}
	if cfg.FailureThreshold < 0 {
		return nil, fmt.Errorf("iot: negative failure threshold %d", cfg.FailureThreshold)
	}
	if cfg.BreakerBackoff < 0 {
		return nil, fmt.Errorf("iot: negative breaker backoff %d", cfg.BreakerBackoff)
	}
	if cfg.BreakerBackoff == 0 {
		cfg.BreakerBackoff = 2
	}
	for id, prof := range cfg.Faults {
		if id < 0 {
			return nil, fmt.Errorf("iot: fault profile for negative node id %d", id)
		}
		if err := prof.validate(id); err != nil {
			return nil, err
		}
	}
	if cfg.NodeIDs != nil && len(cfg.NodeIDs) != len(parts) {
		return nil, fmt.Errorf("iot: %d node ids for %d partitions", len(cfg.NodeIDs), len(parts))
	}
	nw := &Network{
		cfg:      cfg,
		base:     NewBaseStation(),
		rng:      stats.NewRNG(cfg.Seed ^ 0x10c5),
		idIndex:  make(map[int]int),
		dirty:    make(map[int]bool),
		down:     make(map[int]bool),
		breaker:  make(map[int]*breakerState),
		nodeRate: make(map[int]float64),
	}
	for i, part := range parts {
		id := i
		if cfg.NodeIDs != nil {
			id = cfg.NodeIDs[i]
		}
		if id < 0 {
			return nil, fmt.Errorf("iot: negative node id %d", id)
		}
		if _, dup := nw.idIndex[id]; dup {
			return nil, fmt.Errorf("iot: duplicate node id %d", id)
		}
		// The seed derives from the id, not the slice position, so a node
		// samples the same stream whether it lives in a single-broker
		// network or inside a shard that carries its global id.
		node := NewNode(id, cfg.Seed+int64(id)*7919)
		node.Load(part)
		nw.idIndex[id] = len(nw.nodes)
		nw.nodes = append(nw.nodes, node)
	}
	return nw, nil
}

// NumNodes returns k.
func (nw *Network) NumNodes() int {
	nw.mu.RLock()
	defer nw.mu.RUnlock()
	return len(nw.nodes)
}

// TotalN returns |D| = Σ n_i.
func (nw *Network) TotalN() int {
	nw.mu.RLock()
	defer nw.mu.RUnlock()
	return nw.totalN()
}

func (nw *Network) totalN() int {
	total := 0
	for _, n := range nw.nodes {
		total += n.Len()
	}
	return total
}

// Rate returns the sampling rate the base station's *entire* state
// guarantees: the minimum rate any node's stored sample was collected at
// (0 before the first full collection). With nodes down and skipped, the
// guarantee degrades to the stale nodes' rate rather than silently
// overstating accuracy.
func (nw *Network) Rate() float64 {
	nw.mu.RLock()
	defer nw.mu.RUnlock()
	return nw.rate()
}

func (nw *Network) rate() float64 {
	if len(nw.nodeRate) < len(nw.nodes) {
		return 0
	}
	min := math.Inf(1)
	for _, r := range nw.nodeRate {
		if r < min {
			min = r
		}
	}
	return min
}

// maxRate returns the highest rate any node has been collected at — the
// target that recovering or dirty nodes must be caught up to.
func (nw *Network) maxRate() float64 {
	max := 0.0
	for _, r := range nw.nodeRate {
		if r > max {
			max = r
		}
	}
	return max
}

// hops returns how many links a message between node id and the base
// station traverses under the configured topology.
func (nw *Network) hops(id int) int {
	if nw.cfg.Topology == Flat {
		return 1
	}
	// Balanced tree: node 0..fanout-1 are children of the base station;
	// node i's parent is i/fanout - 1 (for i >= fanout).
	f := nw.cfg.TreeFanout
	hops := 1
	for i := id; i >= f; i = i/f - 1 {
		hops++
	}
	return hops
}

// transmit codecs a message end to end and bills it: hop-weighted bytes
// plus message and sample counters. Reports small enough to piggyback on
// heartbeats are free of byte cost, matching the paper's argument.
//
// Each attempt may drop (the node's loss rate) or arrive corrupted (its
// fault profile's corrupt rate); detected corruption — a wire decode
// error or trailing bytes — counts in CorruptedMessages and is retried
// like a loss, since the bytes crossed the wire but nothing usable
// arrived. A node inside a scheduled crash window swallows every
// attempt. Bytes are billed for every attempt made (delivered, dropped
// or corrupted), while Messages, SamplesShipped and PiggybackedReports
// count only what actually arrives end to end.
func (nw *Network) transmit(id int, m wire.Message) (wire.Message, error) {
	data, err := wire.Encode(m)
	if err != nil {
		return nil, err
	}
	rep, isReport := m.(*wire.SampleReport)
	free := isReport && nw.cfg.FreeHeartbeatSamples > 0 && len(rep.Samples) <= nw.cfg.FreeHeartbeatSamples
	prof := nw.cfg.Faults[id]
	loss := nw.cfg.LossRate
	if prof.LossRate > 0 {
		loss = prof.LossRate
	}
	maxAttempts := nw.cfg.MaxRetries + 1
	attempts := 0
	// Billing is registered before the first attempt so that no exit
	// path — delivery, retry exhaustion, corruption, crash window, or
	// any early return added later — can skip it: every attempt crossed
	// the link and costs bytes, including the give-up and corruption
	// cases where nothing usable arrived. The privlint billing analyzer
	// enforces this ordering.
	defer func() {
		if !free {
			billed := int64(len(data)) * int64(nw.hops(id)) * int64(attempts)
			nw.cost.Bytes += billed
			nw.metrics.noteAttempts(billed, attempts-1)
		} else {
			nw.metrics.noteAttempts(0, attempts-1)
		}
		nw.cost.Retransmissions += attempts - 1
	}()
	var delivered wire.Message
	var lastErr error
	if nw.crashedLocked(id) {
		// The node is off: every attempt crosses the link and dies there.
		attempts = maxAttempts
		lastErr = fmt.Errorf("iot: node %d crashed (scheduled fault window, round %d)", id, nw.clock)
	} else {
		for attempts < maxAttempts {
			attempts++
			if loss > 0 && nw.rng.Bernoulli(loss) {
				lastErr = fmt.Errorf("iot: message to/from node %d lost after %d attempts", id, attempts)
				continue
			}
			payload := data
			if prof.CorruptRate > 0 && nw.rng.Bernoulli(prof.CorruptRate) {
				payload = corruptPayload(data, nw.cost.CorruptedMessages)
			}
			decoded, consumed, derr := wire.Decode(payload)
			if derr != nil {
				nw.cost.CorruptedMessages++
				nw.metrics.noteCorruption()
				lastErr = fmt.Errorf("iot: transport corruption to/from node %d: %w", id, derr)
				continue
			}
			if consumed != len(payload) {
				nw.cost.CorruptedMessages++
				nw.metrics.noteCorruption()
				lastErr = fmt.Errorf("iot: trailing bytes after decode (%d of %d) to/from node %d", consumed, len(payload), id)
				continue
			}
			delivered = decoded
			break
		}
	}
	if delivered == nil {
		nw.metrics.noteGiveUp()
		return nil, lastErr
	}
	nw.cost.Messages++
	samples := 0
	if isReport {
		samples = len(rep.Samples)
		nw.cost.SamplesShipped += samples
		if free {
			nw.cost.PiggybackedReports++
		}
	}
	nw.metrics.noteDelivery(samples)
	return delivered, nil
}

// EnsureRate drives one collection round toward a Bernoulli(p) sample
// from every node: it multicasts Resample commands and folds the
// resulting reports in. Raising the rate tops existing samples up (only
// the new samples travel); lowering it is a no-op — the richer sample
// already satisfies any weaker requirement.
//
// The round attempts every reachable node and accumulates per-node
// failures instead of aborting on the first: one node exhausting its
// retries no longer prevents the rest of the deployment from being
// refreshed. The returned CollectionReport describes the partial
// progress (refreshed / satisfied / skipped / failed nodes, achieved
// guaranteed rate, coverage); the returned error is nil for a complete
// round and wraps ErrPartialRound when any attempted node failed, so
// strict callers keep their error and degradation-aware callers read
// the report.
func (nw *Network) EnsureRate(p float64) (*CollectionReport, error) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return nw.collect(p)
}

func (nw *Network) collect(p float64) (*CollectionReport, error) {
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("iot: rate %v outside [0, 1]", p)
	}
	nw.clock++
	nw.reinstateLocked()
	effective := math.Max(p, nw.maxRate())
	rep := &CollectionReport{
		Round:     nw.clock,
		Target:    p,
		Effective: effective,
		Failed:    make(map[int]error),
	}
	for _, node := range nw.nodes {
		id := node.ID()
		if nw.down[id] {
			// Unreachable: stale samples keep serving.
			rep.Skipped = append(rep.Skipped, id)
			if st := nw.breaker[id]; st != nil && st.open {
				rep.CircuitOpen = append(rep.CircuitOpen, id)
			}
			continue
		}
		if nw.nodeRate[id] >= effective && !nw.dirty[id] {
			rep.Satisfied = append(rep.Satisfied, id) // already caught up
			continue
		}
		if err := nw.collectNode(node, effective); err != nil {
			rep.Failed[id] = err
			nw.noteFailureLocked(id)
			continue
		}
		nw.noteSuccessLocked(id)
		rep.Refreshed = append(rep.Refreshed, id)
	}
	// Rebuild the columnar index once per round (still under the writer
	// lock) so every subsequent query reads it for free. A failed build
	// only means degraded speed, never a wrong answer — Snapshot then
	// reports no index and the broker estimates over the SampleSets —
	// so it must not fail the round or mask its partial-round error. It
	// is counted and logged instead.
	if err := nw.base.RebuildIndex(); err != nil {
		nw.metrics.noteIndexRebuildFailure(nw.clock, roundCollection)
	}
	rep.Achieved = nw.rate()
	rep.Coverage = nw.coverageLocked()
	rep.Version = nw.base.Version()
	nw.metrics.noteCollection(rep, nw.downCountLocked())
	return rep, rep.Err()
}

// collectNode runs the resample→report→ack exchange with one node. On
// any transport failure the node's shipment bookkeeping is untouched (no
// ack), so the next round simply re-ships — nothing is silently dropped.
func (nw *Network) collectNode(node *Node, rate float64) error {
	id := node.ID()
	cmd := &wire.Resample{NodeID: id, Rate: rate}
	decodedCmd, err := nw.transmit(id, cmd)
	if err != nil {
		return err
	}
	report, err := node.HandleResample(decodedCmd.(*wire.Resample))
	if err != nil {
		return err
	}
	decodedRep, err := nw.transmit(id, report)
	if err != nil {
		return err
	}
	if err := nw.base.HandleReport(decodedRep.(*wire.SampleReport)); err != nil {
		return err
	}
	node.AckReport()
	delete(nw.dirty, id)
	nw.nodeRate[id] = rate
	return nil
}

// AddNode joins a new sensor node carrying the given initial readings
// (dynamic membership). The node is collected on the next EnsureRate at
// whatever rate the deployment runs; until then the network-wide rate
// guarantee reports 0 because the base station lacks its sample.
func (nw *Network) AddNode(values []float64) (int, error) {
	if len(values) == 0 {
		return 0, fmt.Errorf("iot: a joining node needs initial readings")
	}
	nw.mu.Lock()
	defer nw.mu.Unlock()
	// Next id past the highest assigned, so explicit (sparse) numberings
	// and the historical 0..k-1 both extend without collisions.
	id := 0
	for _, node := range nw.nodes {
		if node.ID() >= id {
			id = node.ID() + 1
		}
	}
	node := NewNode(id, nw.cfg.Seed+int64(id)*7919)
	node.Load(values)
	nw.idIndex[id] = len(nw.nodes)
	nw.nodes = append(nw.nodes, node)
	nw.dirty[id] = true
	return id, nil
}

// SetDown changes a node's reachability. Taking a node down makes
// EnsureRate skip it — queries keep being served from its last reported
// (possibly stale) samples, the standard availability/freshness trade.
// Bringing it back marks it dirty so the next collection round refreshes
// it, catching up on anything it sensed while partitioned.
func (nw *Network) SetDown(nodeID int, down bool) error {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if _, ok := nw.idIndex[nodeID]; !ok {
		return fmt.Errorf("iot: no node %d", nodeID)
	}
	if nw.down[nodeID] == down {
		if !down {
			// Already up; still clear any breaker history so an operator
			// reinstatement starts the node with a clean slate.
			delete(nw.breaker, nodeID)
		}
		return nil
	}
	if down {
		nw.down[nodeID] = true
		return nil
	}
	delete(nw.down, nodeID)
	delete(nw.breaker, nodeID)
	nw.dirty[nodeID] = true
	return nil
}

// LiveNodes returns the number of reachable nodes: not manually down,
// not breaker-exiled, not inside a scheduled crash window.
func (nw *Network) LiveNodes() int {
	nw.mu.RLock()
	defer nw.mu.RUnlock()
	live := 0
	for _, node := range nw.nodes {
		if !nw.unreachableLocked(node.ID()) {
			live++
		}
	}
	return live
}

// Coverage returns the fraction of records held by reachable nodes —
// the freshness guarantee the base station can currently offer.
func (nw *Network) Coverage() float64 {
	nw.mu.RLock()
	defer nw.mu.RUnlock()
	return nw.coverageLocked()
}

func (nw *Network) coverageLocked() float64 {
	live, total := nw.liveRecordsLocked()
	if total == 0 {
		return 1
	}
	return float64(live) / float64(total)
}

// Ingest appends new readings at a node (continuous data collection).
// The node's existing sample becomes stale; the next EnsureRate — at any
// rate — refreshes it, and queries in between still see a consistent
// (pre-ingest) snapshot at the base station.
func (nw *Network) Ingest(nodeID int, values []float64) error {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return nw.ingest(nodeID, values)
}

func (nw *Network) ingest(nodeID int, values []float64) error {
	pos, ok := nw.idIndex[nodeID]
	if !ok {
		return fmt.Errorf("iot: no node %d", nodeID)
	}
	if len(values) == 0 {
		return nil
	}
	nw.nodes[pos].Load(values)
	nw.dirty[nodeID] = true
	return nil
}

// IngestRound appends one round of readings across all nodes and
// refreshes the base station's samples at the current rate — the
// long-term continuous-collection loop the paper's related work targets.
// perNode[i] goes to node i; len(perNode) must equal NumNodes. Like
// EnsureRate, the refresh attempts every reachable node: a failed node
// leaves its pre-round sample serving and the error wraps
// ErrPartialRound while the rest of the deployment is still refreshed.
func (nw *Network) IngestRound(perNode [][]float64) error {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if len(perNode) != len(nw.nodes) {
		return fmt.Errorf("iot: round has %d node batches, network has %d nodes", len(perNode), len(nw.nodes))
	}
	// perNode is positional: batch i goes to the i-th node regardless of
	// its (possibly global) id.
	for i, values := range perNode {
		if err := nw.ingest(nw.nodes[i].ID(), values); err != nil {
			return err
		}
	}
	_, err := nw.collect(nw.rate())
	return err
}

// HeartbeatRound delivers one liveness heartbeat from every reachable
// node, billing ordinary baseline traffic. One node's lost heartbeat no
// longer aborts the round: the remaining nodes still check in, and the
// report says who missed — missed heartbeats feed the failure circuit
// breaker, so silent nodes are detected and exiled between collections.
func (nw *Network) HeartbeatRound() (*HeartbeatReport, error) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	nw.clock++
	nw.reinstateLocked()
	rep := &HeartbeatReport{Round: nw.clock, Missed: make(map[int]error)}
	for _, node := range nw.nodes {
		id := node.ID()
		if nw.down[id] {
			rep.Skipped = append(rep.Skipped, id)
			continue
		}
		decoded, err := nw.transmit(id, node.Heartbeat())
		if err != nil {
			rep.Missed[id] = err
			nw.noteFailureLocked(id)
			continue
		}
		if err := nw.base.HandleHeartbeat(decoded.(*wire.Heartbeat)); err != nil {
			rep.Missed[id] = err
			nw.noteFailureLocked(id)
			continue
		}
		nw.noteSuccessLocked(id)
		rep.Delivered = append(rep.Delivered, id)
	}
	// Heartbeat piggybacks can rewrite stored samples; refresh the
	// columnar index before queries resume (best-effort, like collect).
	if err := nw.base.RebuildIndex(); err != nil {
		nw.metrics.noteIndexRebuildFailure(nw.clock, roundHeartbeat)
	}
	nw.metrics.noteHeartbeat(rep, nw.coverageLocked(), nw.downCountLocked())
	return rep, rep.Err()
}

// SampleSets returns the base station's per-node sample sets, ordered by
// node id. The returned sets are immutable: later collections replace
// them rather than mutating them in place.
func (nw *Network) SampleSets() []*sampling.SampleSet {
	nw.mu.RLock()
	defer nw.mu.RUnlock()
	return nw.base.SampleSets()
}

// Snapshot returns one atomically consistent view of the queryable
// state: the per-node sample sets, the columnar sample index built over
// them (nil when no fresh index exists — e.g. before the first
// collection or after a direct Base() mutation — in which case the
// broker falls back to the SampleSet path), the guaranteed sampling
// rate, node and record counts, the monotonic sample-state version, and
// the reachable-record coverage. The broker estimates against a
// snapshot lock-free — the sets and index are immutable, the version
// lets answer caches detect sample-state changes invisible to
// (n, rate) alone, and the coverage discloses how much of the data a
// degraded deployment can still refresh (provenance for best-effort
// answers).
func (nw *Network) Snapshot() (sets []*sampling.SampleSet, idx *index.Index, rate float64, nodes, n int, version uint64, coverage float64) {
	nw.mu.RLock()
	defer nw.mu.RUnlock()
	idx, _ = nw.base.Index()
	return nw.base.SampleSets(), idx, nw.rate(), len(nw.nodes), nw.totalN(), nw.base.Version(), nw.coverageLocked()
}

// State is one atomically consistent view of a network for composition
// by a sharded cluster: the reported node ids (ascending) with their
// sample sets and columnar index, plus the scalar state in the exact
// units a cluster needs to reproduce the single-broker values
// bit-for-bit (live/total record counts instead of a pre-divided
// coverage, so the composed ratio is computed once from integers).
type State struct {
	// IDs are the node ids with stored samples, ascending; Sets is
	// parallel to IDs. Nodes that never reported do not appear.
	IDs  []int
	Sets []*sampling.SampleSet
	// Idx is the columnar index over Sets (nil when stale or absent).
	Idx *index.Index
	// Rate, Nodes, N and Version mirror Snapshot.
	Rate    float64
	Nodes   int
	N       int
	Version uint64
	// LiveRecords / TotalRecords are the integer coverage numerator and
	// denominator: records held by reachable nodes vs all records.
	LiveRecords, TotalRecords int
}

// State captures the network's composable view under the read lock.
func (nw *Network) State() State {
	nw.mu.RLock()
	defer nw.mu.RUnlock()
	idx, _ := nw.base.Index()
	live, total := nw.liveRecordsLocked()
	return State{
		IDs:          nw.base.NodeIDs(),
		Sets:         nw.base.SampleSets(),
		Idx:          idx,
		Rate:         nw.rate(),
		Nodes:        len(nw.nodes),
		N:            nw.totalN(),
		Version:      nw.base.Version(),
		LiveRecords:  live,
		TotalRecords: total,
	}
}

// liveRecordsLocked returns the integer coverage counts: records held
// by reachable nodes and records held overall. Callers hold nw.mu.
func (nw *Network) liveRecordsLocked() (live, total int) {
	for _, node := range nw.nodes {
		total += node.Len()
		if !nw.unreachableLocked(node.ID()) {
			live += node.Len()
		}
	}
	return live, total
}

// NodeIDs returns the ids of all member nodes in join order.
func (nw *Network) NodeIDs() []int {
	nw.mu.RLock()
	defer nw.mu.RUnlock()
	ids := make([]int, len(nw.nodes))
	for i, node := range nw.nodes {
		ids[i] = node.ID()
	}
	return ids
}

// StateVersion returns the base station's monotonic sample-state
// version (see BaseStation.Version).
func (nw *Network) StateVersion() uint64 {
	nw.mu.RLock()
	defer nw.mu.RUnlock()
	return nw.base.Version()
}

// Cost returns the communication bill so far.
func (nw *Network) Cost() CostReport {
	nw.mu.RLock()
	defer nw.mu.RUnlock()
	return nw.cost
}

// Base exposes the base station for integration with the broker layer.
//
// Footgun: the base station itself is NOT locked — Network serializes
// access to it internally, but a *BaseStation obtained here bypasses
// that lock entirely. Calling any of its methods while another goroutine
// drives the network (EnsureRate, IngestRound, HeartbeatRound, Ingest)
// is a data race. Prefer Snapshot, which returns an immutable view under
// the network's lock; touch Base concurrently only with external
// synchronization. See DESIGN.md §7.
func (nw *Network) Base() *BaseStation { return nw.base }

// Clock returns the network round counter: how many collection,
// ingestion or heartbeat rounds have run. Crash windows and breaker
// backoffs are scheduled against it.
func (nw *Network) Clock() uint64 {
	nw.mu.RLock()
	defer nw.mu.RUnlock()
	return nw.clock
}

// ExactCount returns the true global range count by asking every node —
// the expensive path the paper's sampling avoids; used as experiment
// ground truth (and not billed).
func (nw *Network) ExactCount(l, u float64) (int, error) {
	nw.mu.RLock()
	defer nw.mu.RUnlock()
	total := 0
	for _, node := range nw.nodes {
		c, err := node.CountRange(l, u)
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}
