package market

import (
	"sync"
	"time"

	"privrange/internal/telemetry"
)

// defaultCoalesceWindow bounds how long a buy may wait for companions
// before its batch is sealed and executed.
const defaultCoalesceWindow = time.Millisecond

// defaultCoalesceBatch is the batch-size seal threshold: a batch that
// fills before its window elapses executes immediately.
const defaultCoalesceBatch = 64

// batchKey groups buys that can share one batch sale: the estimation
// kernel and the quote are per (dataset, accuracy), the customer is
// settled per sale inside the batch.
type batchKey struct {
	dataset      string
	alpha, delta float64
}

// pendingBuy is one enqueued buy waiting for its batch to settle.
type pendingBuy struct {
	req  Request
	tr   *telemetry.Trace
	done chan saleResult
}

// pendingBatch accumulates same-key buys until the window elapses or
// the batch fills.
type pendingBatch struct {
	key   batchKey
	buys  []*pendingBuy
	timer *time.Timer
}

// Coalescer folds concurrent single-query buys for the same dataset
// and accuracy into batch sales: each buy waits at most the window (or
// until the batch fills), then one sellBatch call settles the whole
// group through the shared estimation kernel. A single executor
// goroutine runs batches one at a time, so batch sales — and therefore
// receipt ids — are totally ordered: the serial oracle that replays
// buys in receipt order reproduces the books bit-for-bit.
type Coalescer struct {
	b        *Broker
	window   time.Duration
	maxBatch int

	mu      sync.Mutex
	batches map[batchKey]*pendingBatch
	closed  bool
	// sealWG counts batches detached from the map but not yet handed to
	// the executor, so Close can wait for every in-flight seal before
	// closing ready.
	sealWG sync.WaitGroup
	ready  chan []*pendingBuy
	execWG sync.WaitGroup
}

// CoalesceConfig tunes EnableCoalescing; zero values select defaults.
type CoalesceConfig struct {
	// Window is the longest a buy waits for companions (default 1ms).
	Window time.Duration
	// MaxBatch seals a batch early once this many buys joined
	// (default 64).
	MaxBatch int
}

// EnableCoalescing attaches a coalescer to the broker: protocol buys
// (Broker.Handle) are folded into batch sales from now on. Direct
// Broker.Buy calls keep the serial path. Returns the coalescer so the
// owner can Close it on shutdown; enabling twice replaces the previous
// coalescer (which should be closed by its owner).
func (b *Broker) EnableCoalescing(cfg CoalesceConfig) *Coalescer {
	if cfg.Window <= 0 {
		cfg.Window = defaultCoalesceWindow
	}
	if cfg.MaxBatch < 1 {
		cfg.MaxBatch = defaultCoalesceBatch
	}
	c := &Coalescer{
		b:        b,
		window:   cfg.Window,
		maxBatch: cfg.MaxBatch,
		batches:  make(map[batchKey]*pendingBatch),
		ready:    make(chan []*pendingBuy),
	}
	c.execWG.Add(1)
	go c.run()
	b.coal.Store(c)
	return c
}

// Coalescer returns the attached coalescer (nil when disabled).
func (b *Broker) Coalescer() *Coalescer { return b.coal.Load() }

// buy enqueues one protocol buy and blocks until its batch settles.
// After Close it degrades to the serial path, so shutdown never loses
// a sale; each such buy counts in
// privrange_market_coalesce_fallback_total and logs an
// EventCoalesceFallback.
func (c *Coalescer) buy(req Request) saleResult {
	pb := &pendingBuy{
		req:  req,
		tr:   &telemetry.Trace{},
		done: make(chan saleResult, 1),
	}
	// The trace starts at enqueue: coalescing trades up to one window
	// of latency for throughput, and the buy histogram must show that
	// wait, not hide it. The wire trace context joins here too, so a
	// sampled buy's handler span covers the coalescing wait.
	c.b.tele.Load().beginWire(pb.tr, "market.buy", req.Trace)
	pb.tr.Annotate("dataset", req.Dataset)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.b.tele.Load().noteCoalesceFallback()
		resp, price, err := c.b.buyTraced(req, pb.tr)
		return saleResult{resp: resp, price: price, err: err}
	}
	key := batchKey{dataset: req.Dataset, alpha: req.Alpha, delta: req.Delta}
	batch := c.batches[key]
	if batch == nil {
		batch = &pendingBatch{key: key}
		batch.timer = time.AfterFunc(c.window, func() { c.seal(batch) })
		c.batches[key] = batch
	}
	batch.buys = append(batch.buys, pb)
	full := len(batch.buys) >= c.maxBatch
	c.mu.Unlock()
	if full {
		c.seal(batch)
	}
	return <-pb.done
}

// seal detaches a batch from the accumulation map and hands it to the
// executor. The timer-fired and batch-full paths race benignly: the
// map-identity check lets exactly one of them win.
func (c *Coalescer) seal(batch *pendingBatch) {
	c.mu.Lock()
	if c.batches[batch.key] != batch {
		c.mu.Unlock()
		return // already sealed (or claimed by Close)
	}
	delete(c.batches, batch.key)
	batch.timer.Stop()
	c.sealWG.Add(1)
	c.mu.Unlock()
	// The send happens outside the lock: the executor may be busy and
	// enqueueing must not block timer goroutines against enqueues.
	c.ready <- batch.buys
	c.sealWG.Done()
}

// run is the single batch executor: one batch sale at a time, so batch
// commits are totally ordered.
func (c *Coalescer) run() {
	defer c.execWG.Done()
	for buys := range c.ready {
		c.execute(buys)
	}
}

func (c *Coalescer) execute(buys []*pendingBuy) {
	reqs := make([]Request, len(buys))
	traces := make([]*telemetry.Trace, len(buys))
	for i, pb := range buys {
		reqs[i] = pb.req
		traces[i] = pb.tr
	}
	results := c.b.sellBatch(reqs, traces)
	c.b.tele.Load().noteCoalesce(len(buys))
	for i, pb := range buys {
		pb.done <- results[i]
	}
}

// Close drains the coalescer: every accumulated batch executes, then
// the executor exits. Buys enqueued after Close fall back to the
// serial path (counted as privrange_market_coalesce_fallback_total).
// Safe to call twice.
func (c *Coalescer) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	var leftovers []*pendingBatch
	for key, batch := range c.batches {
		batch.timer.Stop()
		delete(c.batches, key)
		c.sealWG.Add(1)
		leftovers = append(leftovers, batch)
	}
	c.mu.Unlock()
	for _, batch := range leftovers {
		c.ready <- batch.buys
		c.sealWG.Done()
	}
	// Timer-fired seals that already detached their batch must land
	// before ready closes.
	c.sealWG.Wait()
	close(c.ready)
	c.execWG.Wait()
}
