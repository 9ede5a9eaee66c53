package market

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"privrange/internal/telemetry"
)

// Client is a TCP consumer of a market Server. In the default mode each
// Do performs one blocking request/response exchange (safe for
// concurrent use; exchanges serialize on the connection). With
// WithPipelining, concurrent Do calls issue immediately and responses
// are matched back by request id, so one connection carries many
// requests in flight — against an old server that echoes no ids the
// pipelined client falls back to first-in-first-out matching, which is
// exactly the order a one-at-a-time server answers in.
type Client struct {
	mu      sync.Mutex
	conn    net.Conn
	reader  *bufio.Reader
	timeout time.Duration

	// Pipelined-mode state, all guarded by mu: the id sequence, the
	// per-request waiters, the FIFO of outstanding ids (for matching
	// id-less responses from old servers), and the sticky transport
	// error that fails every subsequent call once the connection dies.
	pipelined  bool
	seq        uint64
	pending    map[uint64]chan clientResult
	order      []uint64
	sticky     error
	fallbacks  ClientFallbacks
	readerOnce sync.Once
	readerWG   sync.WaitGroup

	// Trace origination (WithTracing): sampler decides which requests
	// carry a fresh trace context, spans receives the client's own
	// send→receive root span. Both nil by default (no tracing).
	sampler *telemetry.Sampler
	spans   *telemetry.SpanBuf
}

// ClientFallbacks counts the pipelined client's silent fallbacks: the
// responses dispatch could not match by id.
type ClientFallbacks struct {
	// FIFO counts id-less responses (an old server) matched to the
	// oldest outstanding request.
	FIFO uint64
	// Dropped counts responses no waiter received: an unknown or
	// duplicate id, or an id-less response with no request outstanding.
	Dropped uint64
}

// Fallbacks returns the client's fallback counts so far.
func (c *Client) Fallbacks() ClientFallbacks {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fallbacks
}

// clientResult is what a pipelined waiter receives: the matched
// response, or the transport error that killed the connection.
type clientResult struct {
	resp *Response
	err  error
}

// DialOption configures Dial.
type DialOption func(*Client)

// WithRequestTimeout bounds each Do exchange (send + receive) and the
// initial TCP connect. It mirrors the server's idle deadline: without
// it a stalled or dead server pins the caller forever. Zero or negative
// disables the deadline — callers own that risk. The default matches
// the server's defaultIdleTimeout.
func WithRequestTimeout(d time.Duration) DialOption {
	return func(c *Client) { c.timeout = d }
}

// WithPipelining switches the client to pipelined mode: concurrent Do
// calls write immediately and block only on their own response. The
// mode is fixed at dial time.
func WithPipelining() DialOption {
	return func(c *Client) { c.pipelined = true }
}

// WithTracing originates distributed traces from this client: every
// n-th Do (deterministic counter, no randomness) stamps a fresh
// sampled trace context onto the request's wire form, and the client's
// own send→receive span is emitted into buf as the trace root — so
// /traces on the server the buf belongs to shows only server-side
// time, while a client sharing a registry in-process (tests, privload)
// sees the full tree including network time. A server that predates
// the trace field ignores it. Requests that already carry a trace
// context are passed through untouched.
func WithTracing(sampleN int, buf *telemetry.SpanBuf) DialOption {
	return func(c *Client) {
		c.sampler = telemetry.NewSampler(sampleN)
		c.spans = buf
	}
}

// Dial connects to a market server.
func Dial(addr string, opts ...DialOption) (*Client, error) {
	c := &Client{timeout: defaultIdleTimeout}
	for _, opt := range opts {
		opt(c)
	}
	dialTimeout := c.timeout
	if dialTimeout <= 0 {
		dialTimeout = 0 // no timeout: net.DialTimeout treats 0 as none
	}
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("market: dial %s: %w", addr, err)
	}
	c.conn = conn
	c.reader = bufio.NewReader(conn)
	if c.pipelined {
		c.pending = make(map[uint64]chan clientResult)
	}
	return c, nil
}

// Do performs one request/response exchange. It is safe for concurrent
// use: in the default mode exchanges serialize on the single
// connection; in pipelined mode they overlap. The configured request
// timeout covers the whole exchange: a server that accepts the request
// but never answers yields a deadline error instead of a hang.
func (c *Client) Do(req Request) (*Response, error) {
	root, start := c.traceStart(&req)
	var resp *Response
	var err error
	if c.pipelined {
		resp, err = c.doPipelined(req)
	} else {
		resp, err = c.doSerial(req)
	}
	c.spans.EmitRootSince("client.request", root, start)
	return resp, err
}

// traceStart stamps a fresh sampled root context onto the request when
// this client originates traces and the sampler fires. Returns the
// root context and its start stamp (zero/0 when untraced, which makes
// the later EmitRootSince a no-op).
func (c *Client) traceStart(req *Request) (telemetry.SpanContext, int64) {
	if c.spans == nil || req.Trace != "" || !c.sampler.Sample() {
		return telemetry.SpanContext{}, 0
	}
	root := c.spans.NewRoot()
	req.Trace = root.String()
	return root, telemetry.StartStamp(root)
}

func (c *Client) doSerial(req Request) (*Response, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("market: marshal request: %w", err)
	}
	payload = append(payload, '\n')

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.timeout > 0 {
		if err := c.conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
			return nil, fmt.Errorf("market: arm deadline: %w", err)
		}
	}
	if _, err := c.conn.Write(payload); err != nil {
		return nil, fmt.Errorf("market: send: %w", err)
	}
	line, err := c.reader.ReadBytes('\n')
	if err != nil {
		return nil, fmt.Errorf("market: receive: %w", err)
	}
	var resp Response
	if err := json.Unmarshal(line, &resp); err != nil {
		return nil, fmt.Errorf("market: malformed response: %w", err)
	}
	return &resp, nil
}

// doPipelined issues the request with a fresh id and blocks only on its
// own response (or the per-call timeout, or connection death).
func (c *Client) doPipelined(req Request) (*Response, error) {
	c.readerOnce.Do(c.startReader)
	c.mu.Lock()
	if c.sticky != nil {
		err := c.sticky
		c.mu.Unlock()
		return nil, err
	}
	c.seq++
	id := c.seq
	req.ID = id
	payload, err := json.Marshal(req)
	if err != nil {
		c.mu.Unlock()
		return nil, fmt.Errorf("market: marshal request: %w", err)
	}
	payload = append(payload, '\n')
	ch := make(chan clientResult, 1)
	c.pending[id] = ch
	c.order = append(c.order, id)
	if c.timeout > 0 {
		if derr := c.conn.SetWriteDeadline(time.Now().Add(c.timeout)); derr != nil {
			delete(c.pending, id)
			c.mu.Unlock()
			return nil, fmt.Errorf("market: arm deadline: %w", derr)
		}
	}
	_, werr := c.conn.Write(payload)
	c.mu.Unlock()
	if werr != nil {
		// A failed write poisons the stream for every in-flight call,
		// not just this one: a partial frame desyncs the protocol.
		c.fail(fmt.Errorf("market: send: %w", werr))
		return nil, fmt.Errorf("market: send: %w", werr)
	}
	var timeoutC <-chan time.Time
	if c.timeout > 0 {
		timer := time.NewTimer(c.timeout)
		defer timer.Stop()
		timeoutC = timer.C
	}
	select {
	case r := <-ch:
		return r.resp, r.err
	case <-timeoutC:
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return nil, fmt.Errorf("market: receive: request %d timed out after %v", id, c.timeout)
	}
}

// startReader launches the single response-demultiplexing goroutine.
// It exits when the connection dies (including via Close), failing all
// outstanding calls; Close joins it.
func (c *Client) startReader() {
	c.readerWG.Add(1)
	go func() {
		defer c.readerWG.Done()
		for {
			line, err := c.reader.ReadBytes('\n')
			if err != nil {
				c.fail(fmt.Errorf("market: receive: %w", err))
				return
			}
			var resp Response
			if err := json.Unmarshal(line, &resp); err != nil {
				// Framing is shot: no way to attribute this or any later
				// bytes. Fail everything rather than hang the waiters.
				c.fail(fmt.Errorf("market: malformed response: %w", err))
				return
			}
			c.dispatch(&resp)
		}
	}()
}

// dispatch routes one response to its waiter: by id when the server
// echoes one, else first-in-first-out (an old server answering in
// arrival order). Unknown and duplicate ids are dropped — the waiter
// they fail to reach times out rather than the whole client dying on a
// buggy peer. Both fallbacks count in Fallbacks.
func (c *Client) dispatch(resp *Response) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := resp.ID
	if id == 0 {
		for len(c.order) > 0 {
			head := c.order[0]
			c.order = c.order[1:]
			if ch, ok := c.pending[head]; ok {
				delete(c.pending, head)
				c.fallbacks.FIFO++
				ch <- clientResult{resp: resp}
				return
			}
			// Stale entry (timed out, or already matched by id): keep
			// popping until a live waiter or an empty queue.
		}
		c.fallbacks.Dropped++
		return
	}
	ch, ok := c.pending[id]
	if !ok {
		c.fallbacks.Dropped++
		return
	}
	delete(c.pending, id)
	ch <- clientResult{resp: resp}
}

// fail records the first transport error and delivers it to every
// outstanding call; later Do calls fail fast with the same error.
func (c *Client) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sticky != nil {
		return
	}
	c.sticky = err
	for id, ch := range c.pending {
		ch <- clientResult{err: err}
		delete(c.pending, id)
	}
	c.order = c.order[:0]
}

// Close tears the connection down. In pipelined mode it also joins the
// reader goroutine, which fails any calls still in flight.
func (c *Client) Close() error {
	c.mu.Lock()
	err := c.conn.Close()
	c.mu.Unlock()
	c.readerWG.Wait()
	return err
}

// ErrRemote wraps a broker-side failure reported over the protocol.
var ErrRemote = errors.New("market: remote error")

// ErrOverloaded wraps an admission-control rejection: the server shed
// the request without processing it, and an identical retry after
// backoff may succeed. Test with errors.Is.
var ErrOverloaded = errors.New("market: server overloaded")

// expectOK converts a Response with Error set into a Go error.
func expectOK(resp *Response) error {
	if resp.Retryable {
		return fmt.Errorf("%w: %s", ErrOverloaded, resp.Error)
	}
	if resp.Error != "" {
		return fmt.Errorf("%w: %s", ErrRemote, resp.Error)
	}
	if !resp.OK {
		return fmt.Errorf("%w: response not ok", ErrRemote)
	}
	return nil
}

// Catalog fetches the dataset list.
func (c *Client) Catalog() ([]DatasetInfo, error) {
	resp, err := c.Do(Request{Op: "catalog"})
	if err != nil {
		return nil, err
	}
	if err := expectOK(resp); err != nil {
		return nil, err
	}
	return resp.Datasets, nil
}

// Quote prices an accuracy level remotely.
func (c *Client) Quote(dataset string, alpha, delta float64) (price, variance float64, err error) {
	resp, err := c.Do(Request{Op: "quote", Dataset: dataset, Alpha: alpha, Delta: delta})
	if err != nil {
		return 0, 0, err
	}
	if err := expectOK(resp); err != nil {
		return 0, 0, err
	}
	return resp.Price, resp.Variance, nil
}

// Buy purchases one answer remotely.
func (c *Client) Buy(req Request) (*Response, error) {
	req.Op = "buy"
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	if err := expectOK(resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// Deposit credits the customer's prepaid account on the broker and
// returns the new balance. Fails when the broker runs in invoice mode.
func (c *Client) Deposit(customer string, amount float64) (float64, error) {
	resp, err := c.Do(Request{Op: "deposit", Customer: customer, Amount: amount})
	if err != nil {
		return 0, err
	}
	if err := expectOK(resp); err != nil {
		return 0, err
	}
	return resp.Balance, nil
}

// Balance fetches the customer's prepaid balance.
func (c *Client) Balance(customer string) (float64, error) {
	resp, err := c.Do(Request{Op: "balance", Customer: customer})
	if err != nil {
		return 0, err
	}
	if err := expectOK(resp); err != nil {
		return 0, err
	}
	return resp.Balance, nil
}

// Audit fetches the broker's averaging-pattern report.
func (c *Client) Audit() ([]AveragingSuspicion, error) {
	resp, err := c.Do(Request{Op: "audit"})
	if err != nil {
		return nil, err
	}
	if err := expectOK(resp); err != nil {
		return nil, err
	}
	return resp.Suspicions, nil
}
