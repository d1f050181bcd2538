// Package messenger provides rebloc's message transports: framed
// wire.Message streams over TCP, plus an in-process transport that keeps
// the full encode/decode cost (the CPU the paper's analysis cares about)
// while skipping the kernel, for pure-CPU benchmarks.
//
// The send path is built for the paper's workload shape: Send encodes
// into a pooled frame and enqueues it; a per-connection writer goroutine
// drains the queue into one bufio flush, flushing immediately when the
// queue empties (idle = latency-critical, the commit path) and coalescing
// many frames per flush under load (adaptive corking). Steady state the
// path performs no heap allocations.
package messenger

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rebloc/internal/wire"
)

// ErrClosed is returned on I/O over a closed connection or listener.
var ErrClosed = errors.New("messenger: closed")

// Conn is a bidirectional message stream. Send is safe for concurrent
// use; Recv must be called from a single goroutine.
type Conn interface {
	// Send frames and queues one message for delivery. Encoding completes
	// before Send returns, so the caller may immediately reuse m and any
	// buffers it references. A nil return means the message was accepted,
	// not that it reached the peer; transport failures surface on a later
	// Send or on Recv.
	Send(m wire.Message) error
	// Recv reads the next message, blocking until one arrives.
	Recv() (wire.Message, error)
	// Close shuts the connection down; pending Recv returns an error.
	// Frames already queued are given a short grace period to drain.
	Close() error
	// RemoteAddr names the peer for diagnostics.
	RemoteAddr() string
}

// Listener accepts incoming connections.
type Listener interface {
	Accept() (Conn, error)
	Close() error
	Addr() string
}

// Transport creates listeners and dials peers.
type Transport interface {
	Listen(addr string) (Listener, error)
	Dial(addr string) (Conn, error)
}

const (
	// sendQueueDepth bounds frames queued behind one TCP writer. A full
	// queue blocks Send — backpressure instead of unbounded memory.
	sendQueueDepth = 256
	// maxCorkBytes caps the bytes coalesced into one flush so a deep
	// queue cannot starve the peer of the first frames indefinitely.
	maxCorkBytes = 1 << 20
	// closeGrace bounds how long Close waits for queued frames to drain
	// before tearing the socket down.
	closeGrace = 250 * time.Millisecond
	// maxRetainedScratch caps the Recv scratch buffer kept across
	// messages: one oversized frame (a 4 MB backfill chunk) must not pin
	// megabytes per connection forever.
	maxRetainedScratch = 64 << 10
	// defaultFrameHint sizes the first pooled frame of a connection;
	// afterwards the last frame's size is used (see nextFrameHint).
	defaultFrameHint = 4 << 10
)

// nextFrameHint turns the size of the frame just sent into the size hint
// for the next one. Clamped to the largest pooled class: the frame after a
// backfill chunk or a repair push is most likely an ordinary one, and a
// hint above wire.MaxPooledFrame would make it allocate (and zero) a
// buffer the size of its predecessor.
func nextFrameHint(sent int) int64 {
	return int64(min(sent, wire.MaxPooledFrame))
}

// --- TCP transport ---

// TCP is the production transport. Stats, when non-nil, receives
// send-path counters for every connection the transport creates;
// DefaultStats is used otherwise.
type TCP struct {
	Stats *Stats
}

var _ Transport = TCP{}

func (t TCP) stats() *Stats {
	if t.Stats != nil {
		return t.Stats
	}
	return DefaultStats
}

// Listen implements Transport. Use addr ":0" for an ephemeral port.
func (t TCP) Listen(addr string) (Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("messenger: listen %s: %w", addr, err)
	}
	return &tcpListener{ln: ln, stats: t.stats()}, nil
}

// Dial implements Transport.
func (t TCP) Dial(addr string) (Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("messenger: dial %s: %w", addr, err)
	}
	return newTCPConn(nc, t.stats()), nil
}

type tcpListener struct {
	ln    net.Listener
	stats *Stats
}

func (l *tcpListener) Accept() (Conn, error) {
	nc, err := l.ln.Accept()
	if err != nil {
		return nil, err
	}
	return newTCPConn(nc, l.stats), nil
}

func (l *tcpListener) Close() error { return l.ln.Close() }
func (l *tcpListener) Addr() string { return l.ln.Addr().String() }

type tcpConn struct {
	nc net.Conn
	br *bufio.Reader
	bw *bufio.Writer // owned by the writer goroutine after construction

	sendq      chan *wire.Frame
	down       chan struct{} // closed once on teardown or Close
	downOnce   sync.Once
	writerDone chan struct{}

	errMu    sync.Mutex
	err      error        // first writer error, returned by later Sends
	sizeHint atomic.Int64 // last framed size, seeds the next pool Get

	scratch []byte // Recv payload buffer, single-reader
	stats   *Stats
}

func newTCPConn(nc net.Conn, stats *Stats) *tcpConn {
	if tc, ok := nc.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true) // latency beats batching on the commit path
	}
	c := &tcpConn{
		nc:         nc,
		br:         bufio.NewReaderSize(nc, 256<<10),
		bw:         bufio.NewWriterSize(nc, 256<<10),
		sendq:      make(chan *wire.Frame, sendQueueDepth),
		down:       make(chan struct{}),
		writerDone: make(chan struct{}),
		stats:      stats,
	}
	c.sizeHint.Store(defaultFrameHint)
	go c.writeLoop()
	return c
}

// sendErr reports why the connection is down.
func (c *tcpConn) sendErr() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	if c.err != nil {
		return c.err
	}
	return ErrClosed
}

// fail records the first writer error and tears the connection down.
func (c *tcpConn) fail(err error) {
	c.errMu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.errMu.Unlock()
	c.downOnce.Do(func() { close(c.down) })
	c.nc.Close()
}

// Send encodes m into a pooled frame and hands it to the writer.
func (c *tcpConn) Send(m wire.Message) error {
	// Check teardown first: with queue space free, the send case below
	// could win the select even after Close.
	select {
	case <-c.down:
		c.stats.SendErrors.Inc()
		return c.sendErr()
	default:
	}
	f := wire.GetFrame(int(c.sizeHint.Load()))
	f.B = wire.AppendFrame(f.B, m)
	c.sizeHint.Store(nextFrameHint(len(f.B)))
	select {
	case c.sendq <- f:
		c.stats.Sends.Inc()
		c.stats.SendQueueDepth.Add(1)
		return nil
	case <-c.down:
		wire.PutFrame(f)
		c.stats.SendErrors.Inc()
		return c.sendErr()
	}
}

// writeLoop is the connection's writer: it drains the send queue into the
// bufio writer, releasing each frame after its bytes are copied out, and
// flushes when the queue empties. At queue depth 1 every message flushes
// immediately (no added latency); under load many frames share one flush.
func (c *tcpConn) writeLoop() {
	defer close(c.writerDone)
	for {
		var f *wire.Frame
		select {
		case f = <-c.sendq:
		case <-c.down:
			c.drainAndFlush()
			return
		}
		c.stats.SendQueueDepth.Add(-1)
		frames, bytes := int64(1), int64(len(f.B))
		_, err := c.bw.Write(f.B)
		wire.PutFrame(f)
		if err != nil {
			c.fail(err)
			c.discardQueued()
			return
		}
	cork:
		for bytes < maxCorkBytes {
			select {
			case f = <-c.sendq:
				c.stats.SendQueueDepth.Add(-1)
				frames++
				bytes += int64(len(f.B))
				_, err = c.bw.Write(f.B)
				wire.PutFrame(f)
				if err != nil {
					c.fail(err)
					c.discardQueued()
					return
				}
			default:
				break cork
			}
		}
		if err := c.bw.Flush(); err != nil {
			c.fail(err)
			c.discardQueued()
			return
		}
		c.stats.Flushes.Inc()
		c.stats.FramesFlushed.Add(frames)
		c.stats.BytesFlushed.Add(bytes)
	}
}

// drainAndFlush writes out whatever Close left in the queue (best
// effort; the socket closes right after the grace period regardless).
func (c *tcpConn) drainAndFlush() {
	wrote := false
	for {
		select {
		case f := <-c.sendq:
			c.stats.SendQueueDepth.Add(-1)
			if _, err := c.bw.Write(f.B); err != nil {
				wire.PutFrame(f)
				c.fail(err)
				c.discardQueued()
				return
			}
			wire.PutFrame(f)
			wrote = true
		default:
			if wrote {
				_ = c.bw.Flush()
			}
			return
		}
	}
}

// discardQueued releases frames stranded by a writer error so blocked
// senders unblock (they observe down) and buffers return to the pool.
func (c *tcpConn) discardQueued() {
	for {
		select {
		case f := <-c.sendq:
			c.stats.SendQueueDepth.Add(-1)
			wire.PutFrame(f)
		default:
			return
		}
	}
}

func (c *tcpConn) Recv() (wire.Message, error) {
	m, scratch, err := wire.ReadMessage(c.br, c.scratch)
	if cap(scratch) > maxRetainedScratch {
		// Decoded messages copied what they need; dropping the oversized
		// buffer keeps one jumbo frame from pinning memory forever.
		scratch = nil
	}
	c.scratch = scratch
	return m, err
}

func (c *tcpConn) Close() error {
	c.downOnce.Do(func() { close(c.down) })
	select {
	case <-c.writerDone:
	case <-time.After(closeGrace):
	}
	return c.nc.Close()
}

func (c *tcpConn) RemoteAddr() string { return c.nc.RemoteAddr().String() }

// --- In-process transport ---

// connQueueDepth mirrors a socket buffer: enough slack that a sender
// doesn't stall on a receiver mid-batch, bounded so backpressure exists.
const connQueueDepth = 512

// InProc is an in-process transport: framed bytes pass through channels,
// so serialisation cost is identical to TCP but the kernel is bypassed.
// Addresses are arbitrary strings scoped to one InProc instance.
type InProc struct {
	// Stats receives send-path counters (DefaultStats when nil).
	Stats *Stats

	mu        sync.Mutex
	listeners map[string]*inprocListener
}

var _ Transport = (*InProc)(nil)

// NewInProc returns an empty in-process network.
func NewInProc() *InProc {
	return &InProc{listeners: make(map[string]*inprocListener)}
}

func (n *InProc) stats() *Stats {
	if n.Stats != nil {
		return n.Stats
	}
	return DefaultStats
}

// Listen implements Transport.
func (n *InProc) Listen(addr string) (Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.listeners[addr]; ok {
		return nil, fmt.Errorf("messenger: inproc address %q in use", addr)
	}
	l := &inprocListener{
		net:    n,
		addr:   addr,
		accept: make(chan *inprocConn),
		closed: make(chan struct{}),
	}
	n.listeners[addr] = l
	return l, nil
}

// Dial implements Transport.
func (n *InProc) Dial(addr string) (Conn, error) {
	n.mu.Lock()
	l, ok := n.listeners[addr]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("messenger: inproc dial %q: connection refused", addr)
	}
	a2b := make(chan *wire.Frame, connQueueDepth)
	b2a := make(chan *wire.Frame, connQueueDepth)
	cl := &pairCloser{ch: make(chan struct{})}
	st := n.stats()
	client := &inprocConn{send: a2b, recv: b2a, closer: cl, peer: addr, stats: st}
	server := &inprocConn{send: b2a, recv: a2b, closer: cl, peer: "inproc-client", stats: st}
	client.sizeHint.Store(defaultFrameHint)
	server.sizeHint.Store(defaultFrameHint)
	select {
	case l.accept <- server:
		return client, nil
	case <-l.closed:
		return nil, fmt.Errorf("messenger: inproc dial %q: %w", addr, ErrClosed)
	}
}

type inprocListener struct {
	net    *InProc
	addr   string
	accept chan *inprocConn
	closed chan struct{}
	once   sync.Once
}

func (l *inprocListener) Accept() (Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.closed:
		return nil, ErrClosed
	}
}

func (l *inprocListener) Close() error {
	l.once.Do(func() {
		close(l.closed)
		l.net.mu.Lock()
		delete(l.net.listeners, l.addr)
		l.net.mu.Unlock()
	})
	return nil
}

func (l *inprocListener) Addr() string { return l.addr }

// pairCloser closes a connection pair exactly once, whichever end closes
// first.
type pairCloser struct {
	once sync.Once
	ch   chan struct{}
	// closed mirrors ch for Send's pre-check: one atomic load per message
	// instead of a select. Set before ch closes, so a Send that saw it
	// clear and then blocks still wakes on ch.
	closed atomic.Bool
}

func (p *pairCloser) close() {
	p.once.Do(func() {
		p.closed.Store(true)
		close(p.ch)
	})
}

type inprocConn struct {
	send     chan *wire.Frame
	recv     chan *wire.Frame
	closer   *pairCloser
	peer     string
	sizeHint atomic.Int64
	stats    *Stats
}

func (c *inprocConn) Send(m wire.Message) error {
	// Check closure first: with buffer space free, the send case below
	// could win the select even after Close.
	if c.closer.closed.Load() {
		c.stats.SendErrors.Inc()
		return ErrClosed
	}
	f := wire.GetFrame(int(c.sizeHint.Load()))
	f.B = wire.AppendFrame(f.B, m)
	c.sizeHint.Store(nextFrameHint(len(f.B)))
	select {
	case c.send <- f:
		c.stats.Sends.Inc()
		return nil
	case <-c.closer.ch:
		wire.PutFrame(f)
		c.stats.SendErrors.Inc()
		return ErrClosed
	}
}

// decodeAndRelease unmarshals a frame and returns its buffer to the pool.
// Safe because wire decoders copy payload bytes out of the frame.
func decodeAndRelease(f *wire.Frame) (wire.Message, error) {
	m, err := wire.Unmarshal(f.B)
	wire.PutFrame(f)
	return m, err
}

func (c *inprocConn) Recv() (wire.Message, error) {
	select {
	case f := <-c.recv:
		return decodeAndRelease(f)
	case <-c.closer.ch:
		// Drain anything already queued before reporting closure.
		select {
		case f := <-c.recv:
			return decodeAndRelease(f)
		default:
			return nil, ErrClosed
		}
	}
}

func (c *inprocConn) Close() error {
	c.closer.close()
	return nil
}

func (c *inprocConn) RemoteAddr() string { return c.peer }

// ConnSet tracks accepted connections so a server can close them all on
// shutdown — otherwise per-connection receive loops block in Recv forever
// and a graceful stop never finishes.
type ConnSet struct {
	mu     sync.Mutex
	conns  map[Conn]struct{}
	closed bool
}

// Add registers a live connection. It returns false (and the caller must
// close the conn) when the set is already shut down.
func (s *ConnSet) Add(c Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if s.conns == nil {
		s.conns = make(map[Conn]struct{})
	}
	s.conns[c] = struct{}{}
	return true
}

// Remove forgets a connection (its loop exited).
func (s *ConnSet) Remove(c Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// CloseAll closes every tracked connection and rejects future Adds.
func (s *ConnSet) CloseAll() {
	s.mu.Lock()
	conns := make([]Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.conns = nil
	s.closed = true
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}
