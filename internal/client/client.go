// Package client implements the RADOS-like object client: it caches the
// cluster map, routes each operation to the primary OSD of the object's
// placement group, and transparently refreshes the map and retries on
// epoch changes, primary moves and transient degradation.
package client

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rebloc/internal/crush"
	"rebloc/internal/messenger"
	"rebloc/internal/wire"
)

// Errors returned by the client.
var (
	ErrNotFound = errors.New("client: object not found")
	ErrTimeout  = errors.New("client: request timed out")
	ErrRetries  = errors.New("client: retries exhausted")
	ErrClosed   = errors.New("client: closed")
)

// Options tunes client behaviour.
type Options struct {
	// RequestTimeout bounds one attempt.
	RequestTimeout time.Duration
	// MaxRetries bounds map-refresh retries per operation.
	MaxRetries int
	// RetryBackoff is the pause between retries.
	RetryBackoff time.Duration
}

func (o *Options) fill() {
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 10 * time.Second
	}
	if o.MaxRetries <= 0 {
		o.MaxRetries = 60
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 20 * time.Millisecond
	}
}

// Client is a cluster client; it is safe for concurrent use.
type Client struct {
	tr      messenger.Transport
	monAddr string
	opts    Options

	mapMu sync.RWMutex
	m     *crush.Map

	connMu sync.Mutex
	conns  map[uint32]*osdConn

	reqID  atomic.Uint64
	closed atomic.Bool
}

// New connects to the monitor and fetches the initial map.
func New(tr messenger.Transport, monAddr string, opts Options) (*Client, error) {
	opts.fill()
	c := &Client{
		tr:      tr,
		monAddr: monAddr,
		opts:    opts,
		conns:   make(map[uint32]*osdConn),
	}
	if err := c.refreshMap(); err != nil {
		return nil, err
	}
	return c, nil
}

// Map returns the cached cluster map.
func (c *Client) Map() *crush.Map {
	c.mapMu.RLock()
	defer c.mapMu.RUnlock()
	return c.m
}

// refreshMap polls the monitor for the newest map.
func (c *Client) refreshMap() error {
	conn, err := c.tr.Dial(c.monAddr)
	if err != nil {
		return fmt.Errorf("client: dial monitor: %w", err)
	}
	defer conn.Close()
	if err := conn.Send(&wire.GetMap{ReqID: 1}); err != nil {
		return err
	}
	m, err := conn.Recv()
	if err != nil {
		return err
	}
	mm, ok := m.(*wire.MonMap)
	if !ok {
		return fmt.Errorf("client: unexpected monitor reply %s", m.Type())
	}
	cm, err := crush.Decode(mm.MapBytes)
	if err != nil {
		return err
	}
	c.mapMu.Lock()
	if c.m == nil || cm.Epoch > c.m.Epoch {
		c.m = cm
	}
	c.mapMu.Unlock()
	return nil
}

// osdConn multiplexes concurrent requests over one connection to an OSD.
type osdConn struct {
	conn messenger.Conn

	mu      sync.Mutex
	waiting map[uint64]chan *wire.Reply
	// dead is atomic: recvLoop sets it under oc.mu while connTo checks it
	// under c.connMu — two different locks, so the flag itself must not
	// need either.
	dead atomic.Bool
}

// waiter is what one operation blocks on: the channel its reply arrives on
// and the timer bounding the attempt. Waiters are pooled (a channel and a
// timer per 4 KB write showed in the profile), so a waiter must come back
// to the pool with nothing in flight towards it: recvLoop delivers under
// oc.mu, cancelWait unregisters under the same lock, and whatever was
// delivered before the cancel is drained there. After cancelWait returns
// no reply for the cancelled request can reach the channel.
type waiter struct {
	ch    chan *wire.Reply // capacity 1: one registration at a time
	timer *time.Timer
}

var waiterPool = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &waiter{ch: make(chan *wire.Reply, 1), timer: t}
}}

// arm (re)starts the attempt timer.
func (w *waiter) arm(d time.Duration) {
	w.disarm()
	w.timer.Reset(d)
}

// disarm stops the timer and clears a tick that already fired.
func (w *waiter) disarm() {
	if !w.timer.Stop() {
		select {
		case <-w.timer.C:
		default:
		}
	}
}

func (w *waiter) release() {
	w.disarm()
	waiterPool.Put(w)
}

func (oc *osdConn) registerWait(id uint64, w *waiter) {
	oc.mu.Lock()
	oc.waiting[id] = w.ch
	oc.mu.Unlock()
}

// cancelWait abandons the wait for id and leaves w's channel empty.
func (oc *osdConn) cancelWait(id uint64, w *waiter) {
	oc.mu.Lock()
	delete(oc.waiting, id)
	oc.mu.Unlock()
	select {
	case <-w.ch:
	default:
	}
}

// connTo returns (dialling if needed) the connection to an OSD.
func (c *Client) connTo(id uint32) (*osdConn, error) {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	if oc, ok := c.conns[id]; ok && !oc.dead.Load() {
		return oc, nil
	}
	m := c.Map()
	info, ok := m.OSDs[id]
	if !ok || !info.Up {
		return nil, fmt.Errorf("client: osd %d not up", id)
	}
	conn, err := c.tr.Dial(info.Addr)
	if err != nil {
		return nil, fmt.Errorf("client: dial osd %d: %w", id, err)
	}
	oc := &osdConn{conn: conn, waiting: make(map[uint64]chan *wire.Reply)}
	c.conns[id] = oc
	go c.recvLoop(id, oc)
	return oc, nil
}

// recvLoop dispatches replies to their waiters; on connection failure all
// waiters get a transient error reply.
func (c *Client) recvLoop(id uint32, oc *osdConn) {
	for {
		m, err := oc.conn.Recv()
		if err != nil {
			oc.dead.Store(true)
			oc.mu.Lock()
			for reqID, ch := range oc.waiting {
				ch <- &wire.Reply{ReqID: reqID, Status: wire.StatusAgain}
				delete(oc.waiting, reqID)
			}
			oc.mu.Unlock()
			c.connMu.Lock()
			if c.conns[id] == oc {
				delete(c.conns, id)
			}
			c.connMu.Unlock()
			return
		}
		reply, ok := m.(*wire.Reply)
		if !ok {
			continue
		}
		// Delivered under the lock (see waiter). The send cannot block: the
		// channel holds one reply and has one registration.
		oc.mu.Lock()
		if ch, ok := oc.waiting[reply.ReqID]; ok {
			delete(oc.waiting, reply.ReqID)
			ch <- reply
		}
		oc.mu.Unlock()
	}
}

// do routes one request to oid's primary with retry-on-remap semantics.
// build constructs the message for the current epoch and request id.
func (c *Client) do(oid wire.ObjectID, build func(reqID uint64, epoch uint32) wire.Message) (*wire.Reply, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	w := waiterPool.Get().(*waiter)
	defer w.release()
	var lastStatus wire.Status
	againStreak := 0
	for attempt := 0; attempt < c.opts.MaxRetries; attempt++ {
		if attempt > 0 {
			// Retry-after semantics: StatusAgain doubles as the cluster's
			// graded backpressure reject. Consecutive Agains back off
			// exponentially (capped at 16× the base) so rejected producers
			// retry at a pace the bottom-half drain can absorb instead of
			// hammering the ingress while it sheds load.
			backoff := c.opts.RetryBackoff
			if lastStatus == wire.StatusAgain {
				againStreak++
				shift := againStreak - 1
				if shift > 4 {
					shift = 4
				}
				backoff *= time.Duration(1 << shift)
			} else {
				againStreak = 0
			}
			time.Sleep(backoff)
			if lastStatus == wire.StatusStaleEpoch || lastStatus == wire.StatusNotPrimary || lastStatus == wire.StatusAgain {
				if err := c.refreshMap(); err != nil {
					continue
				}
			}
		}
		m := c.Map()
		pg := m.PGOf(oid)
		primary, err := m.Primary(pg)
		if err != nil {
			lastStatus = wire.StatusAgain
			continue
		}
		oc, err := c.connTo(primary)
		if err != nil {
			lastStatus = wire.StatusAgain
			continue
		}
		reqID := c.reqID.Add(1)
		oc.registerWait(reqID, w)
		if err := oc.conn.Send(build(reqID, m.Epoch)); err != nil {
			oc.cancelWait(reqID, w)
			lastStatus = wire.StatusAgain
			continue
		}
		w.arm(c.opts.RequestTimeout)
		select {
		case reply := <-w.ch:
			switch reply.Status {
			case wire.StatusOK:
				return reply, nil
			case wire.StatusNotFound:
				return reply, ErrNotFound
			case wire.StatusStaleEpoch, wire.StatusNotPrimary, wire.StatusAgain:
				lastStatus = reply.Status
				continue
			default:
				return reply, fmt.Errorf("client: %s", reply.Status)
			}
		case <-w.timer.C:
			oc.cancelWait(reqID, w)
			return nil, ErrTimeout
		}
	}
	return nil, fmt.Errorf("%w (last status %s)", ErrRetries, lastStatus)
}

// Write stores data at off within the object.
func (c *Client) Write(oid wire.ObjectID, off uint64, data []byte) (uint64, error) {
	reply, err := c.do(oid, func(reqID uint64, epoch uint32) wire.Message {
		return &wire.ClientWrite{ReqID: reqID, Epoch: epoch, OID: oid, Offset: off, Data: data}
	})
	if err != nil {
		return 0, err
	}
	return reply.Version, nil
}

// Read returns length bytes at off within the object.
func (c *Client) Read(oid wire.ObjectID, off uint64, length uint32) ([]byte, error) {
	reply, err := c.do(oid, func(reqID uint64, epoch uint32) wire.Message {
		return &wire.ClientRead{ReqID: reqID, Epoch: epoch, OID: oid, Offset: off, Length: length}
	})
	if err != nil {
		return nil, err
	}
	return reply.Data, nil
}

// Delete removes the object.
func (c *Client) Delete(oid wire.ObjectID) error {
	_, err := c.do(oid, func(reqID uint64, epoch uint32) wire.Message {
		return &wire.ClientDelete{ReqID: reqID, Epoch: epoch, OID: oid}
	})
	return err
}

// FlushOSDs asks every up OSD to flush staged state (admin/benchmarks).
func (c *Client) FlushOSDs() error {
	m := c.Map()
	w := waiterPool.Get().(*waiter)
	defer w.release()
	for _, id := range m.UpOSDs() {
		oc, err := c.connTo(id)
		if err != nil {
			return err
		}
		reqID := c.reqID.Add(1)
		oc.registerWait(reqID, w)
		if err := oc.conn.Send(&wire.Flush{ReqID: reqID}); err != nil {
			oc.cancelWait(reqID, w)
			return err
		}
		w.arm(c.opts.RequestTimeout)
		select {
		case reply := <-w.ch:
			if reply.Status != wire.StatusOK {
				return fmt.Errorf("client: flush osd %d: %s", id, reply.Status)
			}
		case <-w.timer.C:
			oc.cancelWait(reqID, w)
			return ErrTimeout
		}
	}
	return nil
}

// Close shuts down all connections.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	c.connMu.Lock()
	defer c.connMu.Unlock()
	for _, oc := range c.conns {
		oc.conn.Close()
	}
	return nil
}
