package osd

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rebloc/internal/messenger"
	"rebloc/internal/wire"
)

// pendingOp tracks one client operation awaiting replica acknowledgements
// (and, in coupled modes, the local commit).
type pendingOp struct {
	remaining atomic.Int32
	status    atomic.Uint32 // first non-OK status wins
	done      func(wire.Status)
	created   time.Time
	seen      []uint32 // OSDs already counted (under pendingSet.mu)
}

// pendingStripes is the lock-striping factor of pendingSet. The
// rendezvous between shard goroutines (register) and peer receive loops
// (complete) is inherently cross-goroutine, so the lock cannot disappear
// from the commit path — striping by id cuts the contention 16× so
// shards rarely collide on the same stripe.
const pendingStripes = 16

// pendingSet indexes in-flight operations by their replication tag.
type pendingSet struct {
	stripes [pendingStripes]pendingStripe
	next    atomic.Uint64
}

type pendingStripe struct {
	mu sync.Mutex
	m  map[uint64]*pendingOp
}

func newPendingSet() *pendingSet {
	p := &pendingSet{}
	for i := range p.stripes {
		p.stripes[i].m = make(map[uint64]*pendingOp)
	}
	return p
}

func (p *pendingSet) stripe(id uint64) *pendingStripe {
	return &p.stripes[id%pendingStripes]
}

// register creates a pending op needing n completions; done runs exactly
// once, on the goroutine that delivers the last completion.
func (p *pendingSet) register(n int, done func(wire.Status)) uint64 {
	id := p.next.Add(1)
	op := &pendingOp{done: done, created: time.Now()}
	op.remaining.Store(int32(n))
	if n <= 0 {
		done(wire.StatusOK)
		return id
	}
	s := p.stripe(id)
	s.mu.Lock()
	s.m[id] = op
	s.mu.Unlock()
	return id
}

// complete delivers one completion attributed to OSD from. Each OSD
// counts at most once per pending op: with at-least-once delivery a
// network can replay a ReplAck frame, and counting the duplicate would
// acknowledge the client with one replica's durability still outstanding.
func (p *pendingSet) complete(id uint64, from uint32, status wire.Status) {
	s := p.stripe(id)
	s.mu.Lock()
	op := s.m[id]
	if op != nil {
		for _, seen := range op.seen {
			if seen == from {
				s.mu.Unlock()
				return // duplicate ack from the same OSD
			}
		}
		op.seen = append(op.seen, from)
	}
	s.mu.Unlock()
	if op == nil {
		return // late ack after completion or timeout
	}
	if status != wire.StatusOK {
		op.status.CompareAndSwap(uint32(wire.StatusOK), uint32(status))
	}
	if op.remaining.Add(-1) == 0 {
		s.mu.Lock()
		delete(s.m, id)
		s.mu.Unlock()
		op.done(wire.Status(op.status.Load()))
	}
}

// fail aborts a pending op outright (peer connection lost).
func (p *pendingSet) fail(id uint64, status wire.Status) {
	s := p.stripe(id)
	s.mu.Lock()
	op := s.m[id]
	delete(s.m, id)
	s.mu.Unlock()
	if op != nil {
		op.done(status)
	}
}

// sweep fails ops older than maxAge, preventing stalled clients when a
// replica dies mid-operation. Returns how many were failed.
func (p *pendingSet) sweep(maxAge time.Duration) int {
	cutoff := time.Now().Add(-maxAge)
	var expired []uint64
	for i := range p.stripes {
		s := &p.stripes[i]
		s.mu.Lock()
		for id, op := range s.m {
			if op.created.Before(cutoff) {
				expired = append(expired, id)
			}
		}
		s.mu.Unlock()
	}
	for _, id := range expired {
		p.fail(id, wire.StatusAgain)
	}
	return len(expired)
}

// size reports outstanding operations (diagnostics).
func (p *pendingSet) size() int {
	n := 0
	for i := range p.stripes {
		s := &p.stripes[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// replQueueDepth bounds ops queued behind one peer's replication sender.
// A full queue blocks the enqueuing priority thread — backpressure, the
// same behaviour the old synchronous Send had when the socket filled.
const replQueueDepth = 1024

// replItem is one mutation queued for shipment to a peer.
type replItem struct {
	pendingID uint64
	pg        uint32
	epoch     uint32
	op        wire.Op
}

// Slow-replica isolation thresholds. Every peer carries a credit line
// bounding its unacknowledged backlog; a peer whose queue-to-ack latency
// EWMA reads laggy has its line clamped to laggyCredits, so new
// fan-outs touching it fail fast with a retryable StatusAgain instead of
// queueing behind a slow disk or link. The ACK quorum is never trimmed —
// recovery promotes any clean surviving member, so acknowledging around
// a live replica would let a later promotion un-write acknowledged data.
// Isolation here means bounding the damage: the shard goroutines never
// block, healthy PGs keep their latency, and the slow peer's backlog
// (hence its recovery debt and the repair queue behind it) stays small.
// Acks — including those drawn by repair pushes — decay the EWMA until
// the peer earns its full credit line back.
//
// "Laggy" is an OUTLIER judgement, not an absolute one: the EWMA must
// cross lagAckEWMA AND sit lagOutlierRatio× above the fastest sibling
// peer's. Under uniform saturation every peer's ack latency rises
// together — clamping then would nack healthy fan-outs wholesale and
// mask the occupancy ladder, which owns uniform overload. Only a peer
// well behind its healthiest sibling is sick in the slow-replica sense.
// With no sibling to compare against (R=2) the absolute threshold
// governs alone: bounding the lone secondary's backlog still caps
// recovery debt even though there is no healthy alternative.
const (
	peerCredits     = 512
	laggyCredits    = 32
	lagAckEWMA      = 20 * time.Millisecond
	lagOutlierRatio = 4
)

// peer is a cached outbound connection to another OSD, used for
// replication requests; acknowledgements flow back on the same conn. Ops
// pass through q to a dedicated sender goroutine that coalesces queued
// ops for this peer into ReplBatch frames (fan-out batching).
type peer struct {
	id   uint32
	conn messenger.Conn
	q    chan replItem
	down chan struct{}
	once sync.Once

	// inflight counts ops queued/shipped and not yet acknowledged (the
	// replication credit balance); sent maps pending id → enqueue time
	// so the receive loop can sample queue-to-ack latency into ackEWMA
	// (nanoseconds; 0 = no samples yet).
	inflight atomic.Int64
	ackEWMA  atomic.Int64
	sent     sync.Map // uint64 -> time.Time
}

// creditWindowFor is pr's allowed unacknowledged backlog right now: the
// full credit line while healthy, clamped hard once its ack-latency
// EWMA reads laggy relative to its fastest sibling (see the threshold
// block above). The sibling floors are refreshed by the pending sweep
// every 500ms — staleness on that order is fine for a health judgement.
func (o *OSD) creditWindowFor(pr *peer) int64 {
	e := pr.ackEWMA.Load()
	if e < int64(lagAckEWMA) {
		return peerCredits
	}
	// Fastest OTHER peer: if pr itself plausibly holds the global floor
	// (its EWMA matches it), compare against the runner-up instead. A
	// zero floor means no sibling has samples — absolute threshold rules.
	floor := o.ackFloor1.Load()
	if e <= floor {
		floor = o.ackFloor2.Load()
	}
	if e >= lagOutlierRatio*floor {
		return laggyCredits
	}
	return peerCredits
}

// noteAck folds one queue-to-ack latency sample into the EWMA (α = 1/5).
func (pr *peer) noteAck(sample time.Duration) {
	for {
		old := pr.ackEWMA.Load()
		next := int64(sample)
		if old != 0 {
			next = old + (int64(sample)-old)/5
		}
		if pr.ackEWMA.CompareAndSwap(old, next) {
			return
		}
	}
}

// settle clears the in-flight accounting for one pending id, returning
// its enqueue time when it was still tracked.
func (pr *peer) settle(id uint64) (time.Time, bool) {
	v, ok := pr.sent.LoadAndDelete(id)
	if !ok {
		return time.Time{}, false
	}
	pr.inflight.Add(-1)
	return v.(time.Time), true
}

// sweepSent expires tracking for ops the pending sweep already failed
// (their acks may never come). Each expiry counts as a worst-case
// latency sample: a peer that swallows ops silently must read as laggy.
func (pr *peer) sweepSent(cutoff time.Time) {
	pr.sent.Range(func(k, v any) bool {
		if t := v.(time.Time); t.Before(cutoff) {
			if _, ok := pr.settle(k.(uint64)); ok {
				pr.noteAck(time.Since(t))
			}
		}
		return true
	})
}

func (pr *peer) close() {
	pr.once.Do(func() {
		close(pr.down)
		if pr.conn != nil {
			pr.conn.Close()
		}
	})
}

// peerFor returns a live connection to the given OSD, dialling on first
// use. The receive loop delivers ReplAcks to the pending set; the send
// loop ships queued ops.
func (o *OSD) peerFor(id uint32) (*peer, error) {
	if v, ok := o.peers.Load(id); ok {
		return v.(*peer), nil
	}
	m := o.Map()
	if m == nil {
		return nil, fmt.Errorf("osd %d: no cluster map", o.cfg.ID)
	}
	info, ok := m.OSDs[id]
	if !ok || !info.Up {
		return nil, fmt.Errorf("osd %d: peer %d not up", o.cfg.ID, id)
	}
	conn, err := o.cfg.Transport.Dial(info.Addr)
	if err != nil {
		return nil, fmt.Errorf("osd %d: dial peer %d: %w", o.cfg.ID, id, err)
	}
	pr := &peer{
		id:   id,
		conn: conn,
		q:    make(chan replItem, replQueueDepth),
		down: make(chan struct{}),
	}
	if actual, loaded := o.peers.LoadOrStore(id, pr); loaded {
		conn.Close()
		return actual.(*peer), nil
	}
	o.group.Go(func(stop <-chan struct{}) { o.peerRecvLoop(pr, stop) })
	o.group.Go(func(stop <-chan struct{}) { o.peerSendLoop(pr, stop) })
	// Tie the connection's lifetime to the group: peerRecvLoop blocks in
	// Recv, so a stop must close the conn to unblock it. Close's
	// peers.Range alone cannot guarantee that — a dial racing with Close
	// can store the peer after the sweep has already run.
	o.group.Go(func(stop <-chan struct{}) {
		select {
		case <-stop:
			o.dropPeer(pr)
		case <-pr.down:
		}
	})
	return pr, nil
}

// dropPeer forgets a broken peer connection so the next use re-dials.
func (o *OSD) dropPeer(pr *peer) {
	o.peers.CompareAndDelete(pr.id, pr)
	pr.close()
}

// peerRecvLoop consumes acknowledgements from a peer connection. An ack
// already received is delivered even when a stop races in: dropping it
// would strand the pending op until the sweep fails it seconds later.
func (o *OSD) peerRecvLoop(pr *peer, stop <-chan struct{}) {
	for {
		m, err := pr.conn.Recv()
		if err != nil {
			o.dropPeer(pr)
			return
		}
		if ack, ok := m.(*wire.ReplAck); ok {
			if t, ok := pr.settle(ack.ReqID); ok {
				pr.noteAck(time.Since(t))
			}
			o.pending.complete(ack.ReqID, ack.From, ack.Status)
		}
		select {
		case <-stop:
			return
		default:
		}
	}
}

// replBatchMax caps how many queued ops for one peer coalesce into a
// single ReplBatch frame.
const replBatchMax = 32

// peerSendLoop drains a peer's replication queue. A single queued op
// ships as a plain Repl (identical wire behaviour to the unbatched
// path); when more than one op is waiting — replication fan-out under
// load — up to replBatchMax coalesce into one ReplBatch frame, saving
// per-frame encode/flush overhead on both sides. Send failures complete
// the affected ops with StatusAgain so clients retry after a map
// refresh.
func (o *OSD) peerSendLoop(pr *peer, stop <-chan struct{}) {
	batch := make([]wire.Repl, 0, replBatchMax)
	for {
		var it replItem
		select {
		case it = <-pr.q:
		case <-pr.down:
			// Fail whatever is still queued so clients retry promptly
			// instead of waiting out the pending sweep.
			for {
				select {
				case it := <-pr.q:
					pr.settle(it.pendingID)
					o.pending.complete(it.pendingID, pr.id, wire.StatusAgain)
				default:
					return
				}
			}
		case <-stop:
			return
		}
		batch = append(batch[:0], wire.Repl{ReqID: it.pendingID, PG: it.pg, Epoch: it.epoch, Op: it.op})
	fill:
		for len(batch) < replBatchMax {
			select {
			case it = <-pr.q:
				batch = append(batch, wire.Repl{ReqID: it.pendingID, PG: it.pg, Epoch: it.epoch, Op: it.op})
			default:
				break fill
			}
		}
		var err error
		if len(batch) == 1 {
			err = pr.conn.Send(&batch[0])
		} else {
			err = pr.conn.Send(&wire.ReplBatch{Items: batch})
			o.ReplBatchFrames.Inc()
			o.ReplBatchedOps.Add(int64(len(batch)))
		}
		if err != nil {
			o.dropPeer(pr)
			for i := range batch {
				pr.settle(batch[i].ReqID)
				o.pending.complete(batch[i].ReqID, pr.id, wire.StatusAgain)
			}
		}
	}
}

// replicate queues op for every secondary in the acting set, completing
// the pending op entry per ack. The actual shipment happens on the
// per-peer sender goroutines, keeping encode/flush cost off this
// latency-critical top half. The enqueue never blocks: a peer whose
// credit window is exhausted — immediately for a laggy peer's clamped
// window — fails fast with StatusAgain, and stalling the calling shard
// goroutine would freeze every PG of that shard, exactly the coupling
// slow-replica isolation removes. The nacked op errors back to the
// client (retryable) and the object rides the repair loop, so the
// replicas reconverge even if the client never retries.
func (o *OSD) replicate(pendingID uint64, pg, epoch uint32, secondaries []uint32, op wire.Op) {
	for _, id := range secondaries {
		pr, err := o.peerFor(id)
		if err != nil {
			o.pending.complete(pendingID, id, wire.StatusAgain)
			continue
		}
		if pr.inflight.Load() >= o.creditWindowFor(pr) {
			o.LaggyNacks.Inc()
			o.pending.complete(pendingID, id, wire.StatusAgain)
			continue
		}
		// Stamp before the enqueue: the in-proc transport can round-trip
		// an ack faster than a post-enqueue store would land.
		pr.sent.Store(pendingID, time.Now())
		pr.inflight.Add(1)
		select {
		case pr.q <- replItem{pendingID: pendingID, pg: pg, epoch: epoch, op: op}:
		default:
			pr.settle(pendingID)
			o.pending.complete(pendingID, id, wire.StatusAgain)
		}
	}
}

// pendingSweepLoop ages out stalled operations and refreshes the
// sibling ack-latency floors the laggy outlier test compares against.
func (o *OSD) pendingSweepLoop(stop <-chan struct{}) {
	ticker := time.NewTicker(500 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			o.pending.sweep(2 * time.Second)
			cutoff := time.Now().Add(-2 * time.Second)
			var f1, f2 int64 // two smallest peer EWMAs (0 = unset)
			o.peers.Range(func(_, v any) bool {
				pr := v.(*peer)
				pr.sweepSent(cutoff)
				if e := pr.ackEWMA.Load(); e > 0 {
					switch {
					case f1 == 0 || e < f1:
						f1, f2 = e, f1
					case f2 == 0 || e < f2:
						f2 = e
					}
				}
				return true
			})
			o.ackFloor1.Store(f1)
			o.ackFloor2.Store(f2)
		}
	}
}
