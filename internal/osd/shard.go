package osd

import (
	"log"
	"time"

	"rebloc/internal/messenger"
	"rebloc/internal/metrics"
	"rebloc/internal/qos"
	"rebloc/internal/sched"
	"rebloc/internal/wire"
)

// Per-core sharded top half (proposed mode). The connection goroutines
// stop being the priority threads themselves: they validate and route,
// and a fixed set of shard goroutines — one per core by default — run
// the top half run-to-completion. Each shard owns a disjoint set of PGs
// (stable hash of the PG id), so everything per-PG the commit path
// touches (sequence numbers, op-log appends, the extent index) is
// accessed from exactly one goroutine per PG and the per-PG locks it
// takes are uncontended by construction. The only cross-shard structures
// on the fast path are lock-free: the cluster map is an atomic pointer,
// the handoff to the bottom half is a Treiber-stack dirty queue, and the
// replication rendezvous is striped (replication.go).
//
// The global pgMu registry survives for the slow path only: shard-local
// PG tables (pgTab) cache resolved states, and a miss falls through to
// pgStateFor exactly once per (shard, PG). PG lifecycle — creation,
// recovery, Kill/FlushAll iteration — keeps taking pgMu; the commit path
// never does after warm-up.

// shardBurstMax bounds how many queued requests one shard picks up per
// scheduling round. Bursts are where append batching comes from: a shard
// is the only appender of its PGs, and every mutation run inside a burst
// becomes one AppendBatch per PG — one commit, its NVM persists shared by
// the whole run.
const shardBurstMax = 64

// shardOf maps a PG to its owning shard. Knuth's multiplicative hash
// spreads consecutive PG ids (the common layout) evenly across shards;
// stability matters — a PG's shard must never change while the OSD runs,
// since shard-local state (pgTab) assumes exclusive ownership.
func shardOf(pg uint32, nshards int) int {
	return int((pg * 2654435761) % uint32(nshards))
}

// shardReq is one routed request: the originating connection and the
// decoded message, already validated by the conn goroutine (epoch and
// primaryship for client ops). Alternatively fn, a closure executed on
// the shard goroutine at its arrival position — how the repair loop
// serialises its pushes with the client writes of the same PG.
type shardReq struct {
	conn messenger.Conn
	msg  wire.Message
	pg   uint32
	fn   func()
}

// runOp is one mutation of a burst's current append run, carried through
// the validate/append/fan-out phases.
type runOp struct {
	conn messenger.Conn
	pgs  *pgState
	op   wire.Op
	pg   uint32

	reqID       uint64
	epoch       uint32   // map epoch used for replication fan-out
	secondaries []uint32 // client ops only
	client      bool     // client mutation (reply) vs repl (ack)

	done     bool // finished: replied/acked, no further phases
	appended bool // staged in the op log; fan-out/ack pending
}

// shard is one top-half execution context. Everything in it except ch is
// owned by the shard goroutine — no locks.
type shard struct {
	o  *OSD
	id int
	ch chan shardReq

	// pgTab caches pgStateFor results for owned PGs. States are never
	// removed from the global registry, so cached pointers cannot go
	// stale; misses take pgMu once per PG.
	pgTab map[uint32]*pgState

	// Scratch reused across bursts; steady state allocates nothing.
	burst []shardReq
	run   []runOp
	ops   []wire.Op
	idx   []int
	reply wire.Reply // safe to reuse: Conn.Send encodes before returning
}

func newShard(o *OSD, id int) *shard {
	return &shard{
		o:     o,
		id:    id,
		ch:    make(chan shardReq, 1024),
		pgTab: make(map[uint32]*pgState),
	}
}

// toShard hands a validated request to the owning shard. A full shard
// queue blocks the conn goroutine — backpressure, exactly like the old
// in-line handling did when the priority thread fell behind.
func (o *OSD) toShard(r shardReq) {
	sh := o.shards[shardOf(r.pg, len(o.shards))]
	select {
	case sh.ch <- r:
	case <-o.group.Stopping():
	}
}

// routeProposed is the proposed-mode conn-goroutine half of dispatch for
// the sharded message kinds: validate, resolve the PG, route. Runs under
// CatMT (message processing/routing); the shard loop accounts CatPT.
func (o *OSD) routeProposed(conn messenger.Conn, m wire.Message) {
	switch msg := m.(type) {
	case *wire.ClientWrite:
		if pg, ok := o.checkClientOp(conn, msg.ReqID, msg.Epoch, msg.OID); ok {
			if !o.admitMutation(conn, msg.ReqID, pg, msg.OID) {
				return
			}
			o.toShard(shardReq{conn: conn, msg: msg, pg: pg})
		}
	case *wire.ClientDelete:
		if pg, ok := o.checkClientOp(conn, msg.ReqID, msg.Epoch, msg.OID); ok {
			if !o.admitMutation(conn, msg.ReqID, pg, msg.OID) {
				return
			}
			o.toShard(shardReq{conn: conn, msg: msg, pg: pg})
		}
	case *wire.ClientRead:
		if pg, ok := o.checkClientOp(conn, msg.ReqID, msg.Epoch, msg.OID); ok {
			o.toShard(shardReq{conn: conn, msg: msg, pg: pg})
		}
	case *wire.Repl:
		if d := o.replDelay(msg.PG, msg.Op.OID); d > 0 {
			o.ThrottleDelays.Inc()
			time.Sleep(d)
		}
		o.toShard(shardReq{conn: conn, msg: msg, pg: msg.PG})
	case *wire.ReplBatch:
		// One paced sleep per frame (the worst pressured PG wins), not
		// per item — the link slows without stacking delays.
		var d time.Duration
		for i := range msg.Items {
			if dd := o.replDelay(msg.Items[i].PG, msg.Items[i].Op.OID); dd > d {
				d = dd
			}
		}
		if d > 0 {
			o.ThrottleDelays.Inc()
			time.Sleep(d)
		}
		// Items route individually: one frame's items may span shards.
		// The slice is heap-decoded and GC-owned, so element pointers
		// stay valid after this frame's goroutine moves on.
		for i := range msg.Items {
			it := &msg.Items[i]
			o.toShard(shardReq{conn: conn, msg: it, pg: it.PG})
		}
	}
}

// loop is the shard's run-to-completion request loop: block for one
// request, opportunistically pick up a burst, process it, repeat.
func (sh *shard) loop(stop <-chan struct{}) {
	o := sh.o
	if len(o.cfg.Pools.Priority) > 0 {
		if err := sched.PinSelf(o.cfg.Pools.Priority); err == nil {
			defer sched.UnpinSelf()
		}
	}
	for {
		select {
		case <-stop:
			return
		case r := <-sh.ch:
			burst := append(sh.burst[:0], r)
		fill:
			for len(burst) < shardBurstMax {
				select {
				case r2 := <-sh.ch:
					burst = append(burst, r2)
				default:
					break fill
				}
			}
			sh.burst = burst
			tm := o.acct.Start(metrics.CatPT)
			sh.processBurst(burst)
			tm.Stop()
			for i := range burst {
				burst[i] = shardReq{}
			}
		}
	}
}

// processBurst executes one burst in arrival order. Contiguous mutations
// accumulate into an append run; a read flushes the run first, so it
// observes every append ordered before it, then serves zero-copy.
func (sh *shard) processBurst(burst []shardReq) {
	run := sh.run[:0]
	for i := range burst {
		r := &burst[i]
		if r.fn != nil {
			// Injected closure (repair push). Runs before the pending run
			// stages, which is safe: those mutations take later sequence
			// numbers and enqueue their fan-outs after the closure's, so
			// they win at every replica — the push can never shadow them.
			r.fn()
			continue
		}
		switch msg := r.msg.(type) {
		case *wire.ClientWrite:
			run = append(run, runOp{
				conn: r.conn, pg: r.pg, client: true, reqID: msg.ReqID,
				op: wire.Op{
					Kind: wire.OpWrite, OID: msg.OID, Offset: msg.Offset,
					Length: uint32(len(msg.Data)), Data: msg.Data,
				},
			})
		case *wire.ClientDelete:
			run = append(run, runOp{
				conn: r.conn, pg: r.pg, client: true, reqID: msg.ReqID,
				op: wire.Op{Kind: wire.OpDelete, OID: msg.OID},
			})
		case *wire.Repl:
			run = append(run, runOp{
				conn: r.conn, pg: r.pg, reqID: msg.ReqID, op: msg.Op,
			})
		case *wire.ClientRead:
			if len(run) > 0 {
				sh.processRun(run)
				run = run[:0]
			}
			sh.clientRead(r.conn, msg, r.pg)
		}
	}
	if len(run) > 0 {
		sh.processRun(run)
	}
	for i := range run {
		run[i] = runOp{}
	}
	sh.run = run[:0]
}

// processRun stages one append run: validate every op, batch-append per
// PG, then run the post-append actions (replication fan-out and replies
// for client mutations, acks for repls) in arrival order.
func (sh *shard) processRun(run []runOp) {
	o := sh.o

	// Phase A: resolve PG state, check cleanliness, assign sequence
	// numbers in arrival order (client ops) or adopt the primary's
	// (repls, which also bump the local counter).
	for i := range run {
		t := &run[i]
		pgs, err := sh.pgState(t.pg)
		if err != nil {
			log.Printf("osd %d: pg %d state: %v", o.cfg.ID, t.pg, err)
			sh.finishStatus(t, wire.StatusIOError)
			continue
		}
		t.pgs = pgs
		// Every run op is a mutation (reads bypass processRun): move the
		// repair fence so an in-flight push read-back goes stale. The
		// pending-fan-out count moves first: a repair that snapshots muts
		// with this op counted must also see its fan-out as pending until
		// it completes (see pgState.replPend).
		pgs.replPend.Add(1)
		pgs.muts.Add(1)
		if !t.client {
			o.ReplOps.Inc()
			pgs.bumpSeq(t.op.Seq)
		}
		pgs.mu.Lock()
		clean := pgs.clean
		pgs.mu.Unlock()
		if !clean {
			sh.finishStatus(t, wire.StatusAgain)
			continue
		}
		if !t.client && pgs.throttle != nil &&
			pgs.throttle.Observe(pgs.log.Occupancy()) == qos.StateReject {
			// Reject band at the secondary: nack instead of appending into
			// a nearly-full log. The primary's pending set turns the Again
			// into noteRepair (the replicas reconverge via the repair loop)
			// plus a retry-after to the client — end-to-end backpressure.
			// Observe, not State: in the reject band no append samples the
			// log, so this is the append path's only fresh sample.
			o.ThrottleRejects.Inc()
			o.wakeNPT(t.pg)
			sh.finishStatus(t, wire.StatusAgain)
			continue
		}
		if t.client {
			m := o.Map()
			acting, err := m.MapPG(t.pg)
			if err != nil {
				sh.finishStatus(t, wire.StatusAgain)
				continue
			}
			t.secondaries = acting[1:]
			t.epoch = m.Epoch
			t.op.Seq = pgs.nextSeq()
			t.op.Version = t.op.Seq
		}
	}

	// Phase B: per-PG batched appends. Each PG's ops (in run order) go
	// down as one AppendBatch — one commit's NVM persists for the whole
	// run. Failure is prefix-shaped, so a partial batch never reorders an
	// object's writes.
	for i := range run {
		if run[i].done || run[i].appended {
			continue
		}
		pgs := run[i].pgs
		ops := sh.ops[:0]
		idx := sh.idx[:0]
		for j := i; j < len(run); j++ {
			t := &run[j]
			if t.done || t.pgs != pgs {
				continue
			}
			ops = append(ops, t.op)
			idx = append(idx, j)
		}
		committed, err := o.stage(pgs, ops...)
		for k, j := range idx {
			t := &run[j]
			if k < committed {
				t.appended = true
			} else {
				log.Printf("osd %d: pg %d stage: %v", o.cfg.ID, t.pg, err)
				sh.finishStatus(t, wire.StatusIOError)
			}
		}
		sh.ops = ops[:0]
		sh.idx = idx[:0]
		if pgs.log.ShouldFlush() {
			o.wakeNPT(pgs.pg)
		}
	}

	// Phase C: post-append actions in arrival order.
	for i := range run {
		t := &run[i]
		if !t.appended {
			continue
		}
		if !t.client {
			_ = t.conn.Send(&wire.ReplAck{
				ReqID: t.reqID, PG: t.pg, Seq: t.op.Seq,
				From: o.cfg.ID, Status: wire.StatusOK,
			})
			t.pgs.replPend.Add(-1) // secondary role: the ack is the whole obligation
			continue
		}
		conn, reqID, pg, oid, version := t.conn, t.reqID, t.pg, t.op.OID, t.op.Version
		// The ACK waits on EVERY acting member, always: recovery's
		// authority ranking promotes any clean surviving member after a
		// primary death, so an ACK a clean member missed is an ACK a
		// promotion can silently un-write. Slow-replica isolation
		// therefore never trims this fan-out — it lives in replicate(),
		// which fast-nacks (StatusAgain) ops to a peer whose clamped
		// credit window is full, bounding how far a slow replica can
		// stall the pipeline without ever acknowledging around it.
		// A failed fan-out leaves this primary ahead of a replica with no
		// guarantee the client retries: queue the object for repair so
		// the replicas reconverge even if this was its last write.
		pgs := t.pgs
		id := o.pending.register(len(t.secondaries), func(status wire.Status) {
			pgs.replPend.Add(-1)
			if status != wire.StatusOK {
				o.noteRepair(pg, oid)
			}
			o.ClientOps.Inc()
			_ = conn.Send(&wire.Reply{ReqID: reqID, Status: status, Version: version})
		})
		o.replicate(id, t.pg, t.epoch, t.secondaries, t.op)
	}
}

// finishStatus replies (client) or acks (repl) a failed/retried op and
// marks it done.
func (sh *shard) finishStatus(t *runOp, status wire.Status) {
	t.done = true
	if t.pgs != nil {
		// Counted in phase A (t.pgs is only set after the increment);
		// the op dies here, so its fan-out obligation dies with it.
		t.pgs.replPend.Add(-1)
	}
	if t.client {
		_ = t.conn.Send(&wire.Reply{ReqID: t.reqID, Status: status})
		return
	}
	_ = t.conn.Send(&wire.ReplAck{
		ReqID: t.reqID, PG: t.pg, Seq: t.op.Seq,
		From: sh.o.cfg.ID, Status: status,
	})
}

// clientRead serves a read on the shard. The R1 fast path is zero-copy:
// an extent-index hit pins the staged bytes and hands scatter segments
// straight to the frame encoder — no compose copy, no allocation.
func (sh *shard) clientRead(conn messenger.Conn, msg *wire.ClientRead, pg uint32) {
	o := sh.o
	pgs, err := sh.pgState(pg)
	if err != nil {
		_ = conn.Send(&wire.Reply{ReqID: msg.ReqID, Status: wire.StatusIOError})
		return
	}
	pgs.mu.Lock()
	clean := pgs.clean
	pgs.mu.Unlock()
	if !clean {
		// Strong consistency: a backfilling primary may still miss data;
		// the client retries until the PG is clean.
		_ = conn.Send(&wire.Reply{ReqID: msg.ReqID, Status: wire.StatusAgain})
		return
	}
	if v, ok, notFound := pgs.log.LookupReadView(msg.OID, msg.Offset, msg.Length); ok {
		// R1: resolved entirely from the op log (including staged
		// deletes, which read as "not found").
		o.ClientOps.Inc()
		if notFound {
			sh.reply = wire.Reply{ReqID: msg.ReqID, Status: wire.StatusNotFound}
			_ = conn.Send(&sh.reply)
			return
		}
		sh.reply = wire.Reply{
			ReqID: msg.ReqID, Status: wire.StatusOK,
			DataLen: msg.Length, DataSegs: v.Segs(),
		}
		_ = conn.Send(&sh.reply)
		// Send has encoded the segments into the frame; release the pin.
		v.Release()
		return
	}
	if rc := o.rcache; rc != nil {
		if v, ok := rc.Lookup(pg, msg.OID, msg.Offset, msg.Length); ok {
			// R1.5: run-to-completion on the shard from the NVM read
			// cache, zero-copy — the scatter segments alias the cache
			// slots and the pins hold them until the frame is encoded.
			// Strict invalidation keeps this safe without checking
			// HasStaged: staging a write drops the object's blocks before
			// the append returns, so a hit implies nothing newer is
			// staged for these bytes.
			o.ClientOps.Inc()
			sh.reply = wire.Reply{
				ReqID: msg.ReqID, Status: wire.StatusOK,
				DataLen: msg.Length, DataSegs: v.Segs(),
			}
			_ = conn.Send(&sh.reply)
			v.Release()
			return
		}
	}
	reply := func(status wire.Status, data []byte) {
		o.ClientOps.Inc()
		_ = conn.Send(&wire.Reply{ReqID: msg.ReqID, Status: status, Data: data})
	}
	rt := &readTask{oid: msg.OID, off: msg.Offset, length: msg.Length, reply: reply}
	if pgs.log.HasStaged(msg.OID) {
		// R2/R3: order the read behind the staged writes and force a
		// flush (paper W3).
		op := wire.Op{Kind: wire.OpRead, OID: msg.OID, Offset: msg.Offset, Length: msg.Length, Seq: pgs.nextSeq()}
		o.readWaiters.Store(readKey(pg, op.Seq), rt)
		if _, err := o.stage(pgs, op); err != nil {
			o.readWaiters.Delete(readKey(pg, op.Seq))
			reply(wire.StatusIOError, nil)
			return
		}
		o.wakeNPT(pg)
	} else {
		o.enqueueNPT(pg, &task{pg: pg, pgs: pgs, msg: rt})
	}
}

// pgState resolves pg through the shard-local table, falling back to the
// pgMu-guarded registry once per (shard, PG).
func (sh *shard) pgState(pg uint32) (*pgState, error) {
	if s, ok := sh.pgTab[pg]; ok {
		return s, nil
	}
	s, err := sh.o.pgStateFor(pg)
	if err != nil {
		return nil, err
	}
	sh.pgTab[pg] = s
	return s, nil
}
