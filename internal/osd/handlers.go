package osd

import (
	"errors"
	"strings"
	"time"

	"rebloc/internal/crush"
	"rebloc/internal/messenger"
	"rebloc/internal/metrics"
	"rebloc/internal/oplog"
	"rebloc/internal/qos"
	"rebloc/internal/sched"
	"rebloc/internal/store"
	"rebloc/internal/wire"
)

// acceptLoop runs the listener; each accepted connection gets its own
// goroutine. In the proposed design that goroutine is the connection's
// priority thread (event-driven, pinned); in the original design it is a
// messenger thread feeding the PG work queues.
func (o *OSD) acceptLoop(stop <-chan struct{}) {
	for {
		conn, err := o.ln.Accept()
		if err != nil {
			return
		}
		select {
		case <-stop:
			conn.Close()
			return
		default:
		}
		o.group.Go(func(stop <-chan struct{}) { o.connLoop(conn, stop) })
	}
}

// connLoop is the per-connection receive loop.
func (o *OSD) connLoop(conn messenger.Conn, stop <-chan struct{}) {
	if !o.accepted.Add(conn) {
		conn.Close()
		return
	}
	defer o.accepted.Remove(conn)
	defer conn.Close()
	if o.cfg.Mode.usesPTC() && len(o.cfg.Pools.Priority) > 0 {
		if err := sched.PinSelf(o.cfg.Pools.Priority); err == nil {
			defer sched.UnpinSelf()
		}
	}
	for {
		m, err := conn.Recv()
		if err != nil {
			return
		}
		select {
		case <-stop:
			return
		default:
		}
		o.dispatch(conn, m)
	}
}

// dispatch routes one message according to the OSD mode. The whole
// handling is timed under one category per architecture: MP for the
// original (the conn goroutine only routes and enqueues), PT for the
// prioritized designs (the conn goroutine IS the priority thread). The
// RTC probes time their phases inside rtcMutation instead, since the conn
// goroutine runs the entire path to completion.
func (o *OSD) dispatch(conn messenger.Conn, m wire.Message) {
	if o.cfg.Mode == ModeProposed {
		// Sharded top half: the conn goroutine validates and routes the
		// data-path messages to the owning PG shard (accounted MT, the
		// messenger share); the shard loop does the top-half work under
		// PT. Everything else falls through to the common dispatch.
		switch m.(type) {
		case *wire.ClientWrite, *wire.ClientDelete, *wire.ClientRead,
			*wire.Repl, *wire.ReplBatch:
			tm := o.acct.Start(metrics.CatMT)
			o.routeProposed(conn, m)
			tm.Stop()
			return
		}
	}
	var tm metrics.Timer
	switch o.cfg.Mode {
	case ModeOriginal, ModeCOSOnly:
		tm = o.acct.Start(metrics.CatMP)
		defer tm.Stop()
	case ModePTC, ModeProposed, ModeIdeal:
		tm = o.acct.Start(metrics.CatPT)
		defer tm.Stop()
	}
	switch msg := m.(type) {
	case *wire.ClientWrite:
		o.handleClientMutation(conn, msg.ReqID, msg.Epoch, wire.Op{
			Kind: wire.OpWrite, OID: msg.OID, Offset: msg.Offset,
			Length: uint32(len(msg.Data)), Data: msg.Data,
		})
	case *wire.ClientDelete:
		o.handleClientMutation(conn, msg.ReqID, msg.Epoch, wire.Op{
			Kind: wire.OpDelete, OID: msg.OID,
		})
	case *wire.ClientRead:
		o.handleClientRead(conn, msg)
	case *wire.Repl:
		o.handleRepl(conn, msg)
	case *wire.ReplBatch:
		// Items apply in order; each acks individually, and the corked
		// messenger coalesces the acks into one flush on the way back.
		for i := range msg.Items {
			o.handleRepl(conn, &msg.Items[i])
		}
	case *wire.ReplAck:
		o.pending.complete(msg.ReqID, msg.From, msg.Status)
	case *wire.Flush:
		status := wire.StatusOK
		if err := o.FlushAll(); err != nil {
			status = wire.StatusIOError
		}
		_ = conn.Send(&wire.Reply{ReqID: msg.ReqID, Status: status})
	case *wire.OplogPull:
		o.serveOplogPull(conn, msg)
	case *wire.BackfillPull:
		o.serveBackfillPull(conn, msg)
	case *wire.ScrubPull:
		o.serveScrubPull(conn, msg)
	case *wire.MonMap:
		if m2, err := crush.Decode(msg.MapBytes); err == nil {
			o.SetMap(m2)
		}
	default:
		// Unknown or unexpected messages are dropped.
	}
}

// tenantOf derives the admission tenant from an object id: the volume
// (RBD image) it backs. Data objects are named "rbd_data.<image>.<idx>"
// and headers "rbd_header.<image>", so stripping the prefix and stripe
// index folds a volume's whole address space onto one token bucket;
// anything else meters under its full object name.
func tenantOf(oid wire.ObjectID) string {
	n := oid.Name
	for _, p := range []string{"rbd_data.", "rbd_header."} {
		if strings.HasPrefix(n, p) {
			n = n[len(p):]
			if p == "rbd_data." {
				if i := strings.LastIndexByte(n, '.'); i > 0 {
					n = n[:i]
				}
			}
			return n
		}
	}
	return n
}

// admitMutation runs the ingress admission ladder for one client
// mutation on its connection goroutine (proposed mode), before the op is
// handed to its shard. First the per-tenant token bucket: a tenant past
// its fair share queues here, at the edge, instead of inside the commit
// path. Then the PG's occupancy throttle: delay paces the producer for a
// sub-millisecond beat while the bottom half drains; reject bounces the
// op with StatusAgain (the retry-after signal — clients back off and
// retry) so the NVM log never wraps. Returns false when the op was
// rejected (a reply has been sent).
//
// The no-pressure fast path is two atomic loads — no pgMu, no per-PG
// lookup — so an unconfigured or unloaded OSD pays nothing here.
func (o *OSD) admitMutation(conn messenger.Conn, reqID uint64, pg uint32, oid wire.ObjectID) bool {
	// Reserve's return doubles as the fairness verdict: a zero wait means
	// the tenant had a token banked — it is consuming below its share —
	// while a positive wait means it is in debt. The ladder's delay band
	// below spares in-credit tenants, so backpressure lands on the
	// producers actually driving the overload and a well-behaved trickle
	// keeps its unloaded latency through a saturated cluster.
	var inCredit bool
	if lim := o.qosLim; lim.Enabled() {
		if w := lim.Reserve(tenantOf(oid), 1); w == 0 {
			inCredit = true
		} else if w >= qos.PaceQuantum {
			// Sub-quantum waits coalesce into future debt instead of
			// sleeping: the scheduler can't honor them accurately and
			// the debt model keeps the paced rate exact either way.
			time.Sleep(w)
		}
	}
	if o.drainPressure.Load() == 0 {
		return true
	}
	o.pgMu.Lock()
	pgs := o.pgs[pg]
	o.pgMu.Unlock()
	if pgs == nil || pgs.throttle == nil {
		return true
	}
	state := pgs.throttle.State()
	if state == qos.StateReject {
		// The reject band bounces appends, and appends and drains are what
		// sample the log: re-sample here, or a band entered just as the
		// drain emptied the log would answer Again until somebody's
		// retries ran out.
		state = pgs.throttle.Observe(pgs.log.Occupancy())
	}
	switch state {
	case qos.StateDelay:
		o.wakeNPT(pg)
		occ := pgs.log.Occupancy()
		if inCredit && occ < throttleMid(pgs.throttle) {
			// Differentiated backpressure, lower half of the delay band
			// only: past the midpoint the log is losing the race and
			// protection outranks fairness — everyone paces. Without the
			// occupancy guard an over-provisioned bucket (every tenant
			// in credit) would disarm the delay band entirely and ride
			// the reject band straight into wrap stalls.
			break
		}
		o.ThrottleDelays.Inc()
		time.Sleep(pgs.throttle.DelayFor(occ))
	case qos.StateReject:
		o.ThrottleRejects.Inc()
		o.wakeNPT(pg)
		_ = conn.Send(&wire.Reply{ReqID: reqID, Status: wire.StatusAgain})
		return false
	}
	return true
}

// replDelay returns the delay-band pacing for an inbound replicated
// mutation, consulted on the peer-connection goroutine before the op is
// routed to its shard. Replicated appends land in the same per-PG NVM
// logs as client ops but bypass admitMutation (admission happens once,
// at the primary), so without this the secondary's logs are the ones
// that wrap under overload while every ingress counter stays flat.
// Sleeping on the peer conn goroutine slows the whole link — which is
// the point: it is the producer. The reject band is enforced at append
// time on the shard (processRun), where the occupancy sample is freshest.
//
// The op's tenant (recoverable from the OID on any OSD) gets the same
// differentiated treatment as at admission: an in-credit tenant's
// replicated writes pass undelayed, so a trickle's commit latency — which
// waits on every secondary's ack — is not taxed for pressure the heavy
// tenants built. This OSD's own limiter holds the tenant's share state:
// primaries are spread across OSDs, so every OSD accumulates bucket
// state for every tenant it serves in either role.
func (o *OSD) replDelay(pg uint32, oid wire.ObjectID) time.Duration {
	if o.drainPressure.Load() == 0 {
		return 0
	}
	o.pgMu.Lock()
	pgs := o.pgs[pg]
	o.pgMu.Unlock()
	if pgs == nil || pgs.throttle == nil || pgs.throttle.State() == qos.StateClear {
		return 0
	}
	o.wakeNPT(pg)
	occ := pgs.log.Occupancy()
	if occ < throttleMid(pgs.throttle) && o.qosLim.InCredit(tenantOf(oid)) {
		return 0
	}
	return pgs.throttle.DelayFor(occ)
}

// throttleMid is the occupancy above which the delay band stops sparing
// in-credit tenants: the midpoint between the delay and reject
// thresholds. Below it, backpressure is a fairness tool aimed at
// above-share producers; above it, the log is losing the drain race and
// pacing applies to all comers.
func throttleMid(th *qos.Throttle) float64 {
	return th.High + (th.RejectAt-th.High)/2
}

// observeOccupancy feeds the PG's throttle one occupancy sample after an
// append or a completed drain moved the log's fill level, tracking the
// OSD-wide high-water mark along the way. Escalations nudge the PG's
// non-priority worker so the drain that relieves the pressure is already
// running.
func (o *OSD) observeOccupancy(pgs *pgState) {
	if pgs.throttle == nil {
		return
	}
	occ := pgs.log.Occupancy()
	o.OplogOccHW.SetMax(int64(occ * 10000))
	if pgs.throttle.Observe(occ) != qos.StateClear {
		o.wakeNPT(pgs.pg)
	}
}

// checkClientOp validates epoch and primaryship; on failure it replies and
// returns false. Returns the PG on success.
func (o *OSD) checkClientOp(conn messenger.Conn, reqID uint64, epoch uint32, oid wire.ObjectID) (uint32, bool) {
	m := o.Map()
	if m == nil {
		_ = conn.Send(&wire.Reply{ReqID: reqID, Status: wire.StatusAgain})
		return 0, false
	}
	if epoch != m.Epoch {
		if epoch > m.Epoch {
			o.requestMapRefresh()
		}
		_ = conn.Send(&wire.Reply{ReqID: reqID, Status: wire.StatusStaleEpoch})
		return 0, false
	}
	pg := m.PGOf(oid)
	primary, err := m.Primary(pg)
	if err != nil || primary != o.cfg.ID {
		_ = conn.Send(&wire.Reply{ReqID: reqID, Status: wire.StatusNotPrimary})
		return 0, false
	}
	return pg, true
}

// handleClientMutation processes a client write or delete at the primary.
func (o *OSD) handleClientMutation(conn messenger.Conn, reqID uint64, epoch uint32, op wire.Op) {
	pg, ok := o.checkClientOp(conn, reqID, epoch, op.OID)
	if !ok {
		return
	}
	pgs, err := o.pgStateFor(pg)
	if err != nil {
		_ = conn.Send(&wire.Reply{ReqID: reqID, Status: wire.StatusIOError})
		return
	}
	pgs.mu.Lock()
	clean := pgs.clean
	pgs.mu.Unlock()
	if !clean {
		_ = conn.Send(&wire.Reply{ReqID: reqID, Status: wire.StatusAgain})
		return
	}
	op.Seq = pgs.nextSeq()
	op.Version = op.Seq
	pgs.muts.Add(1) // repair fence: a push read-back predating this is stale

	m := o.Map()
	acting, err := m.MapPG(pg)
	if err != nil {
		_ = conn.Send(&wire.Reply{ReqID: reqID, Status: wire.StatusAgain})
		return
	}
	secondaries := acting[1:]
	version := op.Version
	reply := func(status wire.Status) {
		o.ClientOps.Inc()
		_ = conn.Send(&wire.Reply{ReqID: reqID, Status: status, Version: version})
	}

	switch o.cfg.Mode {
	case ModeOriginal, ModeCOSOnly:
		// MP only: hand the whole thing to a PG worker.
		o.enqueuePG(pg, &task{pg: pg, pgs: pgs, msg: &clientMutation{
			op: op, secondaries: secondaries, reply: reply, epoch: m.Epoch,
		}})

	case ModeRTCv1, ModeRTCv2, ModeRTCv3:
		o.rtcMutation(pg, pgs, m.Epoch, op, secondaries, reply)

	case ModePTC:
		// Commit needs local storage processing (by an NPT) + replica acks.
		id := o.pending.register(len(secondaries)+1, reply)
		o.replicate(id, pg, m.Epoch, secondaries, op)
		o.enqueueNPT(pg, &task{pg: pg, pgs: pgs, msg: &localCommit{op: op, pendingID: id}})

	// ModeProposed never reaches here: dispatch routes client mutations
	// to the owning top-half shard (shard.go).

	case ModeIdeal:
		// Track existence in the null store (O(1) map update) so reads
		// and image-existence checks behave; no storage processing.
		txn := &store.Transaction{}
		switch op.Kind {
		case wire.OpWrite:
			txn.AddWrite(pg, op.OID, op.Offset, op.Data)
		case wire.OpDelete:
			txn.AddDelete(pg, op.OID)
		}
		_ = o.st.Submit(txn)
		id := o.pending.register(len(secondaries), reply)
		o.replicate(id, pg, m.Epoch, secondaries, op)
	}
}

// stage appends ops (one PG, in order) to the PG op log as one commit,
// flushing synchronously and retrying the uncommitted tail whenever the
// NVM region is full (paper §IV-A: a full log forces a synchronous flush
// before new operations are handled). Returns how many leading ops
// committed; on any other error the tail is abandoned (prefix-shaped, so
// no object's writes reorder). A successful append marks the PG dirty so
// its non-priority worker's next drain — threshold wake or flush-interval
// tick — visits it without scanning the PG map.
func (o *OSD) stage(pgs *pgState, ops ...wire.Op) (int, error) {
	done := 0
	for {
		n, err := pgs.log.AppendBatch(ops[done:])
		if n > 0 {
			done += n
			o.markDirty(pgs)
			o.observeOccupancy(pgs)
		}
		if err == nil {
			return done, nil
		}
		if !errors.Is(err, oplog.ErrFull) {
			return done, err
		}
		o.ForcedFlush.Inc()
		if ferr := o.flushPG(pgs); ferr != nil {
			return done, ferr
		}
	}
}

// handleClientRead processes a client read at the primary.
func (o *OSD) handleClientRead(conn messenger.Conn, msg *wire.ClientRead) {
	pg, ok := o.checkClientOp(conn, msg.ReqID, msg.Epoch, msg.OID)
	if !ok {
		return
	}
	pgs, err := o.pgStateFor(pg)
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
	reply := func(status wire.Status, data []byte) {
		o.ClientOps.Inc()
		_ = conn.Send(&wire.Reply{ReqID: msg.ReqID, Status: status, Data: data})
	}

	switch o.cfg.Mode {
	case ModeOriginal, ModeCOSOnly:
		o.enqueuePG(pg, &task{pg: pg, pgs: pgs, msg: &readTask{oid: msg.OID, off: msg.Offset, length: msg.Length, reply: reply}})

	case ModeRTCv1, ModeRTCv2, ModeRTCv3:
		tm := o.acct.Start(metrics.CatTP)
		data, err := o.storeRead(pg, msg.OID, msg.Offset, msg.Length)
		tm.Stop()
		if err != nil {
			reply(storeStatus(err), nil)
			return
		}
		reply(wire.StatusOK, data)

	case ModePTC:
		o.enqueueNPT(pg, &task{pg: pg, pgs: pgs, msg: &readTask{oid: msg.OID, off: msg.Offset, length: msg.Length, reply: reply}})

	// ModeProposed never reaches here: dispatch routes client reads to
	// the owning top-half shard, which serves R1 hits zero-copy
	// (shard.go clientRead).

	case ModeIdeal:
		data, err := o.storeRead(pg, msg.OID, msg.Offset, msg.Length)
		if err != nil {
			reply(storeStatus(err), nil)
			return
		}
		reply(wire.StatusOK, data)
	}
}

// handleRepl processes a replication request at a secondary.
func (o *OSD) handleRepl(conn messenger.Conn, msg *wire.Repl) {
	o.ReplOps.Inc()
	pgs, err := o.pgStateFor(msg.PG)
	if err != nil {
		_ = conn.Send(&wire.ReplAck{ReqID: msg.ReqID, PG: msg.PG, Seq: msg.Op.Seq, From: o.cfg.ID, Status: wire.StatusIOError})
		return
	}
	pgs.bumpSeq(msg.Op.Seq)
	pgs.muts.Add(1) // repair fence (see handleClientMutation)
	ack := func(status wire.Status) {
		_ = conn.Send(&wire.ReplAck{ReqID: msg.ReqID, PG: msg.PG, Seq: msg.Op.Seq, From: o.cfg.ID, Status: status})
	}
	pgs.mu.Lock()
	clean := pgs.clean
	pgs.mu.Unlock()
	if !clean {
		ack(wire.StatusAgain)
		return
	}

	switch o.cfg.Mode {
	case ModeOriginal, ModeCOSOnly:
		o.enqueuePG(msg.PG, &task{pg: msg.PG, pgs: pgs, msg: &replApply{op: msg.Op, ack: ack}})

	case ModeRTCv1:
		tm := o.acct.Start(metrics.CatTP)
		txn := o.buildBaselineTxn(msg.PG, msg.Op)
		tm.Stop()
		if err := o.st.Submit(txn); err != nil {
			ack(wire.StatusIOError)
			return
		}
		ack(wire.StatusOK)

	case ModeRTCv2, ModeRTCv3, ModeIdeal:
		ack(wire.StatusOK)

	case ModePTC:
		o.enqueueNPT(msg.PG, &task{pg: msg.PG, pgs: pgs, msg: &replApply{op: msg.Op, ack: ack}})

		// ModeProposed never reaches here: dispatch routes repls to the
		// owning top-half shard, which logs in NVM and acknowledges
		// immediately (paper Figure 3b step ③) with batched appends.
	}
}

// Internal task payloads carried in task.msg.
type clientMutation struct {
	op          wire.Op
	secondaries []uint32
	epoch       uint32
	reply       func(wire.Status)
}

type localCommit struct {
	op        wire.Op
	pendingID uint64
}

type readTask struct {
	oid    wire.ObjectID
	off    uint64
	length uint32
	reply  func(wire.Status, []byte)
}

type replApply struct {
	op  wire.Op
	ack func(wire.Status)
}

// readKey indexes a proposed-mode read waiter by (pg, seq).
func readKey(pg uint32, seq uint64) uint64 {
	return uint64(pg)<<40 | (seq & 0xFFFFFFFFFF)
}
