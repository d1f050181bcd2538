package osd

import (
	"errors"
	"fmt"
	"log"
	"sync/atomic"
	"time"

	"rebloc/internal/metrics"
	"rebloc/internal/oplog"
	"rebloc/internal/sched"
	"rebloc/internal/store"
	"rebloc/internal/wire"
)

// partitionOf maps a PG to its COS sharded partition.
func (o *OSD) partitionOf(pg uint32) int { return int(pg) % o.cfg.Partitions }

// nptFor maps a PG to the non-priority worker owning its partition
// (paper §IV-C.2: partition -> thread via simple modulo hashing).
func (o *OSD) nptFor(pg uint32) int { return o.partitionOf(pg) % o.cfg.NonPriority }

// enqueuePG queues a task for the original-mode PG worker pool.
func (o *OSD) enqueuePG(pg uint32, t *task) {
	q := o.pgQueues[int(pg)%len(o.pgQueues)]
	select {
	case q <- t:
	case <-o.group.Stopping():
	}
}

// enqueueNPT queues a task for a non-priority worker. The wake fires only
// when the task was actually enqueued — not when the enqueue was abandoned
// because the group is stopping.
func (o *OSD) enqueueNPT(pg uint32, t *task) {
	w := o.nptFor(pg)
	select {
	case o.nptQueues[w] <- t:
		o.wakes.Wake(w)
	case <-o.group.Stopping():
	}
}

// dirtyQueue is one worker's lock-free queue of PGs with staged op-log
// entries: a Treiber stack of pgStates linked through dirtyNext. The
// dirty CAS in markDirty admits each PG at most once, so a node is in at
// most one stack and push never races push on the same node. The single
// consumer (the owning NPT worker) swaps the head and walks the links
// while every node's dirty flag is still set — a producer can only write
// a node's dirtyNext after winning the CAS, impossible until the consumer
// clears the flag in drainBatch.
type dirtyQueue struct {
	head atomic.Pointer[pgState]
}

func (q *dirtyQueue) push(s *pgState) {
	for {
		h := q.head.Load()
		s.dirtyNext = h
		if q.head.CompareAndSwap(h, s) {
			return
		}
	}
}

// takeAll detaches the whole stack (LIFO order).
func (q *dirtyQueue) takeAll() *pgState { return q.head.Swap(nil) }

// markDirty queues pg for its worker's next drain. The atomic flag keeps
// a PG in at most one queue slot: re-appends while queued are no-ops, and
// the flag clears when the drain picks the PG up, so later appends requeue
// it. Callers decide separately whether to wake the worker (threshold) or
// leave it to the flush ticker. Lock-free: this is the top-half → bottom-
// half handoff, and the shards must not share a mutex here.
func (o *OSD) markDirty(s *pgState) {
	if !s.dirty.CompareAndSwap(false, true) {
		return
	}
	o.dirtyQueues[o.nptFor(s.pg)].push(s)
}

// wakeNPT signals the worker owning pg's partition.
func (o *OSD) wakeNPT(pg uint32) { o.wakes.Wake(o.nptFor(pg)) }

// pgWorkerLoop is one "PG thread" of the original architecture: it pulls
// tasks from its queue and performs replication processing (RP) and
// transaction processing (TP); the backend store accounts its own time.
func (o *OSD) pgWorkerLoop(worker int, stop <-chan struct{}) {
	q := o.pgQueues[worker]
	for {
		select {
		case <-stop:
			return
		case t := <-q:
			o.runPGTask(t)
		}
	}
}

func (o *OSD) runPGTask(t *task) {
	switch msg := t.msg.(type) {
	case *clientMutation:
		// RP: make the op durable on the replicas.
		tm := o.acct.Start(metrics.CatRP)
		id := o.pending.register(len(msg.secondaries)+1, msg.reply)
		o.replicate(id, t.pg, msg.epoch, msg.secondaries, msg.op)
		tm.Stop()
		// TP: build the transaction; the store times itself (OS).
		tm = o.acct.Start(metrics.CatTP)
		txn := o.buildBaselineTxn(t.pg, msg.op)
		tm.Stop()
		status := wire.StatusOK
		if err := o.st.Submit(txn); err != nil {
			log.Printf("osd %d: pg %d submit: %v", o.cfg.ID, t.pg, err)
			status = wire.StatusIOError
		}
		o.pending.complete(id, o.cfg.ID, status)

	case *readTask:
		tm := o.acct.Start(metrics.CatTP)
		data, err := o.storeRead(t.pg, msg.oid, msg.off, msg.length)
		tm.Stop()
		if err != nil {
			msg.reply(storeStatus(err), nil)
			return
		}
		msg.reply(wire.StatusOK, data)

	case *replApply:
		tm := o.acct.Start(metrics.CatTP)
		txn := o.buildBaselineTxn(t.pg, msg.op)
		tm.Stop()
		if err := o.st.Submit(txn); err != nil {
			log.Printf("osd %d: pg %d repl submit: %v", o.cfg.ID, t.pg, err)
			msg.ack(wire.StatusIOError)
			return
		}
		msg.ack(wire.StatusOK)
	}
}

// nonPriorityLoop is one non-priority thread (paper §IV-B.2): woken by a
// priority thread or a timeout, it drains the op logs of its partitions in
// batches, issues I/O to the store, completes reads, then sleeps.
func (o *OSD) nonPriorityLoop(worker int, stop <-chan struct{}) {
	if len(o.cfg.Pools.NonPriority) > 0 {
		if err := sched.PinSelf(o.cfg.Pools.NonPriority); err == nil {
			defer sched.UnpinSelf()
		}
	}
	ticker := time.NewTicker(o.cfg.FlushInterval)
	defer ticker.Stop()
	q := o.nptQueues[worker]
	runTask := func(t *task) {
		o.wakes.SetBusy(worker, true)
		tm := o.acct.Start(metrics.CatNPT)
		o.runNPTTask(t)
		tm.Stop()
		o.wakes.SetBusy(worker, false)
	}
	for {
		// Queued tasks (reads, PTC storage processing) are latency-
		// sensitive: drain them before considering flush work.
		select {
		case t := <-q:
			runTask(t)
			continue
		default:
		}
		select {
		case <-stop:
			return
		case t := <-q:
			runTask(t)
		case <-o.wakes.Chan(worker):
			o.drainOwnedPGs(worker)
		case <-ticker.C:
			o.drainOwnedPGs(worker)
		}
	}
}

// runNPTTask executes a queued task on a non-priority worker.
func (o *OSD) runNPTTask(t *task) {
	switch msg := t.msg.(type) {
	case *localCommit: // PTC mode: synchronous storage processing
		txn := o.buildBaselineTxn(t.pg, msg.op)
		status := wire.StatusOK
		if err := o.st.Submit(txn); err != nil {
			status = wire.StatusIOError
		}
		o.pending.complete(msg.pendingID, o.cfg.ID, status)
	case *readTask:
		o.serveColdRead(t.pg, msg)
	case *replApply: // PTC mode: secondary storage processing
		txn := o.buildBaselineTxn(t.pg, msg.op)
		if err := o.st.Submit(txn); err != nil {
			msg.ack(wire.StatusIOError)
			return
		}
		msg.ack(wire.StatusOK)
	}
}

// drainOwnedPGs flushes this worker's dirty PGs. Proposed mode only. The
// dirty queue is populated at append time, so the drain visits exactly the
// PGs with staged entries — no O(#PGs) scan under pgMu per wake-up.
func (o *OSD) drainOwnedPGs(worker int) {
	if !o.cfg.Mode.usesOplog() {
		return
	}
	o.wakes.SetBusy(worker, true)
	defer o.wakes.SetBusy(worker, false)
	// Collect the entire list BEFORE drainBatch clears any dirty flag:
	// while the flags are set no producer can touch the dirtyNext links
	// (see dirtyQueue).
	owned := o.drainBufs[worker][:0]
	for s := o.dirtyQueues[worker].takeAll(); s != nil; s = s.dirtyNext {
		owned = append(owned, s)
	}
	tm := o.acct.Start(metrics.CatNPT)
	o.drainBatch(owned)
	tm.Stop()
	for i := range owned {
		owned[i] = nil
	}
	o.drainBufs[worker] = owned[:0]
}

// drainBatch flushes one drain's worth of dirty PGs. PG batches without
// logged reads coalesce per object and then combine into ONE store
// transaction for the whole drain: the COS submit path fans the per-PG
// groups out across its partitions concurrently and persists each touched
// onode once, so the drain pays one vectored device write per partition
// instead of one store round-trip per PG. Batches containing a logged read
// keep the per-PG barrier path (the read must observe the writes ordered
// before it). One failing PG must not starve the rest: on a combined
// submit failure every participating PG's entries are requeued and the PG
// re-marked dirty (without a wake) so the flush ticker retries.
func (o *OSD) drainBatch(owned []*pgState) {
	type job struct {
		s      *pgState
		batch  []*oplog.Entry
		merged []oplog.MergedOp
		gen    uint64
	}
	var (
		txn  store.Transaction
		jobs []job
	)
	for _, s := range owned {
		// Clear before flushing: appends racing with the flush re-queue
		// the PG rather than being lost.
		s.dirty.Store(false)
		if s.log == nil {
			continue
		}
		s.flushMu.Lock()
		batch, flushGen, err := o.takeStaged(s)
		if err == nil && batchHasRead(batch) {
			// Per-PG barrier path: nothing left for the combined submit.
			err = o.applyAndComplete(s, batch, flushGen)
			batch = nil
		}
		if err != nil {
			o.noteFlushErr(s, err)
		}
		if len(batch) == 0 {
			s.flushMu.Unlock()
			continue
		}
		c := &s.coal
		c.Reset()
		for _, e := range batch {
			c.Add(e)
		}
		merged := c.Emit()
		addMerged(&txn, s.pg, merged)
		// flushMu stays held until the combined submit resolves, keeping
		// this PG's entry order intact against forced flushes.
		jobs = append(jobs, job{s: s, batch: batch, merged: merged, gen: flushGen})
	}
	if len(jobs) == 0 {
		return
	}
	err := o.st.Submit(&txn)
	for _, j := range jobs {
		s := j.s
		if err != nil {
			s.log.Requeue(j.batch)
			o.noteFlushErr(s, err)
		} else {
			o.FlushBatches.Inc()
			o.FlushedEntries.Add(int64(len(j.batch)))
			o.FlushStoreOps.Add(int64(len(j.merged)))
			if cerr := s.log.Complete(j.batch); cerr != nil {
				// Entries are applied; only the log trim failed. Surface
				// it without requeueing already-durable ops.
				o.noteFlushErr(s, cerr)
			} else {
				// The merged slices stay valid until the PG's next
				// coalesce Reset, which flushMu still excludes.
				o.admitFlushed(s.pg, j.gen, j.merged)
			}
			o.observeOccupancy(s)
		}
		s.flushMu.Unlock()
	}
}

// noteFlushErr records a per-PG flush failure and re-marks the PG dirty
// (without a wake) so the flush ticker retries instead of a hot wake loop.
func (o *OSD) noteFlushErr(s *pgState, err error) {
	s.flushErrs.Inc()
	o.FlushErrors.Inc()
	log.Printf("osd %d: pg %d flush: %v", o.cfg.ID, s.pg, err)
	o.markDirty(s)
}

// batchHasRead reports whether a logged read (an ordering barrier) is in
// the batch.
func batchHasRead(batch []*oplog.Entry) bool {
	for _, e := range batch {
		if e.Op.Kind == wire.OpRead {
			return true
		}
	}
	return false
}

// flushPG drains one PG's op log into the backend store: staged writes and
// deletes apply in order, and logged reads are answered once the writes
// ordered before them are durable.
func (o *OSD) flushPG(s *pgState) error {
	if s.log == nil {
		return nil
	}
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	batch, flushGen, err := o.takeStaged(s)
	if err != nil || len(batch) == 0 {
		return err
	}
	return o.applyAndComplete(s, batch, flushGen)
}

// takeStaged takes everything staged in s's log for a flush, together with
// the read cache's flush generation — captured BEFORE TakeBatch: a write
// staged after the batch was taken moves the generation and FlushAdmit
// refuses the (then-stale) batch data. Every payload is checked against
// the CRC recorded at append time and a corrupted DRAM copy restored from
// its NVM frame before the batch reaches the store; when a payload is
// corrupt AND its frame unreadable the batch is requeued and the error
// returned — retry is all that's left then. Caller holds s.flushMu.
func (o *OSD) takeStaged(s *pgState) (batch []*oplog.Entry, flushGen uint64, err error) {
	if o.rcache != nil {
		flushGen = o.rcache.FlushGen(s.pg)
	}
	if batch = s.log.TakeBatch(0); len(batch) == 0 {
		return nil, 0, nil
	}
	healed, err := s.log.VerifyStagedData(batch)
	if healed > 0 {
		o.OplogHeals.Add(int64(healed))
		log.Printf("osd %d: pg %d restored %d staged payloads from NVM", o.cfg.ID, s.pg, healed)
	}
	if err != nil {
		s.log.Requeue(batch)
		return nil, 0, err
	}
	return batch, flushGen, nil
}

// addMerged appends one PG's coalesced ops to txn.
func addMerged(txn *store.Transaction, pg uint32, merged []oplog.MergedOp) {
	for i := range merged {
		if m := &merged[i]; m.Delete {
			txn.AddDelete(pg, m.OID)
		} else {
			txn.AddWrite(pg, m.OID, m.Off, m.Data)
		}
	}
}

// submitMerged applies one PG's coalesced ops as one store transaction.
func (o *OSD) submitMerged(pg uint32, merged []oplog.MergedOp) error {
	if len(merged) == 0 {
		return nil
	}
	var txn store.Transaction
	addMerged(&txn, pg, merged)
	return o.st.Submit(&txn)
}

// admitFlushed offers extents a flush just made durable to the read cache:
// they were hot enough to be written, so keep them readable at cache
// latency instead of letting the flush turn them cold. flushGen, captured
// before TakeBatch, refuses them if a newer write staged since.
func (o *OSD) admitFlushed(pg uint32, flushGen uint64, merged []oplog.MergedOp) {
	if o.rcache == nil {
		return
	}
	for i := range merged {
		if m := &merged[i]; !m.Delete {
			o.rcache.FlushAdmit(pg, flushGen, m.OID, m.Off, m.Data)
		}
	}
}

// applyAndComplete applies one PG's taken batch and completes (or, on
// failure, requeues) its entries. Every Complete is followed by an
// occupancy sample, here and in drainBatch: once the ladder is in the
// reject band no append samples the log, so the drain that relieves the
// pressure has to be what reports it. Caller holds s.flushMu.
func (o *OSD) applyAndComplete(s *pgState, batch []*oplog.Entry, flushGen uint64) error {
	if err := o.applyEntries(s, batch, flushGen); err != nil {
		s.log.Requeue(batch)
		return err
	}
	o.FlushBatches.Inc()
	o.FlushedEntries.Add(int64(len(batch)))
	err := s.log.Complete(batch)
	o.observeOccupancy(s)
	return err
}

// applyEntries applies a batch of op-log entries: staged writes coalesce
// per object (newest wins, adjacent extents merge) before submitting, so
// N overwrites of one hot block reach the store as one write. A logged
// read is an ordering barrier: the merged ops before it must land so the
// read observes every write ordered ahead of it.
func (o *OSD) applyEntries(s *pgState, batch []*oplog.Entry, flushGen uint64) error {
	c := &s.coal
	c.Reset()
	submit := func() error {
		merged := c.Emit()
		if err := o.submitMerged(s.pg, merged); err != nil {
			return err
		}
		o.FlushStoreOps.Add(int64(len(merged)))
		o.admitFlushed(s.pg, flushGen, merged)
		return nil
	}
	for _, e := range batch {
		switch e.Op.Kind {
		case wire.OpWrite, wire.OpDelete:
			c.Add(e)
		case wire.OpRead:
			// Writes ordered before the read must land first.
			if err := submit(); err != nil {
				return err
			}
			key := readKey(s.pg, e.Op.Seq)
			if w, ok := o.readWaiters.LoadAndDelete(key); ok {
				rt := w.(*readTask)
				data, err := o.storeRead(s.pg, rt.oid, rt.off, rt.length)
				if errors.Is(err, store.ErrChecksum) {
					// Read-repair, without re-entering flushPG (the caller
					// holds s.flushMu and the writes ordered before this
					// read just landed).
					o.CksumReadErrors.Inc()
					if full, ok := o.repairCore(s.pg, s, rt.oid, s.muts.Load()); ok {
						data, err = rangeOf(full, rt.off, rt.length), nil
					}
				}
				if err != nil {
					rt.reply(storeStatus(err), nil)
				} else {
					rt.reply(wire.StatusOK, data)
				}
			}
		default:
			return fmt.Errorf("osd %d: unknown logged op kind %d", o.cfg.ID, e.Op.Kind)
		}
	}
	return submit()
}

// applyBatchToStore REDOes recovered op-log entries (restart path),
// coalesced the same way as a live flush; read entries have no waiters
// anymore and are skipped by the coalescer.
func (o *OSD) applyBatchToStore(pg uint32, batch []*oplog.Entry) error {
	var c oplog.Coalescer
	for _, e := range batch {
		c.Add(e)
	}
	return o.submitMerged(pg, c.Emit())
}

// rtcMutation is the run-to-completion write path (Figure 1 probes): the
// connection's goroutine performs replication, transaction processing and
// the store commit itself, then blocks until the replicas acknowledge —
// exactly the critique in §III-B.
func (o *OSD) rtcMutation(pg uint32, pgs *pgState, epoch uint32, op wire.Op, secondaries []uint32, reply func(wire.Status)) {
	done := make(chan wire.Status, 1)
	tm := o.acct.Start(metrics.CatRP)
	id := o.pending.register(len(secondaries), func(s wire.Status) { done <- s })
	o.replicate(id, pg, epoch, secondaries, op)
	tm.Stop()

	status := wire.StatusOK
	if o.cfg.Mode != ModeRTCv3 { // v3 skips transaction processing
		tm = o.acct.Start(metrics.CatTP)
		txn := o.buildBaselineTxn(pg, op)
		tm.Stop()
		if err := o.st.Submit(txn); err != nil {
			status = wire.StatusIOError
		}
	}
	if len(secondaries) > 0 {
		if s := <-done; s != wire.StatusOK && status == wire.StatusOK {
			status = s
		}
	}
	reply(status)
}

// buildBaselineTxn assembles the transaction Ceph's OSD core issues per
// write: the data, an object_info_t attribute, a snapset attribute and a
// PG log entry (§V-B: "Ceph issues many key-value writes (e.g.,
// object_info_t, snapset, pglog) whenever a write request is handled").
func (o *OSD) buildBaselineTxn(pg uint32, op wire.Op) *store.Transaction {
	txn := &store.Transaction{}
	switch op.Kind {
	case wire.OpWrite:
		txn.AddWrite(pg, op.OID, op.Offset, op.Data)
	case wire.OpDelete:
		txn.AddDelete(pg, op.OID)
	}
	txn.AddSetAttr(pg, op.OID, "object_info", encodeObjectInfo(op))
	txn.AddSetAttr(pg, op.OID, "snapset", encodeSnapset(op))
	txn.AddPutKV(fmt.Sprintf("pglog/%d/%016d", pg, op.Seq), encodePGLogEntry(pg, op))
	return txn
}

// encodeObjectInfo emulates Ceph's object_info_t (~700 bytes of versioned
// object metadata rewritten on every mutation).
func encodeObjectInfo(op wire.Op) []byte {
	e := wire.NewEncoder(make([]byte, 0, 704))
	e.String32(op.OID.Name)
	e.U64(op.Version)
	e.U64(op.Seq)
	e.U64(op.Offset)
	e.U32(op.Length)
	buf := e.Bytes()
	out := make([]byte, 704)
	copy(out, buf)
	return out
}

// encodeSnapset emulates Ceph's snapset attribute (~64 bytes).
func encodeSnapset(op wire.Op) []byte {
	out := make([]byte, 64)
	out[0] = byte(op.Version)
	return out
}

// encodePGLogEntry emulates a pglog entry (~256 bytes per op).
func encodePGLogEntry(pg uint32, op wire.Op) []byte {
	e := wire.NewEncoder(make([]byte, 0, 256))
	e.U32(pg)
	e.U64(op.Seq)
	e.U64(op.Version)
	e.U8(uint8(op.Kind))
	e.String32(op.OID.Name)
	buf := e.Bytes()
	out := make([]byte, 256)
	copy(out, buf)
	return out
}

// storeRead reads through the backend store.
func (o *OSD) storeRead(pg uint32, oid wire.ObjectID, off uint64, length uint32) ([]byte, error) {
	return o.st.Read(pg, oid, off, length)
}

// serveColdRead answers an R4 cold miss on a non-priority thread. With the
// read cache enabled the read widens to cache-slot boundaries — one
// vectored backend submission fills the requested range plus its adjacent
// cache-worthy blocks — is served from a pooled buffer (no per-read
// allocation), and the filled blocks are admitted. If the PG's fill
// generation moved while the backend read was in flight (a write staged or
// a flush completed) the bytes are still correct to return — the read
// linearizes before the racing write — but AdmitFill refuses them.
func (o *OSD) serveColdRead(pg uint32, msg *readTask) {
	rc := o.rcache
	if rc == nil || o.cosStore == nil {
		data, err := o.verifiedRead(pg, msg.oid, msg.off, msg.length)
		if err != nil {
			msg.reply(storeStatus(err), nil)
			return
		}
		msg.reply(wire.StatusOK, data)
		return
	}
	gen := rc.FillGen(pg)
	off, n := rc.AlignFill(msg.off, msg.length, o.cfg.ObjectBytes)
	buf := o.getReadBuf(int(n))
	if err := o.cosStore.ReadInto(pg, msg.oid, off, *buf); err != nil {
		o.putReadBuf(buf)
		if errors.Is(err, store.ErrChecksum) {
			// Read-repair: serve the requested range from a clean replica
			// and queue the fenced local rewrite. The failing fill is never
			// admitted to the cache.
			o.CksumReadErrors.Inc()
			if full, ok := o.repairFromReplica(pg, msg.oid); ok {
				msg.reply(wire.StatusOK, rangeOf(full, msg.off, uint32(msg.length)))
				return
			}
		}
		msg.reply(storeStatus(err), nil)
		return
	}
	lo := msg.off - off
	msg.reply(wire.StatusOK, (*buf)[lo:lo+uint64(msg.length)])
	// reply has encoded the frame; the buffer is ours again. Admission
	// copies into the NVM slots, so recycling after it is safe.
	rc.AdmitFill(pg, gen, msg.oid, off, *buf)
	o.putReadBuf(buf)
}

func (o *OSD) getReadBuf(n int) *[]byte {
	if v, ok := o.readBufs.Get().(*[]byte); ok && cap(*v) >= n {
		*v = (*v)[:n]
		return v
	}
	b := make([]byte, n)
	return &b
}

func (o *OSD) putReadBuf(b *[]byte) { o.readBufs.Put(b) }

// storeStatus maps store errors onto wire statuses.
func storeStatus(err error) wire.Status {
	switch {
	case err == nil:
		return wire.StatusOK
	case errors.Is(err, store.ErrNotFound):
		return wire.StatusNotFound
	default:
		return wire.StatusIOError
	}
}
