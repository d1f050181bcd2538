package osd

import (
	"errors"
	"fmt"
	"hash/crc32"
	"log"
	"time"

	"rebloc/internal/crush"
	"rebloc/internal/messenger"
	"rebloc/internal/store"
	"rebloc/internal/wire"
)

// Read-repair: when a local read trips a block checksum (store.ErrChecksum
// — the device returned success and garbage), the object still exists
// intact on the other acting replicas. Instead of failing the client, the
// primary fetches the whole object from a clean peer, serves the client
// from the fetched bytes, and queues a fenced local rewrite so the next
// read is clean again. The fetch rides the backfill authority rules: a
// peer that reports itself unclean (mid-backfill) is never a repair
// source, because its copy may predate acknowledged writes.
//
// The local rewrite is a read-modify-write against a moving store, fenced
// exactly like the repair loop's pushes (repair.go): the PG's mutation
// counter is snapshotted BEFORE the flush + fetch, and the final check +
// store submit run on the PG's owning shard goroutine. A client write that
// staged in between moves the counter and the rewrite aborts — the newer
// write owns the bytes (and carries its own fresh checksum), so there is
// nothing left to repair.

var crcTab = crc32.MakeTable(crc32.Castagnoli)

// verifiedRead reads through the backend store and, on a checksum miss,
// repairs from a replica: the returned bytes are the requested range of
// the clean remote copy. Any other error (including repair failure) is
// returned unchanged so the caller's status mapping applies.
func (o *OSD) verifiedRead(pg uint32, oid wire.ObjectID, off uint64, length uint32) ([]byte, error) {
	data, err := o.storeRead(pg, oid, off, length)
	if err == nil || !errors.Is(err, store.ErrChecksum) {
		return data, err
	}
	o.CksumReadErrors.Inc()
	full, ok := o.repairFromReplica(pg, oid)
	if !ok {
		return nil, err // no clean source: surface the checksum error
	}
	return rangeOf(full, off, length), nil
}

// rangeOf cuts [off, off+length) out of a whole-object image; bytes past
// the object's end read as zero (thin-provisioned tail), matching the
// store's own short-read semantics for pre-allocated objects.
func rangeOf(full []byte, off uint64, length uint32) []byte {
	out := make([]byte, length)
	if off < uint64(len(full)) {
		copy(out, full[off:])
	}
	return out
}

// repairFromReplica fetches oid's whole content from the first clean
// acting peer and, on success, queues the fenced local rewrite. Returns
// the fetched image. Safe to call from non-priority workers and the scrub
// loop; never from a shard goroutine (the rewrite handoff would deadlock
// behind the caller).
func (o *OSD) repairFromReplica(pg uint32, oid wire.ObjectID) ([]byte, bool) {
	pgs, err := o.pgStateFor(pg)
	if err != nil {
		return nil, false
	}
	// Snapshot the fence BEFORE flushing and fetching (see repair.go): the
	// rewrite is only installable while no write staged since.
	mutSnap := pgs.muts.Load()
	if pgs.log != nil {
		if err := o.flushPG(pgs); err != nil {
			return nil, false
		}
	}
	return o.repairCore(pg, pgs, oid, mutSnap)
}

// repairCore is repairFromReplica minus the flush: callers already holding
// s.flushMu (the logged-read waiter path runs mid-flush) enter here with
// their own fence snapshot.
func (o *OSD) repairCore(pg uint32, pgs *pgState, oid wire.ObjectID, mutSnap uint64) ([]byte, bool) {
	if len(o.shards) == 0 {
		return nil, false // the fenced rewrite needs the sharded top half
	}
	m := o.Map()
	if m == nil {
		return nil, false
	}
	acting, err := m.MapPG(pg)
	if err != nil {
		return nil, false
	}
	// The muts fence proves no mutation staged AFTER the snapshot; it
	// cannot prove the peers have RECEIVED everything staged before it.
	// A fan-out still in flight at fetch time means the fetched image may
	// predate an acknowledged write, and installing it would overwrite
	// the newer local bytes — served cleanly on the next read, a silent
	// lost write. Wait for the staged fan-outs to drain before fetching.
	// If the PG never goes quiet, the fetch is still safe to SERVE (every
	// write ACKed before the triggering read arrived is already in the
	// peer's log, which the pull flushes), but not to install.
	quiet := waitReplQuiet(pgs, time.Second)
	for _, id := range acting {
		if id == o.cfg.ID {
			continue
		}
		data, ok := o.fetchObject(m, id, pg, oid)
		if !ok {
			continue
		}
		log.Printf("osd %d: pg %d read-repair %s from osd %d (%d bytes)",
			o.cfg.ID, pg, oid, id, len(data))
		if quiet {
			o.installRepair(pg, pgs, oid, data, mutSnap)
		}
		return data, true
	}
	return nil, false
}

// waitReplQuiet polls until every fan-out staged on the PG has completed
// (acked by all peers or failed into the repair queue). Returns false on
// timeout — a PG under constant writes may never drain, and the caller
// degrades to serve-only.
func waitReplQuiet(pgs *pgState, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for pgs.replPend.Load() != 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// fetchObject pulls one whole object from peer over a dedicated lockstep
// connection (the backfillAttempt pattern). ok only when the peer is
// clean AND its own verified read succeeded — a Bad object means the
// peer's copy is rotten too.
func (o *OSD) fetchObject(m *crush.Map, peer uint32, pg uint32, oid wire.ObjectID) ([]byte, bool) {
	info, ok := m.OSDs[peer]
	if !ok {
		return nil, false
	}
	pull, err := o.cfg.Transport.Dial(info.Addr)
	if err != nil {
		return nil, false
	}
	if !o.aux.Add(pull) {
		pull.Close()
		return nil, false
	}
	defer func() {
		o.aux.Remove(pull)
		pull.Close()
	}()
	if err := pull.Send(&wire.ScrubPull{ReqID: 1, PG: pg, OID: oid}); err != nil {
		return nil, false
	}
	msg, err := recvPullReply(pull, 1)
	if err != nil {
		return nil, false
	}
	chunk, ok := msg.(*wire.ScrubChunk)
	if !ok || chunk.Status != wire.StatusOK || !chunk.Clean {
		return nil, false
	}
	if len(chunk.Objects) != 1 || chunk.Objects[0].Bad {
		return nil, false
	}
	return chunk.Objects[0].Data, true
}

// installRepair hands the local rewrite to the PG's owning shard
// goroutine, where it is atomic against client writes: either the fence
// holds (no mutation staged since the fetch) and the clean bytes land, or
// a newer write moved the counter and the rewrite aborts. The handoff runs
// on its own goroutine so a worker already holding queue slots can never
// deadlock against a full shard channel.
func (o *OSD) installRepair(pg uint32, pgs *pgState, oid wire.ObjectID, data []byte, mutSnap uint64) {
	o.group.Go(func(stop <-chan struct{}) {
		o.toShard(shardReq{pg: pg, fn: func() {
			if pgs.muts.Load() != mutSnap {
				return // a newer write owns the bytes; nothing to repair
			}
			txn := &store.Transaction{}
			txn.AddWrite(pg, oid, 0, data)
			if err := o.st.Submit(txn); err != nil {
				log.Printf("osd %d: pg %d read-repair install %s: %v", o.cfg.ID, pg, oid, err)
				return
			}
			if o.rcache != nil {
				o.rcache.Invalidate(pg, oid)
			}
			o.ScrubRepairs.Inc()
		}})
	})
}

// serveScrubPull answers both ScrubPull shapes (scrub.go documents the
// protocol). Objects ship from a clean PG only — the same authority rule
// as backfill: half-synced data must never become a repair source.
func (o *OSD) serveScrubPull(conn messenger.Conn, msg *wire.ScrubPull) {
	reply := &wire.ScrubChunk{ReqID: msg.ReqID, PG: msg.PG, Status: wire.StatusOK}
	o.pgMu.Lock()
	s, ok := o.pgs[msg.PG]
	o.pgMu.Unlock()
	if ok {
		s.mu.Lock()
		reply.Clean = s.clean
		s.mu.Unlock()
	}
	if !ok || !reply.Clean {
		reply.Status = wire.StatusAgain
		_ = conn.Send(reply)
		return
	}
	if s.log != nil {
		if err := o.flushPG(s); err != nil {
			reply.Status = wire.StatusIOError
			_ = conn.Send(reply)
			return
		}
	}

	if msg.OID.Name != "" {
		// Exact-object fetch (read-repair): whole object, data included.
		obj, status := o.scrubObject(msg.PG, msg.OID, true, true)
		if status != wire.StatusOK {
			reply.Status = status
		} else {
			reply.Objects = append(reply.Objects, obj)
		}
		reply.Done = true
		_ = conn.Send(reply)
		return
	}

	var cursor store.Key
	if msg.Cursor != "" {
		if _, err := fmt.Sscanf(msg.Cursor, "%016x", &cursor); err != nil {
			reply.Status = wire.StatusInvalid
			_ = conn.Send(reply)
			return
		}
	}
	max := int(msg.Max)
	if max <= 0 || max > 256 {
		max = 32
	}
	infos, last, done, err := o.st.ListPG(msg.PG, cursor, max)
	if err != nil {
		reply.Status = wire.StatusIOError
		_ = conn.Send(reply)
		return
	}
	for _, info := range infos {
		obj, status := o.scrubObject(msg.PG, info.OID, msg.Deep, false)
		if status == wire.StatusNotFound {
			continue // deleted between list and read; the next pass re-lists
		}
		if status != wire.StatusOK {
			reply.Status = status
			reply.Objects = nil
			_ = conn.Send(reply)
			return
		}
		reply.Objects = append(reply.Objects, obj)
	}
	reply.Done = done
	reply.NextCursor = fmt.Sprintf("%016x", uint64(last))
	_ = conn.Send(reply)
}

// scrubObject builds one object's scrub summary. A deep pass reads the
// object back through the verified path; a local checksum miss marks it
// Bad (with no data) instead of failing the chunk, so the puller learns
// this replica's copy is rotten rather than merely divergent. Any other
// read error is an IOError — silently skipping it would make the puller
// treat the object as missing and prune or "repair" it with stale data.
func (o *OSD) scrubObject(pg uint32, oid wire.ObjectID, deep, withData bool) (wire.ScrubObject, wire.Status) {
	obj := wire.ScrubObject{OID: oid}
	info, err := o.st.Stat(pg, oid)
	if errors.Is(err, store.ErrNotFound) {
		return obj, wire.StatusNotFound
	}
	if err != nil {
		return obj, wire.StatusIOError
	}
	obj.Version = info.Version
	obj.Size = info.Size
	if !deep {
		return obj, wire.StatusOK
	}
	data, err := o.st.Read(pg, oid, 0, uint32(info.Size))
	switch {
	case errors.Is(err, store.ErrChecksum):
		o.CksumReadErrors.Inc()
		obj.Bad = true
		return obj, wire.StatusOK
	case errors.Is(err, store.ErrNotFound):
		return obj, wire.StatusNotFound
	case err != nil:
		return obj, wire.StatusIOError
	}
	obj.CRC = crc32.Checksum(data, crcTab)
	if withData {
		obj.Data = data
	}
	return obj, wire.StatusOK
}
