package osd

import (
	"errors"
	"fmt"
	"log"
	"time"

	"rebloc/internal/crush"
	"rebloc/internal/messenger"
	"rebloc/internal/store"
	"rebloc/internal/wire"
)

// onMapChange reacts to a new cluster map (paper §IV-A.4): when an OSD
// fails, the survivors flush their staged data; a PG newly assigned to
// this OSD synchronises from a surviving member (op-log entries plus a
// full-object backfill) before serving writes.
func (o *OSD) onMapChange(old, cur *crush.Map) {
	if cur == nil {
		return
	}
	// Step ③: a peer failed — flush so the latest data is persistent.
	if old != nil && o.cfg.Mode.usesOplog() {
		for id, info := range old.OSDs {
			newInfo, ok := cur.OSDs[id]
			if info.Up && (!ok || !newInfo.Up) {
				o.group.Go(func(stop <-chan struct{}) { _ = o.FlushAll() })
				break
			}
		}
	}
	// Steps ⑤-⑦: sync PGs newly assigned to this OSD.
	for pg := uint32(0); pg < cur.PGCount; pg++ {
		acting, err := cur.MapPG(pg)
		if err != nil {
			continue
		}
		if !contains(acting, o.cfg.ID) {
			continue
		}
		wasMember := false
		if old != nil {
			if oldActing, err := old.MapPG(pg); err == nil {
				wasMember = contains(oldActing, o.cfg.ID)
			}
		}
		pgs, err := o.pgStateFor(pg)
		if err != nil {
			continue
		}
		if wasMember {
			// Still serving: record the authority rank. Only a CLEAN
			// member may claim the interval — an interval with any
			// unclean member cannot acknowledge writes (replicas reject
			// ops while unclean), so a clean member of epoch E holds
			// every write acknowledged at or before E.
			pgs.mu.Lock()
			claimed := pgs.clean
			if claimed {
				pgs.servedEpoch = cur.Epoch
			}
			lg := pgs.log
			pgs.mu.Unlock()
			if claimed && lg != nil {
				if err := lg.SetServedEpoch(cur.Epoch); err != nil {
					log.Printf("osd %d: pg %d persist served epoch: %v", o.cfg.ID, pg, err)
				}
			}
			continue
		}
		if len(acting) < 2 {
			continue // single-replica PG: no peer to pull from, ever
		}
		// A booting OSD (old == nil) also syncs — its store may be stale
		// relative to writes that happened while it was down. The PG must
		// reject traffic BEFORE this function returns: syncPG runs async,
		// and a client op sneaking in between the map install and the
		// goroutine's first step would read stale data.
		pgs.mu.Lock()
		if pgs.backfilling {
			pgs.mu.Unlock()
			continue // a sync is already running; it re-reads the map itself
		}
		pgs.backfilling = true
		pgs.clean = false
		pgs.mu.Unlock()
		pgCopy := pg
		o.group.Go(func(stop <-chan struct{}) { o.syncPG(pgCopy, pgs, stop) })
	}
}

func contains(ids []uint32, id uint32) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// syncPG drives a PG's backfill to completion: each round it re-resolves
// the acting set from the current map and probes every peer, pulling from
// the first CLEAN one — a source dying mid-pull just moves the sync to
// the next survivor. The PG is marked clean ONLY once a round succeeds. A
// failed round must never re-open the PG: serving after a half-sync is
// exactly the stale-read window the chaos harness exists to catch. The
// caller has already set clean=false+backfilling.
func (o *OSD) syncPG(pg uint32, pgs *pgState, stop <-chan struct{}) {
	o.Backfills.Inc()
	defer func() {
		pgs.mu.Lock()
		pgs.backfilling = false
		pgs.mu.Unlock()
	}()
	for {
		m := o.Map()
		acting, err := m.MapPG(pg)
		if err == nil && !contains(acting, o.cfg.ID) {
			// No longer responsible; stay unclean — a map change that puts
			// this OSD back in spawns a fresh sync.
			return
		}
		if err == nil && o.syncRound(pg, pgs, m, acting, stop) {
			if o.rcache != nil {
				// Backfill writes bypass the oplog staging hooks, so the
				// strict per-object invalidation never saw them: drop the
				// whole PG before serving reads again.
				o.rcache.InvalidatePG(pg)
			}
			pgs.mu.Lock()
			pgs.clean = true
			pgs.servedEpoch = m.Epoch
			lg := pgs.log
			pgs.mu.Unlock()
			if lg != nil {
				if err := lg.SetServedEpoch(m.Epoch); err != nil {
					log.Printf("osd %d: pg %d persist served epoch: %v", o.cfg.ID, pg, err)
				}
			}
			return
		}
		select {
		case <-stop:
			return
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// syncRound makes one pass over the acting peers and reports whether the
// PG is now in sync. It pulls from the first peer that reports itself
// clean. When EVERY peer is reachable but unclean — mutual backfill, e.g.
// two members reassigned to each other in the same map change — the round
// falls back to authority ranking: the member of the most recent fully-
// clean interval (highest servedEpoch, ties to the lowest OSD id) already
// holds every acknowledged write and promotes its own copy without
// pulling; the others defer until it serves. Copying from an unclean
// source is never safe: its store is a half-synced snapshot, and
// overwriting a fresh replica with it is how acknowledged data dies.
func (o *OSD) syncRound(pg uint32, pgs *pgState, m *crush.Map, acting []uint32, stop <-chan struct{}) bool {
	allProbed := true
	peers := 0
	bestEpoch := uint32(0)
	bestID := ^uint32(0) // ranking peer; always set when allProbed holds
	for _, id := range acting {
		if id == o.cfg.ID {
			continue
		}
		peers++
		res := o.backfillAttempt(pg, pgs, m, id, stop)
		if res.synced {
			return true
		}
		if !res.probed {
			allProbed = false
			continue
		}
		if res.clean {
			// A clean source exists but the pull failed (conn dropped,
			// store error): retry the round rather than self-promote.
			allProbed = false
			continue
		}
		if res.epoch > bestEpoch || (res.epoch == bestEpoch && id < bestID) {
			bestEpoch, bestID = res.epoch, id
		}
	}
	if peers == 0 || !allProbed {
		return false
	}
	pgs.mu.Lock()
	myEpoch := pgs.servedEpoch
	pgs.mu.Unlock()
	if myEpoch > bestEpoch || (myEpoch == bestEpoch && o.cfg.ID < bestID) {
		// Every peer is unclean and ranks below this OSD: promote the
		// local copy. Peers observe the same ranking through their own
		// probes and wait for this OSD to come clean, then pull from it.
		log.Printf("osd %d: pg %d promoting local copy (rank %d, best peer rank %d on osd %d)",
			o.cfg.ID, pg, myEpoch, bestEpoch, bestID)
		return true
	}
	return false
}

// probeResult is one backfillAttempt outcome.
type probeResult struct {
	synced bool   // full pull completed; the PG is in sync
	probed bool   // the peer answered the authority probe
	clean  bool   // the peer reported itself clean
	epoch  uint32 // the peer's servedEpoch
}

// backfillAttempt probes source and, if it is clean, runs one pass of the
// pull protocol (paper steps ⑥-⑦).
//
// A clean survivor is authoritative for EVERYTHING — including discarding
// this node's unacknowledged tail. Divergence discipline: first flush the
// local staged suffix (client/replica traffic is rejected while unclean,
// so the log stays empty afterwards), then overwrite every object the
// source ships and prune the ones it doesn't have. A local write the
// source never saw was by construction never acknowledged (replication
// acks gate the client ACK), so dropping it is legal — and keeping it
// would leave the replicas permanently divergent.
func (o *OSD) backfillAttempt(pg uint32, pgs *pgState, m *crush.Map, source uint32, stop <-chan struct{}) (res probeResult) {
	if pgs.log != nil {
		if err := o.flushPG(pgs); err != nil {
			return res
		}
	}

	// Dedicated connection for the pull protocol: request/reply in
	// lockstep (the peer conn's recv loop would swallow replies).
	info, ok := m.OSDs[source]
	if !ok {
		return res
	}
	pull, err := o.cfg.Transport.Dial(info.Addr)
	if err != nil {
		return res
	}
	// Track the pull conn for teardown: its lockstep Recv below can block
	// forever when the source dies (or the network eats the reply), and a
	// stop has no other handle to unblock this goroutine.
	if !o.aux.Add(pull) {
		pull.Close()
		return res
	}
	defer func() {
		o.aux.Remove(pull)
		pull.Close()
	}()

	// ⑥a: probe the source's authority and recover its op-log suffix.
	rid := uint64(1)
	if err := pull.Send(&wire.OplogPull{ReqID: rid, PG: pg}); err != nil {
		return res
	}
	msg, err := recvPullReply(pull, rid)
	if err != nil {
		return res
	}
	chunk0, ok := msg.(*wire.OplogChunk)
	if !ok || chunk0.Status != wire.StatusOK {
		return res
	}
	res.probed = true
	res.clean = chunk0.Clean
	res.epoch = chunk0.Epoch
	if !chunk0.Clean {
		return res // never copy from a half-synced source
	}
	for _, op := range chunk0.Ops {
		if pgs.log != nil {
			if _, err := o.stage(pgs, op); err != nil {
				return res
			}
		} else if err := o.applyDirect(pg, op); err != nil {
			return res
		}
		pgs.bumpSeq(op.Seq)
	}

	// ⑦: full-object backfill.
	seen := make(map[store.Key]bool)
	cursor := ""
	for {
		select {
		case <-stop:
			return res
		default:
		}
		rid++
		if err := pull.Send(&wire.BackfillPull{ReqID: rid, PG: pg, Cursor: cursor, Max: 32}); err != nil {
			return res
		}
		msg, err := recvPullReply(pull, rid)
		if err != nil {
			return res
		}
		chunk, ok := msg.(*wire.BackfillChunk)
		if !ok || chunk.Status != wire.StatusOK {
			return res
		}
		for _, obj := range chunk.Objects {
			seen[store.MakeKey(pg, obj.OID)] = true
			txn := &store.Transaction{}
			txn.AddWrite(pg, obj.OID, 0, obj.Data)
			if err := o.st.Submit(txn); err != nil {
				return res
			}
		}
		if chunk.Done {
			break
		}
		cursor = chunk.NextCursor
	}
	o.pruneStaleObjects(pg, seen)
	log.Printf("osd %d: pg %d synced from osd %d (%d oplog ops, %d objects)",
		o.cfg.ID, pg, source, len(chunk0.Ops), len(seen))
	res.synced = true
	return res
}

// recvPullReply reads pull replies until one matches id. At-least-once
// delivery (a faulty or reconnecting network) can replay an earlier
// reply; consuming it as the answer to the CURRENT request would shift
// the lockstep protocol off by one for the rest of the pull.
func recvPullReply(pull messenger.Conn, id uint64) (wire.Message, error) {
	for {
		msg, err := pull.Recv()
		if err != nil {
			return nil, err
		}
		switch m := msg.(type) {
		case *wire.OplogChunk:
			if m.ReqID == id {
				return msg, nil
			}
		case *wire.BackfillChunk:
			if m.ReqID == id {
				return msg, nil
			}
		case *wire.ScrubChunk:
			if m.ReqID == id {
				return msg, nil
			}
		}
	}
}

// pruneStaleObjects removes local objects the backfill source no longer
// has (deleted cluster-wide while this node was down).
func (o *OSD) pruneStaleObjects(pg uint32, seen map[store.Key]bool) {
	var cursor store.Key
	pruned := 0
	for {
		infos, last, done, err := o.st.ListPG(pg, cursor, 64)
		if err != nil {
			break
		}
		for _, info := range infos {
			if seen[info.Key] {
				continue
			}
			txn := &store.Transaction{}
			txn.AddDelete(pg, info.OID)
			_ = o.st.Submit(txn)
			pruned++
		}
		if done {
			break
		}
		cursor = last
	}
	if pruned > 0 {
		log.Printf("osd %d: pg %d pruned %d stale objects after sync", o.cfg.ID, pg, pruned)
	}
}

// applyDirect applies a pulled op straight to the store (modes without an
// op log).
func (o *OSD) applyDirect(pg uint32, op wire.Op) error {
	txn := &store.Transaction{}
	switch op.Kind {
	case wire.OpWrite:
		txn.AddWrite(pg, op.OID, op.Offset, op.Data)
	case wire.OpDelete:
		txn.AddDelete(pg, op.OID)
	default:
		return nil
	}
	return o.st.Submit(txn)
}

// serveOplogPull ships the staged op-log suffix for a PG, stamped with
// this OSD's authority (clean flag + served epoch) so the puller can tell
// a live survivor from another half-synced peer.
func (o *OSD) serveOplogPull(conn messenger.Conn, msg *wire.OplogPull) {
	chunk := &wire.OplogChunk{ReqID: msg.ReqID, PG: msg.PG, Status: wire.StatusOK}
	o.pgMu.Lock()
	s, ok := o.pgs[msg.PG]
	o.pgMu.Unlock()
	if ok {
		s.mu.Lock()
		chunk.Clean = s.clean
		chunk.Epoch = s.servedEpoch
		s.mu.Unlock()
	}
	if ok && s.log != nil {
		for _, op := range s.log.StagedOps() {
			if op.Seq > msg.FromSeq && op.Kind != wire.OpRead {
				chunk.Ops = append(chunk.Ops, op)
			}
		}
	}
	_ = conn.Send(chunk)
}

// serveBackfillPull ships a batch of whole objects for a PG.
func (o *OSD) serveBackfillPull(conn messenger.Conn, msg *wire.BackfillPull) {
	reply := &wire.BackfillChunk{ReqID: msg.ReqID, PG: msg.PG, Status: wire.StatusOK}
	// Backfill must not miss staged data: flush this PG first.
	o.pgMu.Lock()
	s, ok := o.pgs[msg.PG]
	o.pgMu.Unlock()
	if ok {
		// Defense against a probe/pull race: the puller checked Clean on
		// the oplog probe, but a map change could dirty this PG between
		// the two steps. Half-synced data must never ship.
		s.mu.Lock()
		clean := s.clean
		s.mu.Unlock()
		if !clean {
			reply.Status = wire.StatusAgain
			_ = conn.Send(reply)
			return
		}
	}
	if ok && s.log != nil {
		if err := o.flushPG(s); err != nil {
			reply.Status = wire.StatusIOError
			_ = conn.Send(reply)
			return
		}
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
		data, err := o.st.Read(msg.PG, info.OID, 0, uint32(info.Size))
		if errors.Is(err, store.ErrNotFound) {
			continue // deleted between list and read
		}
		if err != nil {
			// Includes checksum failures: silently skipping the object
			// would make the puller prune it as deleted — turning one
			// rotten replica into cluster-wide data loss. Abort the chunk;
			// scrub/read-repair restores the object, then backfill retries.
			reply.Status = wire.StatusIOError
			reply.Objects = nil
			_ = conn.Send(reply)
			return
		}
		reply.Objects = append(reply.Objects, wire.BackfillObject{
			OID:     info.OID,
			Version: info.Version,
			Data:    data,
		})
	}
	reply.Done = done
	reply.NextCursor = fmt.Sprintf("%016x", uint64(last))
	_ = conn.Send(reply)
}
