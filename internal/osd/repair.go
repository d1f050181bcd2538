package osd

import (
	"errors"
	"time"

	"rebloc/internal/store"
	"rebloc/internal/wire"
)

// Re-replication repair: when a mutation's replication fan-out fails on
// some secondary (peer down, connection severed, replica mid-backfill
// answering Again), the primary has already applied the op locally but at
// least one replica missed it. The client sees an error and may never
// retry, which would leave the replicas byte-divergent forever — no map
// change, no backfill, nothing to reconcile them. Instead the primary
// remembers the damaged object and a background loop re-pushes its
// CURRENT content (a fresh full-object write with a fresh sequence
// number) to every secondary until one round is acknowledged by all of
// them. Pushing current state rather than replaying the failed op makes
// the repair idempotent — but only if the push cannot race a concurrent
// client write: reading the object back and pushing it with a fresh seq
// is a read-modify-write, and un-fenced it can overwrite a newer
// acknowledged write on the replicas with the stale read-back. The loop
// therefore snapshots the PG's sequence before the read-back and hands
// the final fence-check + seq assignment + enqueue to the PG's owning
// shard goroutine, which is where client writes stage and fan out: the
// push either provably contains every acknowledged write (seq unmoved)
// or aborts and retries next tick.

// repairItem is one object awaiting re-replication.
type repairItem struct {
	pg       uint32
	oid      wire.ObjectID
	inflight bool // a push is pending; don't enqueue another
}

// noteRepair records that oid's replication fan-out failed and the
// replicas may have diverged.
func (o *OSD) noteRepair(pg uint32, oid wire.ObjectID) {
	k := store.MakeKey(pg, oid)
	o.repairMu.Lock()
	if _, ok := o.repairs[k]; !ok {
		o.repairs[k] = &repairItem{pg: pg, oid: oid}
	}
	o.repairMu.Unlock()
}

// repairLoop periodically re-pushes damaged objects.
func (o *OSD) repairLoop(stop <-chan struct{}) {
	ticker := time.NewTicker(250 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			o.runRepairs()
		}
	}
}

// runRepairs attempts one push for every damaged object that doesn't
// already have one in flight.
func (o *OSD) runRepairs() {
	m := o.Map()
	if m == nil {
		return
	}
	o.repairMu.Lock()
	var due []*repairItem
	keys := make(map[*repairItem]store.Key, len(o.repairs))
	for k, it := range o.repairs {
		if !it.inflight {
			due = append(due, it)
			keys[it] = k
		}
	}
	o.repairMu.Unlock()

	for _, it := range due {
		k := keys[it]
		acting, err := m.MapPG(it.pg)
		if err != nil {
			continue // degraded; retry when the map heals
		}
		if acting[0] != o.cfg.ID {
			// Not the primary anymore. Membership only changes with the
			// up-set, so the new primary's backfill (or its own repair
			// queue) owns the object now.
			o.repairMu.Lock()
			delete(o.repairs, k)
			o.repairMu.Unlock()
			continue
		}
		pgs, err := o.pgStateFor(it.pg)
		if err != nil {
			continue
		}
		pgs.mu.Lock()
		clean := pgs.clean
		pgs.mu.Unlock()
		if !clean {
			continue // our copy isn't authoritative yet
		}
		// Snapshot the PG's mutation counter BEFORE flushing and reading
		// the object back: the content is only pushable while no write
		// has staged since, or the push (which takes a fresh seq and
		// travels the ordinary per-peer queues) could overwrite a newer,
		// already-acknowledged write on the replicas with stale bytes.
		// The fence is the mutation counter, not the seq counter: logged
		// reads consume seqs too, and a reader polling for convergence
		// would livelock a seq-based fence.
		mutSnap := pgs.muts.Load()
		op, ok := o.repairOp(it.pg, it.oid, pgs)
		if !ok {
			continue
		}
		it.inflight = true
		item := it
		key := k
		pg, epoch, secondaries := it.pg, m.Epoch, acting[1:]
		// The fence check, seq assignment and fan-out enqueue run on the
		// PG's owning shard goroutine — the same goroutine that stages
		// client writes and enqueues their fan-outs — so the push is
		// atomic against them: any concurrent write either moved the seq
		// (push aborts, retries next tick) or is ordered wholly after
		// the push on every per-peer queue and wins at the replicas.
		o.toShard(shardReq{pg: pg, fn: func() {
			if pgs.muts.Load() != mutSnap {
				o.repairMu.Lock()
				item.inflight = false
				o.repairMu.Unlock()
				return // a write staged since the read-back; retry
			}
			op.Seq = pgs.nextSeq()
			op.Version = op.Seq
			o.RepairPushes.Inc()
			id := o.pending.register(len(secondaries), func(status wire.Status) {
				o.repairMu.Lock()
				item.inflight = false
				if status == wire.StatusOK {
					delete(o.repairs, key)
				}
				o.repairMu.Unlock()
			})
			o.replicate(id, pg, epoch, secondaries, op)
		}})
	}
}

// repairOp builds the push op carrying the object's current state: a
// full-object write, or a delete when the object no longer exists. The
// sequence number is NOT assigned here — the caller assigns it on the
// owning shard goroutine, after fencing against concurrent writes.
func (o *OSD) repairOp(pg uint32, oid wire.ObjectID, pgs *pgState) (wire.Op, bool) {
	if pgs.log != nil {
		// The store must reflect the staged tail before we read it back.
		if err := o.flushPG(pgs); err != nil {
			return wire.Op{}, false
		}
	}
	op := wire.Op{OID: oid}
	info, err := o.st.Stat(pg, oid)
	switch {
	case errors.Is(err, store.ErrNotFound):
		op.Kind = wire.OpDelete
	case err != nil:
		return wire.Op{}, false
	default:
		data, err := o.st.Read(pg, oid, 0, uint32(info.Size))
		if err != nil {
			return wire.Op{}, false
		}
		op.Kind = wire.OpWrite
		op.Data = data
	}
	return op, true
}
