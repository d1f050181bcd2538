package oplog

import (
	"runtime"
	"sync"

	"rebloc/internal/wire"
)

// Group commit (NVLog-style): the first appender to arrive becomes the
// group leader; appenders that arrive while it is committing enqueue a
// waiter and block. The leader drains the pending queue in groups of at
// most groupMax, writing every member's frame (metadata from the log's
// scratch, payload straight from the appender's buffer) into the circular
// buffer back to back and then persisting once — one data-range barrier
// (two on wrap) plus one header persist, amortized over the whole group.
// Sequence numbers are assigned by the caller before Append, so followers
// keep their arrival order inside the group and per-object ordering holds.

// groupWaiter carries one append through a group commit. Pooled, and
// returned to the pool zeroed; the embedded WaitGroup is reused across
// cycles.
type groupWaiter struct {
	op  wire.Op
	ent *Entry
	err error
	wg  sync.WaitGroup
	// batchErr links the members of one AppendBatch: once any member fails,
	// every later member of the same batch must fail too, even when the
	// batch spans several commit groups — a later same-object write landing
	// after an earlier one failed would corrupt newest-wins staging on the
	// caller's retry. Written and read under l.mu (commit groups run
	// sequentially); nil for solo Appends.
	batchErr *error
}

var waiterPool = sync.Pool{New: func() any { return new(groupWaiter) }}

// Append stages op in the log and index cache (paper W1+W2). The caller's
// priority thread blocks only for the (possibly shared) NVM commit.
// Returns ErrFull when the region cannot hold the entry.
func (l *Log) Append(op wire.Op) (*Entry, error) {
	if l.closed.Load() {
		return nil, ErrClosed
	}
	l.appenders.Add(1)
	w := waiterPool.Get().(*groupWaiter)
	w.op = op
	w.wg.Add(1)

	l.gmu.Lock()
	l.pending = append(l.pending, w)
	leader := !l.committing
	if leader {
		l.committing = true
	}
	l.gmu.Unlock()

	if leader {
		if l.appenders.Load() > 1 {
			// Other appenders are in flight: yield once so they can join
			// this group before the leader commits. This is what forms
			// groups on a single-CPU scheduler; with real parallelism
			// stragglers pile up while the leader persists.
			runtime.Gosched()
		}
		l.commitPending()
	}
	w.wg.Wait()

	l.appenders.Add(-1)
	ent, err := w.ent, w.err
	w.op = wire.Op{}
	w.ent = nil
	w.err = nil
	waiterPool.Put(w)
	return ent, err
}

// AppendBatch stages several ops as members of one commit cycle: all of
// them enqueue before the leader commits, so a batch of n ops shares the
// group's persists the way n concurrent appenders would. This is what
// keeps group commit effective under the sharded top half, where one shard
// goroutine is the only appender for its PGs and per-op Append would
// degenerate to groups of one.
//
// Returns how many ops from the front of the batch committed. Failure is
// prefix-shaped by construction (see groupWaiter.batchErr): if err != nil,
// ops[:n] are staged and ops[n:] are not, so the caller can flush and
// retry exactly the uncommitted tail without reordering any object's
// writes.
func (l *Log) AppendBatch(ops []wire.Op) (int, error) {
	if len(ops) == 0 {
		return 0, nil
	}
	if len(ops) == 1 {
		if _, err := l.Append(ops[0]); err != nil {
			return 0, err
		}
		return 1, nil
	}
	if l.closed.Load() {
		return 0, ErrClosed
	}
	l.appenders.Add(1)
	var batchErr error
	ws := make([]*groupWaiter, len(ops))
	for i := range ops {
		w := waiterPool.Get().(*groupWaiter)
		w.op = ops[i]
		w.batchErr = &batchErr
		w.wg.Add(1)
		ws[i] = w
	}

	l.gmu.Lock()
	l.pending = append(l.pending, ws...)
	leader := !l.committing
	if leader {
		l.committing = true
	}
	l.gmu.Unlock()

	if leader {
		l.commitPending()
	}

	committed := 0
	var firstErr error
	for _, w := range ws {
		w.wg.Wait()
		if firstErr == nil {
			if w.err == nil {
				committed++
			} else {
				firstErr = w.err
			}
		}
		w.op = wire.Op{}
		w.ent = nil
		w.err = nil
		w.batchErr = nil
		waiterPool.Put(w)
	}
	l.appenders.Add(-1)
	return committed, firstErr
}

// commitPending drains the pending queue as the group leader, committing
// one group per iteration until no appender is waiting.
func (l *Log) commitPending() {
	for {
		l.gmu.Lock()
		n := len(l.pending)
		if n == 0 {
			l.committing = false
			l.gmu.Unlock()
			return
		}
		if n > l.groupMax {
			n = l.groupMax
		}
		l.group = append(l.group[:0], l.pending[:n]...)
		rem := copy(l.pending, l.pending[n:])
		for i := rem; i < len(l.pending); i++ {
			l.pending[i] = nil
		}
		l.pending = l.pending[:rem]
		l.gmu.Unlock()
		l.commitGroup(l.group)
	}
}

// commitGroup writes and persists one group under the log lock, then
// releases every member.
func (l *Log) commitGroup(ws []*groupWaiter) {
	l.mu.Lock()
	if l.closed.Load() {
		l.mu.Unlock()
		for _, w := range ws {
			w.err = ErrClosed
			w.wg.Done()
		}
		return
	}
	capy := l.capacity()
	start := l.head
	var groupBytes uint64
	committed := 0
	for _, w := range ws {
		if w.batchErr != nil && *w.batchErr != nil {
			// An earlier member of this waiter's batch failed in a previous
			// group: fail the rest of the batch (and, below, the rest of
			// this group) to keep batch failure prefix-shaped.
			w.err = *w.batchErr
			break
		}
		dcrc := dataCRC(&w.op)
		hdr := appendEntryHeader(l.metaScratch[:0], &w.op, dcrc)
		need := uint64(len(hdr) + len(w.op.Data))
		if need > capy-1 {
			// Wider than the whole region: flushing can never help.
			// Repair pushes carry full objects, so a region sized below
			// the object size would otherwise wedge the append path in
			// an endless flush-retry spin.
			w.err = ErrTooLarge
			break
		}
		// Keep one byte free so head==tail always means empty.
		if l.used+groupBytes+need > capy-1 {
			w.err = ErrFull
			break
		}
		pos := (start + groupBytes) % capy
		err := l.writeCircularAt(hdr, pos)
		if err == nil {
			err = l.writeCircularAt(w.op.Data, (pos+uint64(len(hdr)))%capy)
		}
		if err != nil {
			w.err = err
			break
		}
		e := entryPool.Get().(*Entry)
		e.Op = w.op
		e.LogPos = pos
		e.State = StateStaged
		e.DataCRC = dcrc
		w.ent = e
		groupBytes += need
		committed++
	}
	// The first failure fails every later member too: succeeding them
	// out of order would break per-object sequencing. They retry after
	// the caller's synchronous flush.
	if committed < len(ws) {
		failErr := ws[committed].err
		for i := committed; i < len(ws); i++ {
			ws[i].err = failErr
			if ws[i].batchErr != nil && *ws[i].batchErr == nil {
				*ws[i].batchErr = failErr
			}
			if failErr == ErrFull {
				l.stats.FullStalls.Inc()
			}
		}
	}
	if committed > 0 {
		err := l.persistRange(start, groupBytes)
		if err == nil {
			l.head = (start + groupBytes) % capy
			l.used += groupBytes
			for i := 0; i < committed; i++ {
				if s := ws[i].op.Seq; s > l.lastSeq {
					l.lastSeq = s
				}
			}
			err = l.persistHeader()
		}
		if err != nil {
			// NVM failure: nothing advanced durably; fail the whole group.
			for i := 0; i < committed; i++ {
				releaseEntry(ws[i].ent)
				ws[i].ent = nil
				ws[i].err = err
			}
			committed = 0
		}
	}
	for i := 0; i < committed; i++ {
		e := ws[i].ent
		l.entries = append(l.entries, e)
		l.stage(e)
	}
	if committed > 0 {
		l.stats.Appends.Add(int64(committed))
		l.stats.AppendedBytes.Add(int64(groupBytes))
		l.stats.Groups.Inc()
		l.stats.GroupBytes.Add(int64(groupBytes))
		l.stats.MaxGroup.SetMax(int64(committed))
	}
	l.mu.Unlock()
	for _, w := range ws {
		w.wg.Done()
	}
}
