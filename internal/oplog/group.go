package oplog

import "rebloc/internal/wire"

// Commit (paper §IV-A, W1+W2): the appender lays its ops' frames out back
// to back in the circular buffer under the logical-group lock, persists
// the range once, persists the header once, and indexes the entries. The
// ops of one call are the group those two persists are shared by; the
// batching comes from the caller (a shard hands a burst's run of mutations
// for one PG to AppendBatch), not from appenders queueing on each other:
// each PG has one appender, so there is nobody to wait for. Concurrent
// callers stay legal and serialise on mu. Sequence numbers are assigned by
// the caller before the append, so log order is the caller's order.

// Append stages op in the log and index cache. Returns ErrFull when the
// region cannot hold the entry until a drain completes, ErrTooLarge when
// it never can. The returned entry is pooled: it is valid only until the
// next Complete, which may release it.
func (l *Log) Append(op wire.Op) (*Entry, error) {
	ops := [1]wire.Op{op}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.commit(ops[:]); err != nil {
		return nil, err
	}
	return l.entries[len(l.entries)-1], nil
}

// AppendBatch stages ops, in order, as one commit. Returns how many ops
// from the front of the batch committed. Failure is prefix-shaped: if err
// != nil, ops[:n] are staged and ops[n:] are not, so the caller can flush
// and retry exactly the tail without reordering any object's writes.
func (l *Log) AppendBatch(ops []wire.Op) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.commit(ops)
}

// commit writes, persists and indexes the longest prefix of ops that fits.
// Each frame's header comes from metaScratch and its payload goes from the
// caller's buffer straight into the region. Caller holds l.mu.
func (l *Log) commit(ops []wire.Op) (int, error) {
	if l.closed.Load() {
		return 0, ErrClosed
	}
	capy := l.capacity()
	start, first := l.head, len(l.entries)
	var bytes uint64
	var err error
	for i := range ops {
		op := &ops[i]
		dcrc := dataCRC(op)
		hdr := appendEntryHeader(l.metaScratch[:0], op, dcrc)
		need := uint64(len(hdr) + len(op.Data))
		if need > capy-1 {
			// Wider than the whole region: flushing can never help.
			// Repair pushes carry full objects, so a region sized below
			// the object size would otherwise wedge the append path in
			// an endless flush-retry spin.
			err = ErrTooLarge
			break
		}
		// Keep one byte free so head==tail always means empty.
		if l.used+bytes+need > capy-1 {
			// This op and every later one wait for the caller's flush:
			// staging a later op that happens to fit would reorder them.
			l.stats.FullStalls.Add(int64(len(ops) - i))
			err = ErrFull
			break
		}
		pos := (start + bytes) % capy
		if err = l.writeCircularAt(hdr, pos); err == nil {
			err = l.writeCircularAt(op.Data, (pos+uint64(len(hdr)))%capy)
		}
		if err != nil {
			break
		}
		e := entryPool.Get().(*Entry)
		e.Op = *op
		e.LogPos = pos
		e.State = StateStaged
		e.DataCRC = dcrc
		l.entries = append(l.entries, e)
		bytes += need
	}
	added := l.entries[first:]
	if len(added) == 0 {
		return 0, err
	}
	head, used, lastSeq := l.head, l.used, l.lastSeq
	perr := l.persistRange(start, bytes)
	if perr == nil {
		l.head = (start + bytes) % capy
		l.used += bytes
		for _, e := range added {
			if e.Op.Seq > l.lastSeq {
				l.lastSeq = e.Op.Seq
			}
		}
		perr = l.persistHeader()
	}
	if perr != nil {
		// NVM failure: nothing advanced durably, so nothing is staged.
		l.head, l.used, l.lastSeq = head, used, lastSeq
		for i, e := range added {
			releaseEntry(e)
			added[i] = nil
		}
		l.entries = l.entries[:first]
		return 0, perr
	}
	for _, e := range added {
		l.stage(e)
	}
	l.stats.Appends.Add(int64(len(added)))
	l.stats.AppendedBytes.Add(int64(bytes))
	l.stats.Groups.Inc()
	l.stats.MaxGroup.SetMax(int64(len(added)))
	return len(added), err
}
