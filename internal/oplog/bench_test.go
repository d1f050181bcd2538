package oplog

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"rebloc/internal/nvm"
	"rebloc/internal/wire"
)

// benchLog builds a log over a crash-simulating bank so Persist carries a
// realistic cost (the durable copy, standing in for CLWB+fence latency).
func benchLog(b *testing.B, regionBytes int64) (*Log, *nvm.Bank) {
	b.Helper()
	bank := nvm.NewBank(regionBytes + 4096)
	region, err := bank.Carve("bench", regionBytes)
	if err != nil {
		b.Fatal(err)
	}
	l, err := New(1, region, 1<<30)
	if err != nil {
		b.Fatal(err)
	}
	return l, bank
}

// BenchmarkOplogAppend measures the top-half append path: 4 KiB ops, the
// hot path of every proposed-mode write. serial is one op per commit (two
// persists/op, the latency floor); batch8 is one AppendBatch of eight, the
// shape a shard burst hands the log (one commit per call: 0.25 persists/op).
// Both must stay at 0 allocs/op. A full log is drained in place, as the
// OSD's forced flush does, and the uncommitted tail retried.
func BenchmarkOplogAppend(b *testing.B) {
	data := bytes.Repeat([]byte{0xAB}, 4096)
	run := func(b *testing.B, batch int) {
		l, bank := benchLog(b, 64<<20)
		ops := make([]wire.Op, batch)
		b.ReportAllocs()
		b.ResetTimer()
		startPersists, _ := bank.PersistStats()
		for i := 0; i < b.N; i += batch {
			for k := range ops {
				ops[k] = writeOp("o", uint64(k)*4096, data, uint64(i+k+1))
			}
			for todo := ops; len(todo) > 0; {
				n, err := l.AppendBatch(todo)
				todo = todo[n:]
				if errors.Is(err, ErrFull) {
					err = l.Complete(l.TakeBatch(0))
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		endPersists, _ := bank.PersistStats()
		s := l.Stats().Snapshot()
		b.ReportMetric(float64(endPersists-startPersists)/float64(s.Appends), "persists/op")
		b.ReportMetric(float64(s.Appends)/float64(s.Groups), "ops/commit")
	}
	b.Run("serial", func(b *testing.B) { run(b, 1) })
	b.Run("batch8", func(b *testing.B) { run(b, 8) })
}

// BenchmarkOplogLookup measures the read-your-writes path: the index must
// answer point reads over staged extents without per-byte composition.
func BenchmarkOplogLookup(b *testing.B) {
	l, _ := benchLog(b, 16<<20)
	data := bytes.Repeat([]byte{7}, 4096)
	const objs = 64
	for i := 0; i < objs*4; i++ {
		name := fmt.Sprintf("o%d", i%objs)
		if _, err := l.Append(writeOp(name, uint64(i/objs)*4096, data, uint64(i+1))); err != nil {
			b.Fatal(err)
		}
	}
	oid := wire.ObjectID{Pool: 1, Name: "o7"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, _ := l.LookupRead(oid, uint64(i%4)*4096, 4096); !ok {
			b.Fatal("staged read missed")
		}
	}
}

// BenchmarkFlushCoalesced measures the bottom half on an overwrite-heavy
// batch: 16 staged overwrites per hot block. The coalescer must emit far
// fewer store ops than it consumed entries (storeops/entry << 1).
func BenchmarkFlushCoalesced(b *testing.B) {
	data := bytes.Repeat([]byte{3}, 4096)
	l, _ := benchLog(b, 32<<20)
	const hotBlocks, overwrites = 8, 16
	var seq uint64
	for w := 0; w < overwrites; w++ {
		for blk := 0; blk < hotBlocks; blk++ {
			seq++
			if _, err := l.Append(writeOp("hot", uint64(blk)*4096, data, seq)); err != nil {
				b.Fatal(err)
			}
		}
	}
	batch := l.TakeBatch(0) // coalescing does not consume entries: reuse the batch
	var c Coalescer
	var entries, storeOps int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Reset()
		for _, e := range batch {
			c.Add(e)
		}
		ops := c.Emit()
		entries += int64(len(batch))
		storeOps += int64(len(ops))
	}
	b.StopTimer()
	if storeOps >= entries {
		b.Fatalf("coalescer did not merge: %d store ops from %d entries", storeOps, entries)
	}
	b.ReportMetric(float64(storeOps)/float64(entries), "storeops/entry")
}
