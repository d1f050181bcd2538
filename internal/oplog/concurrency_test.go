package oplog

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"rebloc/internal/nvm"
	"rebloc/internal/wire"
)

// TestConcurrentAppendAndDrain models the production interaction: a
// priority thread appends while a non-priority thread drains, under the
// race detector. Every appended op must be drained exactly once, in
// per-object order.
func TestConcurrentAppendAndDrain(t *testing.T) {
	bank := nvm.NewBank(4<<20, nvm.WithCrashSim(false))
	region, err := bank.Carve("log", 2<<20)
	if err != nil {
		t.Fatal(err)
	}
	l, err := New(1, region, 8)
	if err != nil {
		t.Fatal(err)
	}

	const total = 2000
	var appended atomic.Int64
	var drained atomic.Int64
	lastSeq := map[string]uint64{}
	done := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // drainer (non-priority thread)
		defer wg.Done()
		for {
			batch := l.TakeBatch(0)
			for _, e := range batch {
				name := e.Op.OID.Name
				if e.Op.Seq <= lastSeq[name] {
					t.Errorf("out-of-order drain for %s: %d after %d", name, e.Op.Seq, lastSeq[name])
					return
				}
				lastSeq[name] = e.Op.Seq
			}
			if err := l.Complete(batch); err != nil {
				t.Error(err)
				return
			}
			drained.Add(int64(len(batch)))
			select {
			case <-done:
				if l.Len() == 0 {
					return
				}
			default:
			}
		}
	}()

	for i := 0; i < total; i++ {
		op := wire.Op{
			Kind: wire.OpWrite,
			OID:  wire.ObjectID{Pool: 1, Name: fmt.Sprintf("obj%d", i%7)},
			Seq:  uint64(i + 1),
			Data: []byte("payload"),
		}
		for {
			if _, err := l.Append(op); err == nil {
				break
			} else if !errors.Is(err, ErrFull) {
				t.Fatal(err)
			}
			// Full: the drainer will catch up.
		}
		appended.Add(1)
	}
	close(done)
	wg.Wait()
	if drained.Load() != appended.Load() {
		t.Fatalf("drained %d of %d appended", drained.Load(), appended.Load())
	}
}

// TestConcurrentAppendersConserve drives one log from eight appenders at
// once (one object each), a drainer and a zero-copy reader, under the race
// detector. Production has one appender per PG, but concurrent callers
// stay legal: they serialise on the log lock, every append is drained
// exactly once, and each object's writes drain in the order they went in.
func TestConcurrentAppendersConserve(t *testing.T) {
	bank := nvm.NewBank(8<<20, nvm.WithCrashSim(false))
	region, err := bank.Carve("log", 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	l, err := New(1, region, 16)
	if err != nil {
		t.Fatal(err)
	}

	const appenders, perAppender = 8, 150
	var appended, drained atomic.Int64
	stop := make(chan struct{})
	var wg, readers sync.WaitGroup

	wg.Add(1)
	go func() { // drainer (non-priority thread)
		defer wg.Done()
		lastSeq := map[string]uint64{}
		for {
			batch := l.TakeBatch(0)
			for _, e := range batch {
				name := e.Op.OID.Name
				if e.Op.Seq <= lastSeq[name] {
					t.Errorf("out-of-order drain for %s: %d after %d", name, e.Op.Seq, lastSeq[name])
					return
				}
				lastSeq[name] = e.Op.Seq
			}
			if err := l.Complete(batch); err != nil {
				t.Error(err)
				return
			}
			drained.Add(int64(len(batch)))
			select {
			case <-stop:
				if l.Len() == 0 {
					return
				}
			default:
			}
		}
	}()
	readers.Add(1)
	go func() { // read-your-writes path (zero-copy views, pinned)
		defer readers.Done()
		oid := wire.ObjectID{Pool: 1, Name: "w0"}
		buf := make([]byte, 8)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if v, ok, notFound := l.LookupReadView(oid, 0, 8); ok && !notFound {
				for i := range buf {
					buf[i] = 0
				}
				v.CopyTo(buf)
				v.Release()
				if string(buf) != "conserve" {
					t.Errorf("view read %q, want %q", buf, "conserve")
					return
				}
			}
		}
	}()

	var seq atomic.Uint64
	var appendWG sync.WaitGroup
	for g := 0; g < appenders; g++ {
		appendWG.Add(1)
		go func(g int) {
			defer appendWG.Done()
			name := fmt.Sprintf("w%d", g)
			for i := 0; i < perAppender; i++ {
				op := wire.Op{Kind: wire.OpWrite, OID: wire.ObjectID{Pool: 1, Name: name}, Seq: seq.Add(1), Data: []byte("conserve")}
				for {
					if _, err := l.Append(op); err == nil {
						break
					} else if !errors.Is(err, ErrFull) {
						t.Error(err)
						return
					}
					// Full: the drainer will catch up.
				}
				appended.Add(1)
			}
		}(g)
	}
	appendWG.Wait()
	close(stop)
	wg.Wait()
	readers.Wait()

	if appended.Load() != appenders*perAppender {
		t.Fatalf("appended %d of %d", appended.Load(), appenders*perAppender)
	}
	if s := l.Stats().Snapshot(); s.Appends != appended.Load() || drained.Load() != appended.Load() || s.Flushed != appended.Load() {
		t.Fatalf("appended %d, log counted %d appends and %d flushed, drainer saw %d",
			appended.Load(), s.Appends, s.Flushed, drained.Load())
	}
}

// TestConcurrentReadersAndWriter exercises LookupRead/HasStaged against a
// concurrent appender+drainer under the race detector.
func TestConcurrentReadersAndWriter(t *testing.T) {
	bank := nvm.NewBank(4<<20, nvm.WithCrashSim(false))
	region, err := bank.Carve("log", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	l, err := New(1, region, 16)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			oid := wire.ObjectID{Pool: 1, Name: "hot"}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if data, ok, notFound := l.LookupRead(oid, 0, 4); ok && !notFound && len(data) != 4 {
					t.Error("short read from log")
					return
				}
				l.HasStaged(oid)
			}
		}()
	}
	for i := 0; i < 500; i++ {
		op := wire.Op{Kind: wire.OpWrite, OID: wire.ObjectID{Pool: 1, Name: "hot"}, Seq: uint64(i + 1), Data: []byte("abcd")}
		if _, err := l.Append(op); err != nil {
			if errors.Is(err, ErrFull) {
				if err := l.Complete(l.TakeBatch(0)); err != nil {
					t.Fatal(err)
				}
				continue
			}
			t.Fatal(err)
		}
		if i%50 == 49 {
			if err := l.Complete(l.TakeBatch(0)); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
}
