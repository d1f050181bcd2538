package core

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"rebloc/internal/client"
	"rebloc/internal/wire"
)

// writePathAllocBudget is the ceiling on heap allocations per acknowledged
// 4 KiB write, counted over the whole process: client encode, primary and
// replica top halves, the replication round trip, and the drain into COS
// on both OSDs. Recorded at 24.1-24.8 allocs/op over six runs (44.7-45.3
// while placement was a straw draw per lookup and the client made a timer
// and a channel per op); the headroom covers scheduling-dependent
// batching, not new per-op garbage. A change that pushes past it should
// say what the allocation buys.
const writePathAllocBudget = 30

// TestWritePathBudget drives 4 KiB overwrites through an in-process
// 3-OSD R=2 proposed-mode cluster and holds the write path to its
// allocation budget and to zero jumbo frames: an ordinary write must never
// take wire.GetFrame's never-pooled branch (the failure the oplog's old
// staging-frame hint fell into for the life of a process).
func TestWritePathBudget(t *testing.T) {
	if testing.Short() || raceBuild {
		t.Skip("allocation budget holds for a plain build only; skipped under -short and -race")
	}
	c := testCluster(t, Options{OSDs: 3, Replicas: 2, PGs: 32, ObjectBytes: 1 << 20, NVMBytes: 128 << 20})
	const workers, objects, blocks = 4, 8, 64
	clients := make([]*client.Client, workers)
	for i := range clients {
		cl, err := c.Client()
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = cl
	}
	data := bytes.Repeat([]byte{0xC3}, 4096)
	var ids [workers][objects]wire.ObjectID
	for w := range ids {
		for o := range ids[w] {
			ids[w][o] = wire.ObjectID{Pool: 1, Name: fmt.Sprintf("budget.%d.%d", w, o)}
		}
	}
	run := func(perWorker int) {
		var wg sync.WaitGroup
		for w := range clients {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					if _, err := clients[w].Write(ids[w][i%objects], uint64(i*7%blocks)*4096, data); err != nil {
						t.Errorf("write: %v", err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}
	run(2000) // create the objects, warm every pool, connection and PG
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}

	const perWorker = 5000
	jumbos := wire.FramePoolStats().Jumbos
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(perWorker)
	runtime.ReadMemStats(&after)
	if t.Failed() {
		return
	}
	perOp := float64(after.Mallocs-before.Mallocs) / float64(workers*perWorker)
	t.Logf("%.1f allocs per 4 KiB R=2 write (budget %d)", perOp, writePathAllocBudget)
	if perOp > writePathAllocBudget {
		t.Errorf("write path allocates %.1f objects per op, budget is %d", perOp, writePathAllocBudget)
	}
	if got := wire.FramePoolStats().Jumbos - jumbos; got != 0 {
		t.Errorf("%d jumbo frame allocations during %d ordinary writes", got, workers*perWorker)
	}
}
