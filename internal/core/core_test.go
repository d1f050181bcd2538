package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"rebloc/internal/client"
	"rebloc/internal/metrics"
	"rebloc/internal/osd"
	"rebloc/internal/wire"
)

func testCluster(t *testing.T, opts Options) *Cluster {
	t.Helper()
	if opts.DeviceBytes == 0 {
		opts.DeviceBytes = 512 << 20
	}
	c, err := New(opts)
	if err != nil {
		t.Fatalf("New cluster: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func oid(name string) wire.ObjectID { return wire.ObjectID{Pool: 1, Name: name} }

func TestWriteReadAcrossModes(t *testing.T) {
	modes := []osd.Mode{osd.ModeOriginal, osd.ModeCOSOnly, osd.ModePTC, osd.ModeProposed}
	for _, mode := range modes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			c := testCluster(t, Options{OSDs: 3, Mode: mode, Replicas: 2, PGs: 16})
			cl, err := c.Client()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20; i++ {
				name := fmt.Sprintf("obj-%d", i)
				data := bytes.Repeat([]byte{byte(i + 1)}, 4096)
				if _, err := cl.Write(oid(name), uint64(i%4)*4096, data); err != nil {
					t.Fatalf("Write %s: %v", name, err)
				}
			}
			for i := 0; i < 20; i++ {
				name := fmt.Sprintf("obj-%d", i)
				got, err := cl.Read(oid(name), uint64(i%4)*4096, 4096)
				if err != nil {
					t.Fatalf("Read %s: %v", name, err)
				}
				if got[0] != byte(i+1) || got[4095] != byte(i+1) {
					t.Fatalf("object %s corrupted (mode %s)", name, mode)
				}
			}
		})
	}
}

func TestReadYourWritesProposed(t *testing.T) {
	// Reads must see staged (not yet flushed) writes: the op-log index
	// cache path (paper R1).
	c := testCluster(t, Options{
		OSDs: 2, Mode: osd.ModeProposed, Replicas: 2, PGs: 8,
		FlushThreshold: 1 << 20, // effectively never flush by count
		FlushInterval:  time.Hour,
	})
	cl, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("immediately visible")
	if _, err := cl.Write(oid("ryw"), 100, data); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Read(oid("ryw"), 100, uint32(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read-your-writes broken: %q", got)
	}
	// Sub-range of the staged write.
	got, err = cl.Read(oid("ryw"), 112, 7)
	if err != nil || string(got) != "visible" {
		t.Fatalf("sub-range: %q %v", got, err)
	}
}

func TestReadForcesFlushWhenNotCovered(t *testing.T) {
	c := testCluster(t, Options{
		OSDs: 2, Mode: osd.ModeProposed, Replicas: 2, PGs: 8,
		FlushThreshold: 1 << 20,
		FlushInterval:  time.Hour,
	})
	cl, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Write(oid("r3"), 0, []byte("abcd")); err != nil {
		t.Fatal(err)
	}
	// Read larger than the staged entry: must flush and read the store
	// (paper R3), zero-filling past the write.
	got, err := cl.Read(oid("r3"), 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:4]) != "abcd" {
		t.Fatalf("R3 read = %q", got)
	}
	for _, b := range got[4:] {
		if b != 0 {
			t.Fatal("tail must be zero")
		}
	}
}

func TestVersionsIncrease(t *testing.T) {
	c := testCluster(t, Options{OSDs: 2, Mode: osd.ModeProposed, Replicas: 2, PGs: 8})
	cl, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	v1, err := cl.Write(oid("v"), 0, []byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	v2, err := cl.Write(oid("v"), 0, []byte("b"))
	if err != nil {
		t.Fatal(err)
	}
	if v2 <= v1 {
		t.Fatalf("versions not increasing: %d then %d", v1, v2)
	}
}

func TestDeleteObject(t *testing.T) {
	c := testCluster(t, Options{OSDs: 2, Mode: osd.ModeProposed, Replicas: 2, PGs: 8})
	cl, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Write(oid("gone"), 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := cl.Delete(oid("gone")); err != nil {
		t.Fatal(err)
	}
	if err := cl.FlushOSDs(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Read(oid("gone"), 0, 1); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("read after delete: %v", err)
	}
}

func TestFlushDurability(t *testing.T) {
	c := testCluster(t, Options{OSDs: 2, Mode: osd.ModeProposed, Replicas: 2, PGs: 8})
	cl, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{7}, 4096)
	if _, err := cl.Write(oid("durable"), 0, data); err != nil {
		t.Fatal(err)
	}
	if err := cl.FlushOSDs(); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Read(oid("durable"), 0, 4096)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("after flush: %v", err)
	}
}

// TestProposedMultiShard forces more top-half shards than the host has
// cores, so PGs spread across shard loops and client batches split across
// them (cross-shard ReplBatch routing, per-shard batched appends, zero-copy
// reads) regardless of the machine running the test. Mixed concurrent
// writers/readers/deleters then verify integrity end to end.
func TestProposedMultiShard(t *testing.T) {
	// 32 PGs need a larger NVM bank: each PG instance carves its own
	// oplog region (2 MiB floor) and the 64 MiB default bank can't hold a
	// full complement plus metadata.
	c := testCluster(t, Options{
		OSDs: 3, Mode: osd.ModeProposed, Replicas: 2, PGs: 32, Shards: 4,
		NVMBytes: 256 << 20,
	})
	const nClients = 4
	var wg sync.WaitGroup
	for ci := 0; ci < nClients; ci++ {
		cl, err := c.Client()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(ci int, cl *client.Client) {
			defer wg.Done()
			data := bytes.Repeat([]byte{byte(ci + 1)}, 1024)
			for i := 0; i < 40; i++ {
				// Many objects per client so writes land on PGs owned by
				// different shards.
				name := fmt.Sprintf("ms%d-o%d", ci, i%8)
				if _, err := cl.Write(oid(name), uint64(i%4)*1024, data); err != nil {
					t.Errorf("client %d write: %v", ci, err)
					return
				}
				// Read-your-writes through the zero-copy view path.
				got, err := cl.Read(oid(name), uint64(i%4)*1024, 1024)
				if err != nil {
					t.Errorf("client %d read: %v", ci, err)
					return
				}
				if !bytes.Equal(got, data) {
					t.Errorf("client %d read-your-writes mismatch on %s", ci, name)
					return
				}
			}
			// Delete one object and confirm the tombstone is visible.
			victim := fmt.Sprintf("ms%d-o0", ci)
			if err := cl.Delete(oid(victim)); err != nil {
				t.Errorf("client %d delete: %v", ci, err)
				return
			}
			if _, err := cl.Read(oid(victim), 0, 1024); err == nil {
				t.Errorf("client %d read after delete succeeded", ci)
				return
			}
		}(ci, cl)
	}
	wg.Wait()

	// Survivors must still read back correctly after the mixed workload.
	cl, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	for ci := 0; ci < nClients; ci++ {
		want := bytes.Repeat([]byte{byte(ci + 1)}, 1024)
		// Object o1 is only ever written at offset 1024 (i%8==1 implies
		// i%4==1 for the loop above).
		got, err := cl.Read(oid(fmt.Sprintf("ms%d-o1", ci)), 1024, 1024)
		if err != nil {
			t.Fatalf("final read: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("client %d data corrupted after workload", ci)
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	c := testCluster(t, Options{OSDs: 3, Mode: osd.ModeProposed, Replicas: 2, PGs: 16})
	const nClients = 4
	var wg sync.WaitGroup
	for ci := 0; ci < nClients; ci++ {
		cl, err := c.Client()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(ci int, cl *client.Client) {
			defer wg.Done()
			data := bytes.Repeat([]byte{byte(ci + 1)}, 2048)
			for i := 0; i < 30; i++ {
				name := fmt.Sprintf("c%d-o%d", ci, i%5)
				if _, err := cl.Write(oid(name), uint64(i%3)*2048, data); err != nil {
					t.Errorf("client %d write: %v", ci, err)
					return
				}
			}
			for i := 0; i < 5; i++ {
				name := fmt.Sprintf("c%d-o%d", ci, i)
				got, err := cl.Read(oid(name), 0, 2048)
				if err != nil {
					t.Errorf("client %d read: %v", ci, err)
					return
				}
				if got[0] != byte(ci+1) {
					t.Errorf("client %d data corrupted", ci)
					return
				}
			}
		}(ci, cl)
	}
	wg.Wait()
}

func TestTCPTransportCluster(t *testing.T) {
	c := testCluster(t, Options{OSDs: 2, Mode: osd.ModeProposed, Replicas: 2, PGs: 8, Transport: TransportTCP})
	cl, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{9}, 4096)
	if _, err := cl.Write(oid("tcp"), 0, data); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Read(oid("tcp"), 0, 4096)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("tcp roundtrip: %v", err)
	}
}

func TestFailoverAndRecovery(t *testing.T) {
	c := testCluster(t, Options{
		OSDs: 3, Mode: osd.ModeProposed, Replicas: 2, PGs: 16,
		HeartbeatTimeout: 600 * time.Millisecond,
	})
	cl, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	// Seed data and make it durable everywhere.
	for i := 0; i < 30; i++ {
		data := bytes.Repeat([]byte{byte(i + 1)}, 1024)
		if _, err := cl.Write(oid(fmt.Sprintf("f-%d", i)), 0, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.FlushOSDs(); err != nil {
		t.Fatal(err)
	}

	epochBefore := c.Map().Epoch
	c.KillOSD(2)
	if err := c.WaitEpochAtLeast(epochBefore+1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// Give remapped PGs a moment to backfill onto the survivors.
	time.Sleep(300 * time.Millisecond)

	// All data must still be readable, and writes must succeed (PGs that
	// lost a member remap to the two survivors).
	for i := 0; i < 30; i++ {
		got, err := cl.Read(oid(fmt.Sprintf("f-%d", i)), 0, 1024)
		if err != nil {
			t.Fatalf("read f-%d after failover: %v", i, err)
		}
		if got[0] != byte(i+1) {
			t.Fatalf("f-%d corrupted after failover", i)
		}
	}
	for i := 30; i < 40; i++ {
		data := bytes.Repeat([]byte{byte(i + 1)}, 1024)
		if _, err := cl.Write(oid(fmt.Sprintf("f-%d", i)), 0, data); err != nil {
			t.Fatalf("write f-%d after failover: %v", i, err)
		}
	}

	// Bring the node back: it re-boots, the map adds it, and newly
	// assigned PGs backfill from the survivors.
	if err := c.RestartOSD(2); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitEpochAtLeast(c.Map().Epoch+1, 5*time.Second); err == nil {
		_ = err
	}
	time.Sleep(500 * time.Millisecond)
	for i := 0; i < 40; i++ {
		got, err := cl.Read(oid(fmt.Sprintf("f-%d", i)), 0, 1024)
		if err != nil {
			t.Fatalf("read f-%d after rejoin: %v", i, err)
		}
		if got[0] != byte(i+1) {
			t.Fatalf("f-%d corrupted after rejoin", i)
		}
	}
}

func TestCrashRecoveryThroughNVM(t *testing.T) {
	// Staged writes live only in the NVM op log; after a crash+restart of
	// an OSD the log replays (REDO) and data survives.
	c := testCluster(t, Options{
		OSDs: 2, Mode: osd.ModeProposed, Replicas: 2, PGs: 8,
		NVMCrashSim:      true,
		FlushThreshold:   1 << 20, // keep writes staged
		FlushInterval:    time.Hour,
		HeartbeatTimeout: 600 * time.Millisecond,
	})
	cl, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x42}, 2048)
	for i := 0; i < 10; i++ {
		if _, err := cl.Write(oid(fmt.Sprintf("nv-%d", i)), 0, data); err != nil {
			t.Fatal(err)
		}
	}
	// Crash both OSDs without flushing; NVM keeps persisted log entries.
	epoch := c.Map().Epoch
	c.KillOSD(0)
	c.KillOSD(1)
	c.Bank(0).Crash()
	c.Bank(1).Crash()
	if err := c.WaitEpochAtLeast(epoch+1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartOSD(0); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartOSD(1); err != nil {
		t.Fatal(err)
	}
	if err := c.waitAllUp(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	cl2, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		got, err := cl2.Read(oid(fmt.Sprintf("nv-%d", i)), 0, 2048)
		if err != nil {
			t.Fatalf("read nv-%d after crash: %v", i, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("nv-%d lost staged data after crash", i)
		}
	}
}

func TestClusterUsageAccounting(t *testing.T) {
	c := testCluster(t, Options{OSDs: 2, Mode: osd.ModeProposed, Replicas: 2, PGs: 8})
	cl, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	c.ResetAccounting()
	for i := 0; i < 100; i++ {
		if _, err := cl.Write(oid(fmt.Sprintf("u-%d", i%10)), 0, bytes.Repeat([]byte{1}, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	u := c.Usage()
	if u.Total <= 0 {
		t.Fatal("no CPU accounted")
	}
	if u.ByCategory[metrics.CatPT] <= 0 {
		t.Fatal("proposed mode must account priority-thread CPU")
	}
}
