package osd

import (
	"bytes"
	"errors"
	"testing"

	"rebloc/internal/crush"
	"rebloc/internal/device"
	"rebloc/internal/messenger"
	"rebloc/internal/nvm"
	"rebloc/internal/oplog"
	"rebloc/internal/wire"
)

// TestKillMidDrainDoesNotDoubleComplete pins the crash-style teardown
// contract at the OSD level: a Kill landing between a drain's TakeBatch
// and its Complete must leave the NVM image untouched, so the restarted
// OSD's REDO replay still owns every staged entry. Before the fix, the
// in-flight Complete advanced the persisted tail and the entries were
// silently lost across the restart.
func TestKillMidDrainDoesNotDoubleComplete(t *testing.T) {
	tr := messenger.NewInProc()
	dev := device.NewMem(512 << 20)
	bank := nvm.NewBank(64 << 20)
	mk := func(addr string) *OSD {
		o, err := New(Config{
			ID:         0,
			Mode:       ModeProposed,
			Transport:  tr,
			ListenAddr: addr,
			Dev:        dev,
			Bank:       bank,
			Partitions: 2,
			// High threshold: nothing auto-flushes under this test's feet.
			FlushThreshold: 1 << 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := o.Start(); err != nil {
			t.Fatal(err)
		}
		m := crush.NewMap(16, 1)
		m.OSDs[0] = crush.OSDInfo{ID: 0, Addr: addr, Up: true, Weight: 1}
		o.SetMap(m)
		return o
	}

	o := mk("osd.teardown.a")
	const pg = 4
	pgs, err := o.pgStateFor(pg)
	if err != nil {
		t.Fatal(err)
	}
	oid := wire.ObjectID{Pool: 1, Name: "mid-drain"}
	payload := bytes.Repeat([]byte{0xD7}, 4096)
	for i := 0; i < 3; i++ {
		op := wire.Op{Kind: wire.OpWrite, OID: oid, Offset: uint64(i) * 4096, Data: payload, Seq: pgs.nextSeq()}
		op.Version = op.Seq
		if _, err := o.stage(pgs, op); err != nil {
			t.Fatal(err)
		}
	}

	// Simulate the bottom half mid-drain: batch taken, store submit done,
	// Complete not yet called — then the crash lands.
	batch := pgs.log.TakeBatch(0)
	if len(batch) != 3 {
		t.Fatalf("TakeBatch = %d entries, want 3", len(batch))
	}
	if err := o.applyBatchToStore(pg, batch); err != nil {
		t.Fatal(err)
	}
	o.Kill()
	if err := pgs.log.Complete(batch); !errors.Is(err, oplog.ErrClosed) {
		t.Fatalf("Complete after Kill = %v, want oplog.ErrClosed", err)
	}

	// Restart on the same device and bank: REDO must replay the staged
	// entries (idempotent over the partial store apply above).
	o2 := mk("osd.teardown.b")
	t.Cleanup(func() { o2.Close() })
	pgs2, err := o2.pgStateFor(pg)
	if err != nil {
		t.Fatal(err)
	}
	if pgs2.log.Len() != 0 {
		t.Fatalf("restart left %d entries staged, want 0 (REDO completes them)", pgs2.log.Len())
	}
	if got := pgs2.log.LastSeq(); got != 3 {
		t.Fatalf("recovered LastSeq = %d, want 3", got)
	}
	for i := 0; i < 3; i++ {
		data, err := o2.Store().Read(pg, oid, uint64(i)*4096, 4096)
		if err != nil {
			t.Fatalf("read block %d after restart: %v", i, err)
		}
		if !bytes.Equal(data, payload) {
			t.Fatalf("block %d content lost across kill-mid-drain restart", i)
		}
	}
}
