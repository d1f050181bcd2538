package osd

import (
	"bytes"
	"testing"

	"rebloc/internal/crush"
	"rebloc/internal/device"
	"rebloc/internal/messenger"
	"rebloc/internal/nvm"
	"rebloc/internal/store"
	"rebloc/internal/wire"
)

// standaloneOSD builds a started proposed-mode OSD with a single-member
// map injected directly (no monitor).
func standaloneOSD(t *testing.T, tr messenger.Transport, addr string) *OSD {
	t.Helper()
	o, err := New(Config{
		ID:         0,
		Mode:       ModeProposed,
		Transport:  tr,
		ListenAddr: addr,
		Dev:        device.NewMem(512 << 20),
		Bank:       nvm.NewBank(64 << 20),
		Partitions: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { o.Close() })
	m := crush.NewMap(16, 1)
	m.OSDs[0] = crush.OSDInfo{ID: 0, Addr: addr, Up: true, Weight: 1}
	o.SetMap(m)
	return o
}

func TestServeBackfillPullListsObjects(t *testing.T) {
	tr := messenger.NewInProc()
	o := standaloneOSD(t, tr, "osd.bf")

	// Seed objects in one PG directly through the store.
	const pg = 3
	data := bytes.Repeat([]byte{0x5A}, 2048)
	for _, name := range []string{"a", "b", "c"} {
		txn := &store.Transaction{}
		txn.AddWrite(pg, wire.ObjectID{Pool: 1, Name: name}, 0, data)
		if err := o.Store().Submit(txn); err != nil {
			t.Fatal(err)
		}
	}

	conn, err := tr.Dial("osd.bf")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var objects []wire.BackfillObject
	cursor := ""
	for {
		if err := conn.Send(&wire.BackfillPull{ReqID: 1, PG: pg, Cursor: cursor, Max: 2}); err != nil {
			t.Fatal(err)
		}
		m, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		chunk, ok := m.(*wire.BackfillChunk)
		if !ok || chunk.Status != wire.StatusOK {
			t.Fatalf("reply = %+v", m)
		}
		objects = append(objects, chunk.Objects...)
		if chunk.Done {
			break
		}
		cursor = chunk.NextCursor
	}
	if len(objects) != 3 {
		t.Fatalf("backfill listed %d objects, want 3", len(objects))
	}
	for _, obj := range objects {
		if !bytes.Equal(obj.Data, data) {
			t.Fatalf("object %s data wrong", obj.OID)
		}
	}
}

func TestServeBackfillPullFlushesStagedFirst(t *testing.T) {
	tr := messenger.NewInProc()
	o := standaloneOSD(t, tr, "osd.bf2")

	// Stage a write in the op log only (no flush).
	const pg = 5
	pgs, err := o.pgStateFor(pg)
	if err != nil {
		t.Fatal(err)
	}
	op := wire.Op{
		Kind: wire.OpWrite,
		OID:  wire.ObjectID{Pool: 1, Name: "staged"},
		Seq:  pgs.nextSeq(),
		Data: []byte("staged-data"),
	}
	op.Version = op.Seq
	if _, err := o.stage(pgs, op); err != nil {
		t.Fatal(err)
	}

	conn, err := tr.Dial("osd.bf2")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(&wire.BackfillPull{ReqID: 1, PG: pg, Max: 16}); err != nil {
		t.Fatal(err)
	}
	m, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	chunk := m.(*wire.BackfillChunk)
	if len(chunk.Objects) != 1 || string(chunk.Objects[0].Data) != "staged-data" {
		t.Fatalf("staged data not flushed into backfill: %+v", chunk)
	}
}

func TestServeOplogPullReturnsStagedSuffix(t *testing.T) {
	tr := messenger.NewInProc()
	o := standaloneOSD(t, tr, "osd.op")

	const pg = 7
	pgs, err := o.pgStateFor(pg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		op := wire.Op{
			Kind: wire.OpWrite,
			OID:  wire.ObjectID{Pool: 1, Name: "o"},
			Seq:  pgs.nextSeq(),
			Data: []byte{byte(i)},
		}
		if _, err := o.stage(pgs, op); err != nil {
			t.Fatal(err)
		}
	}

	conn, err := tr.Dial("osd.op")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(&wire.OplogPull{ReqID: 9, PG: pg, FromSeq: 2}); err != nil {
		t.Fatal(err)
	}
	m, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	chunk, ok := m.(*wire.OplogChunk)
	if !ok || chunk.ReqID != 9 {
		t.Fatalf("reply = %+v", m)
	}
	if len(chunk.Ops) != 3 { // seqs 3,4,5
		t.Fatalf("pulled %d ops, want 3", len(chunk.Ops))
	}
	if chunk.Ops[0].Seq != 3 || chunk.Ops[2].Seq != 5 {
		t.Fatalf("wrong suffix: %+v", chunk.Ops)
	}
}

func TestPruneStaleObjects(t *testing.T) {
	tr := messenger.NewInProc()
	o := standaloneOSD(t, tr, "osd.prune")
	const pg = 2
	for _, name := range []string{"keep", "stale"} {
		txn := &store.Transaction{}
		txn.AddWrite(pg, wire.ObjectID{Pool: 1, Name: name}, 0, []byte("x"))
		if err := o.Store().Submit(txn); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[store.Key]bool{
		store.MakeKey(pg, wire.ObjectID{Pool: 1, Name: "keep"}): true,
	}
	o.pruneStaleObjects(pg, seen)
	if err := o.Store().Flush(); err != nil { // reclaim delayed deletes
		t.Fatal(err)
	}
	if _, err := o.Store().Stat(pg, wire.ObjectID{Pool: 1, Name: "keep"}); err != nil {
		t.Fatalf("kept object missing: %v", err)
	}
	if _, err := o.Store().Stat(pg, wire.ObjectID{Pool: 1, Name: "stale"}); err == nil {
		t.Fatal("stale object not pruned")
	}
}
