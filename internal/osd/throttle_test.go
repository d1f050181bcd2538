package osd

import (
	"bytes"
	"testing"
	"time"

	"rebloc/internal/crush"
	"rebloc/internal/device"
	"rebloc/internal/messenger"
	"rebloc/internal/nvm"
	"rebloc/internal/qos"
	"rebloc/internal/wire"
)

// TestRejectBandReleasesOnceDrained is the regression test for the
// occupancy ladder latching in StateReject on an empty log. Only appends
// used to sample occupancy and the reject band bounces appends, so a band
// entered while the drain was emptying the log had nobody left to leave
// it: the PG answered Again until the client's retries ran out. Both
// sampling points are checked: the drain reports the level it leaves
// behind, and the ingress re-samples before it bounces.
func TestRejectBandReleasesOnceDrained(t *testing.T) {
	tr := messenger.NewInProc()
	o, err := New(Config{
		ID: 0, Mode: ModeProposed, Transport: tr, ListenAddr: "osd.latch",
		Dev: device.NewMem(256 << 20), Bank: nvm.NewBank(16 << 20), Partitions: 2,
		// The test decides when the log drains: no count trigger, no timer.
		FlushThreshold: 1 << 20, FlushInterval: time.Hour, OplogRegionBytes: 256 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	m := crush.NewMap(16, 1)
	m.OSDs[0] = crush.OSDInfo{ID: 0, Addr: "osd.latch", Up: true, Weight: 1}
	o.SetMap(m)

	oid := wire.ObjectID{Pool: 1, Name: "hot"}
	pg := m.PGOf(oid)
	pgs, err := o.pgStateFor(pg)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := tr.Dial("osd.latch")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	data := bytes.Repeat([]byte{9}, 4096)
	reqID := uint64(0)
	clientWrite := func() wire.Status {
		t.Helper()
		reqID++
		if err := conn.Send(&wire.ClientWrite{ReqID: reqID, Epoch: m.Epoch, OID: oid, Offset: (reqID % 16) * 4096, Data: data}); err != nil {
			t.Fatal(err)
		}
		msg, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		r, ok := msg.(*wire.Reply)
		if !ok || r.ReqID != reqID {
			t.Fatalf("reply = %+v", msg)
		}
		return r.Status
	}

	// Fill to the reject band with the bottom half held off.
	pgs.flushMu.Lock()
	for pgs.throttle.State() != qos.StateReject {
		op := wire.Op{Kind: wire.OpWrite, OID: oid, Length: uint32(len(data)), Data: data, Seq: pgs.nextSeq()}
		op.Version = op.Seq
		if _, err := o.stage(pgs, op); err != nil {
			pgs.flushMu.Unlock()
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if st := clientWrite(); st != wire.StatusAgain {
			pgs.flushMu.Unlock()
			t.Fatalf("write into the reject band: %s, want Again", st)
		}
	}
	rejects := o.ThrottleRejects.Load()

	// Let the drain (already woken by the escalation) empty the log.
	pgs.flushMu.Unlock()
	for deadline := time.Now().Add(10 * time.Second); pgs.log.Len() > 0; {
		if time.Now().After(deadline) {
			t.Fatal("log never drained")
		}
		o.wakeNPT(pg)
		time.Sleep(time.Millisecond)
	}
	pgs.flushMu.Lock() // the drain's Complete and its sample are behind us
	pgs.flushMu.Unlock()
	if st := pgs.throttle.State(); st == qos.StateReject {
		t.Fatal("drain emptied the log and left the ladder in the reject band")
	}
	if st := clientWrite(); st != wire.StatusOK {
		t.Fatalf("first write after the drain: %s, want OK", st)
	}

	// The drain's sample can lose the race to an append's (taken before
	// the Complete, fed after it): the band is then entered on a log that
	// is already empty. The ingress must notice before bouncing anything.
	if err := o.flushPG(pgs); err != nil {
		t.Fatal(err)
	}
	pgs.throttle.Observe(1)
	if st := clientWrite(); st != wire.StatusOK {
		t.Fatalf("write into a stale reject band over an empty log: %s, want OK", st)
	}
	if got := o.ThrottleRejects.Load(); got != rejects {
		t.Fatalf("%d writes bounced after the log drained", got-rejects)
	}
}
