package oplog

import (
	"bytes"
	"errors"
	"testing"

	"rebloc/internal/nvm"
	"rebloc/internal/wire"
)

// appendAt starts an empty log whose head sits at pos, appends op there
// and returns the log, its bank and region, and the length of the frame's
// header part (everything before the payload). commit writes that
// part and the payload separately, so pos decides which of the two — and
// which field inside it — straddles the end of the region.
func appendAt(t *testing.T, regionSize int64, pos uint64, op wire.Op) (*Log, *nvm.Bank, *nvm.Region, uint64) {
	t.Helper()
	l, bank, region := newTestLog(t, regionSize, 16)
	l.head, l.tail = pos, pos
	if err := l.persistHeader(); err != nil {
		t.Fatal(err)
	}
	e, err := l.Append(op)
	if err != nil {
		t.Fatal(err)
	}
	if e.LogPos != pos {
		t.Fatalf("frame landed at %d, want %d", e.LogPos, pos)
	}
	return l, bank, region, uint64(len(appendEntryHeader(nil, &op, dataCRC(&op))))
}

// TestCrashRecoveryFrameAcrossWrap replays a frame from every position
// class around the end of the region: the length word, the header CRC, the
// metadata or the payload split by the wrap, and the header ending exactly
// at the boundary with the payload starting at offset zero.
func TestCrashRecoveryFrameAcrossWrap(t *testing.T) {
	const regionSize = 64 << 10
	op := writeOp("rbd_data.img.0000000000000007", 12288, bytes.Repeat([]byte{0xA5, 0x5A, 0x3C}, 1366), 41)
	hdrLen := uint64(len(appendEntryHeader(nil, &op, dataCRC(&op))))
	capy := uint64(regionSize - headerBytes)
	for _, tc := range []struct {
		name string
		back uint64 // frame starts this many bytes before the region end
	}{
		{"length word wraps", 2},
		{"header crc wraps", 6},
		{"payload length wraps", 10},
		{"object name wraps", 20},
		{"data crc wraps", hdrLen - 2},
		{"header ends at the boundary, payload starts at zero", hdrLen},
		{"payload wraps after one byte", hdrLen + 1},
		{"payload wraps before its last byte", hdrLen + uint64(len(op.Data)) - 1},
		{"frame ends at the boundary", hdrLen + uint64(len(op.Data))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pos := capy - tc.back
			_, bank, region, _ := appendAt(t, regionSize, pos, op)
			bank.Crash()
			l2, staged, err := Recover(1, region, 16)
			if err != nil {
				t.Fatal(err)
			}
			if len(staged) != 1 {
				t.Fatalf("recovered %d entries, want 1", len(staged))
			}
			e := staged[0]
			if e.Op.OID != op.OID || e.Op.Offset != op.Offset || e.Op.Length != op.Length ||
				e.Op.Seq != op.Seq || e.Op.Version != op.Version || e.Op.Kind != op.Kind {
				t.Fatalf("metadata mismatch: %+v", e.Op)
			}
			if !bytes.Equal(e.Op.Data, op.Data) || e.DataCRC != dataCRC(&op) {
				t.Fatal("payload mismatch")
			}
			if want := (pos + hdrLen + uint64(len(op.Data))) % capy; l2.head != want {
				t.Fatalf("head = %d, want %d", l2.head, want)
			}
			// The recovered log keeps appending behind the wrapped frame.
			if _, err := l2.Append(writeOp("next", 0, []byte("z"), 42)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCrashTornBetweenHeaderAndPayload models the two halves of one frame
// reaching the media separately. The group's range persist should make
// that impossible, so the log header already covers the frame: whichever
// half is missing, replay must refuse the frame (and name the right half),
// and salvage must cut the log there instead of serving it.
func TestCrashTornBetweenHeaderAndPayload(t *testing.T) {
	const regionSize = 64 << 10
	first := writeOp("kept", 0, bytes.Repeat([]byte{1}, 512), 1)
	torn := writeOp("torn", 4096, bytes.Repeat([]byte{2}, 4096), 2)

	build := func(t *testing.T, pos uint64) (*nvm.Bank, *nvm.Region, uint64, uint64) {
		l, bank, region, _ := appendAt(t, regionSize, pos, first)
		e, err := l.Append(torn)
		if err != nil {
			t.Fatal(err)
		}
		return bank, region, e.LogPos, uint64(len(appendEntryHeader(nil, &torn, dataCRC(&torn))))
	}
	// wipe zeroes n circular bytes at pos in both NVM views: the bytes a
	// write that never reached the media would have left behind.
	wipe := func(t *testing.T, region *nvm.Region, pos, n uint64) {
		capy := uint64(regionSize - headerBytes)
		for i := uint64(0); i < n; i++ {
			if err := region.WriteAndPersist([]byte{0}, int64(headerBytes+(pos+i)%capy)); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(t *testing.T, bank *nvm.Bank, region *nvm.Region, want error) {
		bank.Crash()
		if _, _, err := Recover(1, region, 16); err == nil || (want != nil && !errors.Is(err, want)) {
			t.Fatalf("Recover err = %v, want %v", err, want)
		}
		l, staged, salvaged, err := RecoverSalvage(1, region, 16)
		if err != nil {
			t.Fatal(err)
		}
		if !salvaged || len(staged) != 1 || staged[0].Op.OID.Name != "kept" {
			t.Fatalf("salvage kept %d entries (salvaged=%v), want the one intact entry", len(staged), salvaged)
		}
		if _, ok, _ := l.LookupRead(torn.OID, torn.Offset, torn.Length); ok {
			t.Fatal("torn entry served from the index")
		}
	}

	for _, where := range []struct {
		name string
		pos  uint64
	}{
		{"contiguous", 0},
		{"torn frame wraps", uint64(regionSize-headerBytes) - 2048},
	} {
		t.Run(where.name+"/payload never landed", func(t *testing.T) {
			bank, region, pos, hdrLen := build(t, where.pos)
			wipe(t, region, pos+hdrLen, uint64(len(torn.Data)))
			check(t, bank, region, errDataCRC)
		})
		t.Run(where.name+"/payload landed in part", func(t *testing.T) {
			bank, region, pos, hdrLen := build(t, where.pos)
			wipe(t, region, pos+hdrLen+1024, uint64(len(torn.Data))-1024)
			check(t, bank, region, errDataCRC)
		})
		t.Run(where.name+"/header never landed", func(t *testing.T) {
			bank, region, pos, hdrLen := build(t, where.pos)
			wipe(t, region, pos, hdrLen)
			check(t, bank, region, nil) // refused on its zero length
		})
		t.Run(where.name+"/header landed in part", func(t *testing.T) {
			bank, region, pos, hdrLen := build(t, where.pos)
			wipe(t, region, pos+entryHeader+4, hdrLen-entryHeader-4)
			check(t, bank, region, errHeaderCRC)
		})
	}
}

// TestBigAppendLeavesNoSizeMemory is the regression test for the
// jumbo-frame ratchet: one 1 MiB append (a repair push carries a whole
// object) used to raise the log's staging-frame size hint above
// wire.MaxPooledFrame for good, after which every 4 KiB append allocated
// and zeroed a fresh megabyte. The append path has no staging frame any
// more: after the big entry drains, small appends must neither allocate
// nor take a jumbo frame.
func TestBigAppendLeavesNoSizeMemory(t *testing.T) {
	l, _, _ := newTestLog(t, 4<<20, 1<<20)
	if _, err := l.Append(writeOp("whole-object", 0, make([]byte, 1<<20), 1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Complete(l.TakeBatch(0)); err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{7}, 4096)
	seq := uint64(1)
	small := func() {
		seq++
		if _, err := l.Append(writeOp("o", (seq%64)*4096, data, seq)); err != nil {
			t.Fatal(err)
		}
		if seq%32 == 0 {
			if err := l.Complete(l.TakeBatch(0)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 64; i++ {
		small() // warm the entry, waiter and stage pools
	}
	jumbos := wire.FramePoolStats().Jumbos
	if allocs := testing.AllocsPerRun(512, small); allocs != 0 {
		t.Errorf("4 KiB append after a 1 MiB append: %.2f allocs/op, want 0", allocs)
	}
	if got := wire.FramePoolStats().Jumbos; got != jumbos {
		t.Errorf("4 KiB appends took %d jumbo frames", got-jumbos)
	}
}
