package oplog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"rebloc/internal/nvm"
	"rebloc/internal/wire"
)

// TestDecodeOpGarbageNeverPanics feeds random metadata to the entry
// decoder: every outcome must be a clean op or an error, never a panic
// (mirrors the wire-package decoder fuzzer from the messenger rework).
// Valid metadata with bytes appended or cut must be refused, not decoded
// into a neighbouring op.
func TestDecodeOpGarbageNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 20000; i++ {
		buf := make([]byte, rng.Intn(256))
		rng.Read(buf)
		_, _, _ = decodeOp(buf) // must not panic
	}
	op := writeOp("victim", 8192, []byte("payload"), 9)
	meta := appendEntryHeader(nil, &op, dataCRC(&op))[entryHeader:]
	got, dcrc, err := decodeOp(meta)
	if err != nil || dcrc != dataCRC(&op) || got.OID != op.OID || got.Offset != op.Offset || got.Seq != op.Seq || got.Data != nil {
		t.Fatalf("round trip: %+v crc %x err %v", got, dcrc, err)
	}
	if _, _, err := decodeOp(meta[:len(meta)-1]); err == nil {
		t.Fatal("truncated metadata decoded")
	}
	if _, _, err := decodeOp(append(append([]byte(nil), meta...), 0)); err == nil {
		t.Fatal("metadata with a trailing byte decoded")
	}
}

// testFrame returns op's full log frame: what commit writes in two
// parts, concatenated.
func testFrame(op wire.Op) []byte {
	return append(appendEntryHeader(nil, &op, dataCRC(&op)), op.Data...)
}

// TestReadEntryAtHostileFrames plants hand-crafted hostile frames in the
// log region — truncated payloads, corrupt CRCs, lengths that wrap the
// circular buffer or exceed it — and checks readEntryAt errors cleanly on
// every one.
func TestReadEntryAtHostileFrames(t *testing.T) {
	const regionSize = 64 << 10
	plant := func(t *testing.T, raw []byte, pos uint64) (*Log, error) {
		t.Helper()
		l, _, region := newTestLog(t, regionSize, 16)
		capy := l.capacity()
		for i, b := range raw {
			if _, err := region.WriteAt([]byte{b}, int64(headerBytes+(pos+uint64(i))%capy)); err != nil {
				t.Fatal(err)
			}
		}
		_, _, err := l.readEntryAt(pos)
		return l, err
	}
	op := writeOp("victim", 0, bytes.Repeat([]byte{5}, 256), 1)
	frame := testFrame(op)
	hdrLen := len(frame) - len(op.Data)
	// reseal recomputes hdrCRC after a test edited the length or metadata,
	// so the edit itself (not the CRC) is what readEntryAt must refuse.
	reseal := func(raw []byte, metaEnd int) {
		binary.LittleEndian.PutUint32(raw[4:], headerCRC(raw[:4], raw[entryHeader:metaEnd]))
	}

	t.Run("position beyond capacity", func(t *testing.T) {
		l, _, _ := newTestLog(t, regionSize, 16)
		if _, _, err := l.readEntryAt(l.capacity() + 8); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("zero length", func(t *testing.T) {
		raw := append([]byte(nil), frame...)
		binary.LittleEndian.PutUint32(raw[0:], 0)
		if _, err := plant(t, raw, 0); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("length exceeds capacity", func(t *testing.T) {
		raw := append([]byte(nil), frame...)
		binary.LittleEndian.PutUint32(raw[0:], uint32(regionSize))
		if _, err := plant(t, raw, 0); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("payload length exceeds frame length", func(t *testing.T) {
		raw := append([]byte(nil), frame...)
		binary.LittleEndian.PutUint32(raw[entryHeader:], uint32(len(frame)))
		if _, err := plant(t, raw, 0); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("corrupt header crc", func(t *testing.T) {
		raw := append([]byte(nil), frame...)
		raw[4] ^= 0xFF
		if _, err := plant(t, raw, 0); !errors.Is(err, errHeaderCRC) {
			t.Fatalf("err = %v, want header crc mismatch", err)
		}
	})
	t.Run("corrupt data crc is a header fault", func(t *testing.T) {
		// dataCRC sits under hdrCRC: a flipped bit in it must not be
		// mistaken for a rotted payload.
		raw := append([]byte(nil), frame...)
		raw[hdrLen-1] ^= 0x01
		if _, err := plant(t, raw, 0); !errors.Is(err, errHeaderCRC) {
			t.Fatalf("err = %v, want header crc mismatch", err)
		}
	})
	t.Run("corrupt payload", func(t *testing.T) {
		raw := append([]byte(nil), frame...)
		raw[hdrLen+17] ^= 0x01
		if _, err := plant(t, raw, 0); !errors.Is(err, errDataCRC) {
			t.Fatalf("err = %v, want data crc mismatch", err)
		}
	})
	t.Run("truncated payload reads as data crc mismatch", func(t *testing.T) {
		// The frame claims its full length but only half the payload was
		// written (torn write): the CRC over what the region holds differs.
		raw := append([]byte(nil), frame[:hdrLen+128]...)
		if _, err := plant(t, raw, 0); !errors.Is(err, errDataCRC) {
			t.Fatalf("err = %v, want data crc mismatch", err)
		}
	})
	t.Run("sealed metadata that is a truncated op", func(t *testing.T) {
		// Valid hdrCRC over metadata cut short (the payload length moved
		// up to swallow the cut): decodeOp must surface the short read.
		raw := append([]byte(nil), frame...)
		binary.LittleEndian.PutUint32(raw[entryHeader:], uint32(len(op.Data))+16)
		reseal(raw, hdrLen-16)
		if _, err := plant(t, raw, 0); err == nil || errors.Is(err, errHeaderCRC) {
			t.Fatalf("err = %v, want a decode error", err)
		}
	})
	t.Run("hostile frame wrapping the region end", func(t *testing.T) {
		// Plant a corrupt-CRC frame whose payload wraps the circular
		// boundary; the wrapped read path must error, not panic.
		raw := append([]byte(nil), frame...)
		raw[4] ^= 0x01
		if _, err := plant(t, raw, l2pos(regionSize, 100)); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("valid frame wrapping the region end decodes", func(t *testing.T) {
		pos := l2pos(regionSize, 100)
		l, err := plant(t, frame, pos)
		if err != nil {
			t.Fatalf("valid wrapped frame: %v", err)
		}
		e, next, err := l.readEntryAt(pos)
		if err != nil {
			t.Fatal(err)
		}
		if e.Op.OID.Name != "victim" || !bytes.Equal(e.Op.Data, op.Data) || e.DataCRC != dataCRC(&op) {
			t.Fatalf("decoded %+v", e.Op)
		}
		if want := (pos + uint64(len(frame))) % l.capacity(); next != want {
			t.Fatalf("next = %d, want %d", next, want)
		}
	})
}

// l2pos returns a frame position n bytes before the circular boundary of a
// region of the given size, so frames planted there wrap.
func l2pos(regionSize int64, n uint64) uint64 {
	return uint64(regionSize) - headerBytes - n
}

// TestRecoverRandomCorruptionNeverPanics builds a populated log, then
// repeatedly corrupts random persisted bytes (header and body) and runs
// Recover: every outcome must be a clean log or an error, never a panic.
func TestRecoverRandomCorruptionNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 200; round++ {
		bank := nvm.NewBank(1 << 20)
		region, err := bank.Carve("fuzz", 256<<10)
		if err != nil {
			t.Fatal(err)
		}
		l, err := New(1, region, 16)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 32; i++ {
			data := make([]byte, 64+rng.Intn(2048))
			rng.Read(data)
			if _, err := l.Append(writeOp("obj", uint64(rng.Intn(16))*4096, data, uint64(i+1))); err != nil {
				t.Fatal(err)
			}
		}
		// Flip 1-16 random persisted bytes anywhere in the region.
		for i := 0; i < 1+rng.Intn(16); i++ {
			off := int64(rng.Intn(int(region.Size())))
			var b [1]byte
			if _, err := region.ReadAt(b[:], off); err != nil {
				t.Fatal(err)
			}
			b[0] ^= byte(1 + rng.Intn(255))
			if err := region.WriteAndPersist(b[:], off); err != nil {
				t.Fatal(err)
			}
		}
		bank.Crash()
		rl, staged, err := Recover(1, region, 16) // must not panic
		if err == nil && rl != nil {
			// Whatever replayed must be internally consistent.
			if len(staged) != rl.Len() {
				t.Fatalf("round %d: staged %d entries but Len()=%d", round, len(staged), rl.Len())
			}
		}
	}
}
