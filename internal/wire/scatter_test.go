package wire

import (
	"bytes"
	"testing"
)

// buildSegs turns a fuzz byte string into a sorted, non-overlapping
// scatter list: pairs of (gap, length) nibbles walk a cursor across the
// payload. Returns the segments and the composed flat payload.
func buildSegs(spec []byte) (segs []DataSeg, flat []byte) {
	pos := uint32(0)
	fill := byte(1)
	for i := 0; i+1 < len(spec) && len(segs) < 64; i += 2 {
		gap := uint32(spec[i] % 32)
		n := uint32(spec[i+1] % 64)
		pos += gap
		if n == 0 {
			continue
		}
		b := bytes.Repeat([]byte{fill}, int(n))
		fill++
		segs = append(segs, DataSeg{Off: pos, B: b})
		pos += n
	}
	total := pos
	if len(spec) > 0 {
		total += uint32(spec[len(spec)-1] % 16) // trailing zero run
	}
	flat = make([]byte, total)
	for _, s := range segs {
		copy(flat[s.Off:], s.B)
	}
	return segs, flat
}

// FuzzScatterReply checks the zero-copy reply invariant: encoding a Reply
// through the scatter path (DataSegs + zero-filled gaps) produces a frame
// byte-identical to the flat encoding of the composed payload, and the
// frame decodes back to that payload.
func FuzzScatterReply(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 8})
	f.Add([]byte{5, 0, 9})           // gap only, trailing zeros
	f.Add([]byte{0, 63, 31, 63, 15}) // big segments, big gap
	f.Add([]byte{1, 1, 1, 1, 1, 1})  // many tiny segments
	f.Fuzz(func(t *testing.T, spec []byte) {
		segs, flat := buildSegs(spec)
		if segs == nil {
			segs = []DataSeg{} // non-nil engages the scatter encoder
		}
		scatter := AppendFrame(nil, &Reply{
			ReqID: 42, Status: StatusOK, Version: 7,
			DataLen: uint32(len(flat)), DataSegs: segs,
		})
		plain := AppendFrame(nil, &Reply{
			ReqID: 42, Status: StatusOK, Version: 7, Data: flat,
		})
		if !bytes.Equal(scatter, plain) {
			t.Fatalf("scatter frame (%d bytes) differs from flat frame (%d bytes)", len(scatter), len(plain))
		}
		m, err := Unmarshal(scatter)
		if err != nil {
			t.Fatalf("decode scatter frame: %v", err)
		}
		rep, ok := m.(*Reply)
		if !ok {
			t.Fatalf("decoded %T, want *Reply", m)
		}
		if rep.ReqID != 42 || rep.Status != StatusOK || rep.Version != 7 {
			t.Fatalf("header fields corrupted: %+v", rep)
		}
		if !bytes.Equal(rep.Data, flat) {
			t.Fatalf("payload mismatch: got %d bytes, want %d", len(rep.Data), len(flat))
		}
		if rep.DataSegs != nil {
			t.Fatal("decode must always produce the flat form")
		}
	})
}

// TestScatterReplyEncodeZeroAlloc: encoding a pooled-frame reply from
// scatter segments must not allocate — the read fast path budget is 0
// allocs/op end to end.
func TestScatterReplyEncodeZeroAlloc(t *testing.T) {
	payload := bytes.Repeat([]byte{0xCD}, 4096)
	segs := []DataSeg{{Off: 0, B: payload}}
	rep := &Reply{ReqID: 1, Status: StatusOK, DataLen: 4096, DataSegs: segs}
	// Warm the frame pool at this size class.
	for i := 0; i < 8; i++ {
		f := GetFrame(4200)
		f.B = AppendFrame(f.B, rep)
		PutFrame(f)
	}
	allocs := testing.AllocsPerRun(200, func() {
		f := GetFrame(4200)
		f.B = AppendFrame(f.B, rep)
		PutFrame(f)
	})
	if allocs != 0 {
		t.Fatalf("scatter encode allocates %.1f objects/op, want 0", allocs)
	}
}
