package oplog

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"rebloc/internal/nvm"
	"rebloc/internal/wire"
)

// TestAppendBatch covers the production append call: one commit per call,
// prefix-shaped failure, and the barriers a commit costs. Every case
// starts from an empty 64 KiB log whose head sits at pos, runs one
// AppendBatch and checks what it returned, which ops are readable, the
// counters and the persist barriers; after runs the case's follow-up.
func TestAppendBatch(t *testing.T) {
	const regionSize = 64 << 10
	capy := uint64(regionSize - headerBytes)
	// Ops cycle over three objects with same-length names, one 4 KiB block
	// each, so every frame has the same size and every op its own range.
	blockOp := func(i int) wire.Op {
		return writeOp(fmt.Sprintf("o%d", i%3), uint64(i/3)*4096, bytes.Repeat([]byte{byte(i + 1)}, 4096), uint64(i+1))
	}
	blocks := func(n int) []wire.Op {
		ops := make([]wire.Op, n)
		for i := range ops {
			ops[i] = blockOp(i)
		}
		return ops
	}
	frameLen := func(op wire.Op) uint64 {
		return uint64(len(appendEntryHeader(nil, &op, dataCRC(&op))) + len(op.Data))
	}
	frame := frameLen(blockOp(0))
	fit := int((capy - 1) / frame) // 4 KiB frames an empty log holds

	// A batch five blocks longer than the log, ending in a small write
	// into the first block's range that would still fit the space left: a
	// commit that carried on past the op that did not fit would stage it.
	overfull := blocks(fit + 5)
	overfull = append(overfull, writeOp("o0", 0, []byte("small enough to fit"), uint64(len(overfull)+1)))
	if (capy-1)-uint64(fit)*frame < frameLen(overfull[len(overfull)-1]) {
		t.Fatal("test geometry: the trailing small write no longer fits the space left")
	}
	// Same shape for ErrTooLarge: the op after the oversized one fits.
	tooLarge := blocks(4)
	tooLarge[2] = writeOp("huge", 0, make([]byte, capy), 3)

	for _, tc := range []struct {
		name     string
		pos      uint64
		prep     func(l *Log)
		ops      []wire.Op
		wantN    int
		wantErr  error
		persists int64 // NVM barriers the call may cost
		stalls   int64
		after    func(t *testing.T, l *Log, bank *nvm.Bank, ops []wire.Op)
	}{
		{name: "whole batch, one commit", ops: blocks(8), wantN: 8, persists: 2},
		{name: "empty batch", ops: nil, wantN: 0, persists: 0},
		{
			name: "ErrFull mid-batch", ops: overfull, wantN: fit, wantErr: ErrFull,
			persists: 2, stalls: int64(len(overfull) - fit),
			after: func(t *testing.T, l *Log, _ *nvm.Bank, ops []wire.Op) {
				// Drain, then retry exactly the tail: it must commit whole
				// and in the order it was handed in.
				if err := l.Complete(l.TakeBatch(0)); err != nil {
					t.Fatal(err)
				}
				tail := ops[fit:]
				if n, err := l.AppendBatch(tail); n != len(tail) || err != nil {
					t.Fatalf("retry of the tail = %d, %v, want %d, nil", n, err, len(tail))
				}
				small := tail[len(tail)-1]
				if got, ok, _ := l.LookupRead(small.OID, small.Offset, small.Length); !ok || !bytes.Equal(got, small.Data) {
					t.Fatalf("newest write of the retried tail reads %q, %v", got, ok)
				}
				for i, e := range l.TakeBatch(0) {
					if e.Op.Seq != tail[i].Seq {
						t.Fatalf("entry %d after the retry has seq %d, want %d", i, e.Op.Seq, tail[i].Seq)
					}
				}
			},
		},
		{name: "ErrTooLarge mid-batch", ops: tooLarge, wantN: 2, wantErr: ErrTooLarge, persists: 2},
		{
			// The third of four frames straddles the region end: the data
			// range takes two barriers, and a crash right after the call
			// must replay the whole batch.
			name: "batch wraps the region end, then crash", pos: capy - 2*frame - 100,
			ops: blocks(4), wantN: 4, persists: 3,
			after: func(t *testing.T, l *Log, bank *nvm.Bank, ops []wire.Op) {
				bank.Crash()
				_, staged, err := Recover(1, l.region, 16)
				if err != nil {
					t.Fatal(err) // either CRC of any frame failing lands here
				}
				if len(staged) != len(ops) {
					t.Fatalf("recovered %d entries, want %d", len(staged), len(ops))
				}
				for i, e := range staged {
					if e.Op.Seq != ops[i].Seq || e.Op.OID != ops[i].OID || !bytes.Equal(e.Op.Data, ops[i].Data) {
						t.Fatalf("recovered entry %d is not op %d of the batch", i, i)
					}
				}
			},
		},
		{name: "after Close", prep: (*Log).Close, ops: blocks(3), wantErr: ErrClosed},
		{name: "after Freeze", prep: (*Log).Freeze, ops: blocks(3), wantErr: ErrClosed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, bank, _ := newTestLog(t, regionSize, 16)
			l.head, l.tail = tc.pos, tc.pos
			if err := l.persistHeader(); err != nil {
				t.Fatal(err)
			}
			if tc.prep != nil {
				tc.prep(l)
			}
			before := l.Stats().Snapshot()
			persistsBefore, _ := bank.PersistStats()

			n, err := l.AppendBatch(tc.ops)
			if n != tc.wantN || !errors.Is(err, tc.wantErr) {
				t.Fatalf("AppendBatch = %d, %v, want %d, %v", n, err, tc.wantN, tc.wantErr)
			}
			if persists, _ := bank.PersistStats(); persists-persistsBefore != tc.persists {
				t.Fatalf("%d persist barriers, want %d", persists-persistsBefore, tc.persists)
			}
			// ops[:n] read back their own bytes; nothing of ops[n:] does.
			var wantBytes int64
			for i, op := range tc.ops {
				staged := false
				if v, ok, _ := l.LookupReadView(op.OID, op.Offset, op.Length); ok {
					got := make([]byte, op.Length)
					v.CopyTo(got)
					v.Release()
					staged = bytes.Equal(got, op.Data)
				}
				if staged != (i < n) {
					t.Fatalf("op %d of %d readable = %v with %d ops committed", i, len(tc.ops), staged, n)
				}
				if staged {
					wantBytes += int64(frameLen(op))
				}
			}
			s := l.Stats().Snapshot()
			var wantGroups, wantMax int64
			if n > 0 {
				wantGroups, wantMax = 1, int64(n)
			}
			if s.Appends-before.Appends != int64(n) || s.Groups-before.Groups != wantGroups ||
				s.MaxGroup != wantMax || s.AppendedBytes-before.AppendedBytes != wantBytes ||
				s.FullStalls-before.FullStalls != tc.stalls || l.Len() != n {
				t.Fatalf("with %d ops committed: %+v (before %+v), Len %d; want %d commit(s), %d bytes, %d stalls",
					n, s, before, l.Len(), wantGroups, wantBytes, tc.stalls)
			}
			if tc.after != nil {
				tc.after(t, l, bank, tc.ops)
			}
		})
	}
}
