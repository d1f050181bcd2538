// Package wire defines rebloc's binary wire protocol: the message types
// exchanged between clients, OSD daemons and the monitor, and a compact
// little-endian framing codec.
//
// Frame layout: [u32 payload length][u8 message type][payload bytes].
// Payloads are encoded field-by-field with Encoder/Decoder; all integers
// are fixed-width little-endian and byte strings are u32-length-prefixed.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrShortBuffer is returned when a decode runs past the payload end.
var ErrShortBuffer = errors.New("wire: short buffer")

// Encoder appends fields to a byte slice.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder writing into buf (may be nil).
func NewEncoder(buf []byte) *Encoder { return &Encoder{buf: buf[:0]} }

// Bytes returns the encoded payload.
func (e *Encoder) Bytes() []byte { return e.buf }

// U8 appends a byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// U16 appends a little-endian uint16.
func (e *Encoder) U16(v uint16) { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I64 appends a little-endian int64.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Bytes32 appends a u32 length prefix followed by b.
func (e *Encoder) Bytes32(b []byte) {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// Raw appends b with no length prefix. Scatter encoders (Reply.DataSegs)
// emit one U32 length up front and then splice raw segments and zero runs
// to form what a Bytes32 of the composed buffer would have produced.
func (e *Encoder) Raw(b []byte) { e.buf = append(e.buf, b...) }

// zeroBlock feeds Zeros: appending from a static block avoids both a
// per-call allocation and a byte-at-a-time loop.
var zeroBlock [4096]byte

// Zeros appends n zero bytes.
func (e *Encoder) Zeros(n int) {
	for n > 0 {
		c := n
		if c > len(zeroBlock) {
			c = len(zeroBlock)
		}
		e.buf = append(e.buf, zeroBlock[:c]...)
		n -= c
	}
}

// String32 appends a u32 length prefix followed by s.
func (e *Encoder) String32(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Decoder reads fields from a byte slice.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a decoder over buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Err returns the first decoding error encountered, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining reports how many bytes are left.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) need(n int) bool {
	if d.err != nil {
		return false
	}
	if d.off+n > len(d.buf) {
		d.err = ErrShortBuffer
		return false
	}
	return true
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	if !d.need(1) {
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

// U16 reads a little-endian uint16.
func (d *Decoder) U16() uint16 {
	if !d.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(d.buf[d.off:])
	d.off += 2
	return v
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// I64 reads a little-endian int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Bool reads one byte as a boolean.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// Bytes32 reads a u32-length-prefixed byte string. The returned slice is a
// copy, safe to retain after the frame buffer is reused.
func (d *Decoder) Bytes32() []byte {
	n := int(d.U32())
	if d.err != nil || !d.need(n) {
		return nil
	}
	// make immediately followed by copy from a plain variable compiles to
	// one allocate-and-copy that skips zeroing the bytes it overwrites; a
	// slice expression as the copy source defeats that.
	src := d.buf[d.off : d.off+n]
	out := make([]byte, n)
	copy(out, src)
	d.off += n
	return out
}

// Bytes32NoCopy reads a u32-length-prefixed byte string without copying.
// The slice aliases the frame buffer and must not outlive it.
func (d *Decoder) Bytes32NoCopy() []byte {
	n := int(d.U32())
	if d.err != nil || !d.need(n) {
		return nil
	}
	out := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	return out
}

// String32 reads a u32-length-prefixed string.
func (d *Decoder) String32() string {
	n := int(d.U32())
	if d.err != nil || !d.need(n) {
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

// Finish returns an error if decoding failed or bytes remain unread.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("wire: %d trailing bytes", len(d.buf)-d.off)
	}
	return nil
}
