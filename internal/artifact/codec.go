package artifact

// The shared container format of every persisted artifact. Each codec
// (hwmodel.Model, platform.Spec, pace's cost kernels) writes its payload through an
// Encoder and reads it back through a Decoder, which gives all of them the
// same self-describing envelope:
//
//	offset 0   magic   [8]byte  codec identity ("PACEHWM\x00", ...)
//	offset 8   version uint16   codec version, little-endian
//	offset 10  length  uint64   payload byte count, little-endian
//	offset 18  payload length bytes
//	trailer    sum     uint64   FNV-1a over everything before it
//
// A Decoder verifies the whole envelope up front — magic, version, length,
// checksum — before handing out a single payload byte, so a truncated or
// corrupted artifact fails with ErrChecksum (or ErrTruncated/ErrFormat)
// and can never partially load, and an artifact written by a newer codec
// fails with ErrVersionMismatch instead of being misparsed.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Sentinel decode errors; callers match them with errors.Is.
var (
	// ErrFormat marks an artifact whose magic does not identify the
	// expected codec (or that is too short to hold the envelope).
	ErrFormat = errors.New("artifact: not a recognised artifact")
	// ErrVersionMismatch marks an artifact written by a different codec
	// version; readers refuse rather than guess.
	ErrVersionMismatch = errors.New("artifact: codec version mismatch")
	// ErrChecksum marks an artifact whose trailer checksum does not match
	// its contents — truncation or corruption.
	ErrChecksum = errors.New("artifact: checksum mismatch")
	// ErrTruncated marks a payload that ended before the codec finished
	// reading the fields its header promised.
	ErrTruncated = errors.New("artifact: truncated payload")
)

const (
	magicLen  = 8
	headerLen = magicLen + 2 + 8 // magic + version + payload length
)

// Encoder builds one artifact: fixed-width little-endian primitives inside
// the checksummed container. The zero value is not usable; call NewEncoder.
type Encoder struct {
	buf []byte
}

// NewEncoder starts an artifact with the codec's magic (exactly 8 bytes)
// and version.
func NewEncoder(magic string, version uint16) *Encoder {
	if len(magic) != magicLen {
		panic(fmt.Sprintf("artifact: magic %q must be %d bytes", magic, magicLen))
	}
	e := &Encoder{buf: make([]byte, 0, 256)}
	e.buf = append(e.buf, magic...)
	e.buf = binary.LittleEndian.AppendUint16(e.buf, version)
	e.buf = binary.LittleEndian.AppendUint64(e.buf, 0) // payload length, patched by Finish
	return e
}

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I32 appends a little-endian int32 (two's complement).
func (e *Encoder) I32(v int32) { e.U32(uint32(v)) }

// I64 appends a little-endian int64 (two's complement).
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// F64 appends the IEEE-754 bits of a float64.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bytes appends a length-prefixed byte string.
func (e *Encoder) Bytes(v []byte) {
	e.U32(uint32(len(v)))
	e.buf = append(e.buf, v...)
}

// String appends a length-prefixed string.
func (e *Encoder) String(v string) {
	e.U32(uint32(len(v)))
	e.buf = append(e.buf, v...)
}

// Finish patches the payload length into the header, appends the FNV-1a
// checksum trailer and returns the complete artifact bytes. The encoding
// is deterministic: equal field sequences produce identical bytes.
func (e *Encoder) Finish() []byte {
	binary.LittleEndian.PutUint64(e.buf[magicLen+2:], uint64(len(e.buf)-headerLen))
	return binary.LittleEndian.AppendUint64(e.buf, fnv1a(e.buf))
}

// Decoder reads one artifact back. Construction verifies the full
// envelope; field reads then only need bounds checks, surfaced through the
// sticky error the final Close returns.
type Decoder struct {
	payload []byte
	off     int
	err     error
}

// NewDecoder verifies an artifact's magic, version and checksum and
// positions a Decoder at the start of its payload.
func NewDecoder(data []byte, magic string, version uint16) (*Decoder, error) {
	if len(magic) != magicLen {
		panic(fmt.Sprintf("artifact: magic %q must be %d bytes", magic, magicLen))
	}
	if len(data) < headerLen+8 || string(data[:magicLen]) != magic {
		return nil, fmt.Errorf("%w (want magic %q)", ErrFormat, magic)
	}
	body, trailer := data[:len(data)-8], data[len(data)-8:]
	if sum := binary.LittleEndian.Uint64(trailer); sum != fnv1a(body) {
		return nil, fmt.Errorf("%w (stored %016x, computed %016x)",
			ErrChecksum, binary.LittleEndian.Uint64(trailer), fnv1a(body))
	}
	v := binary.LittleEndian.Uint16(data[magicLen:])
	if v != version {
		return nil, fmt.Errorf("%w: artifact has version %d, codec reads version %d", ErrVersionMismatch, v, version)
	}
	if n := binary.LittleEndian.Uint64(data[magicLen+2:]); n != uint64(len(body)-headerLen) {
		return nil, fmt.Errorf("%w (header promises %d payload bytes, have %d)",
			ErrChecksum, n, len(body)-headerLen)
	}
	return &Decoder{payload: body[headerLen:]}, nil
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.payload) || d.off+n < d.off {
		d.err = ErrTruncated
		return nil
	}
	b := d.payload[d.off : d.off+n]
	d.off += n
	return b
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I32 reads a little-endian int32.
func (d *Decoder) I32() int32 { return int32(d.U32()) }

// I64 reads a little-endian int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// F64 reads a float64 from its IEEE-754 bits.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Len reads a length prefix, additionally refusing lengths that cannot fit
// in the remaining payload — a cheap structural check that turns a
// corrupted count into ErrTruncated instead of a huge allocation.
func (d *Decoder) Len() int {
	n := int(d.U32())
	if d.err == nil && n > len(d.payload)-d.off {
		d.err = ErrTruncated
		return 0
	}
	return n
}

// Bytes reads a length-prefixed byte string (a copy).
func (d *Decoder) Bytes() []byte {
	n := d.Len()
	b := d.take(n)
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.Len()
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// Close verifies the payload was consumed exactly: leftover bytes mean the
// artifact holds more fields than the codec read, which is the same
// refuse-don't-guess condition as a version mismatch.
func (d *Decoder) Close() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.payload) {
		return fmt.Errorf("%w: %d trailing payload bytes", ErrFormat, len(d.payload)-d.off)
	}
	return nil
}

// fnv1a is the 64-bit FNV-1a hash used for the checksum trailer.
func fnv1a(data []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range data {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}
