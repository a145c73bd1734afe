// Package snap is the low-level substrate of the on-disk snapshot
// format: a fixed header (magic, version, flags), length-framed
// sections with CRC32 checksums, and a fast little-endian binary
// codec for the bulk payloads (integer postings, float vectors,
// string tables) that gob is too slow for.
//
// Layout of a snapshot stream:
//
//	header   magic u32 | version u16 | flags u16
//	section  id u16 | payload length u64 | payload | crc32(id|len|payload) u32
//	...      (sections in a fixed, format-defined order)
//
// Corruption contract: every structural defect — truncated stream,
// wrong magic, unknown version, mismatched section id, checksum
// failure, a decoder running past the payload, or payload bytes left
// unconsumed after decoding — surfaces as an error satisfying
// errors.Is(err, ErrCorrupt). Callers alias ErrCorrupt for their own
// exported sentinel (e.g. core.ErrCorruptSnapshot).
package snap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// ErrCorrupt marks a snapshot whose bytes are structurally invalid:
// truncated, checksum-mismatched, or carrying trailing garbage.
var ErrCorrupt = errors.New("snap: corrupt snapshot")

// maxSectionBytes bounds a single section payload. It exists purely
// so a corrupt length field cannot drive a multi-gigabyte allocation
// before the checksum gets a chance to reject the bytes.
const maxSectionBytes = 1 << 34 // 16 GiB

// --- header ---

// WriteHeader writes the fixed snapshot header.
func WriteHeader(w io.Writer, magic uint32, version, flags uint16) error {
	var h [8]byte
	binary.LittleEndian.PutUint32(h[0:], magic)
	binary.LittleEndian.PutUint16(h[4:], version)
	binary.LittleEndian.PutUint16(h[6:], flags)
	_, err := w.Write(h[:])
	return err
}

// ReadHeader reads and validates the header's magic, returning the
// version and flags for the caller to range-check.
func ReadHeader(r io.Reader, magic uint32) (version, flags uint16, err error) {
	var h [8]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return 0, 0, fmt.Errorf("%w: short header: %v", ErrCorrupt, err)
	}
	if got := binary.LittleEndian.Uint32(h[0:]); got != magic {
		return 0, 0, fmt.Errorf("%w: bad magic %#x (want %#x)", ErrCorrupt, got, magic)
	}
	return binary.LittleEndian.Uint16(h[4:]), binary.LittleEndian.Uint16(h[6:]), nil
}

// --- sections ---

// Writer frames encoded sections onto an io.Writer. The payload
// buffer is reused across sections.
type Writer struct {
	w   io.Writer
	buf []byte
	n   int64
}

// NewWriter returns a section writer over w. The caller writes the
// header first (WriteHeader), then sections in order.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Written reports the total bytes emitted through Section calls
// (frame headers, payloads, and checksums). It does not include the
// snapshot header, which the caller writes directly.
func (sw *Writer) Written() int64 { return sw.n }

// Section encodes one section with encode and writes it framed:
// id, payload length, payload, CRC32 over all of the former.
func (sw *Writer) Section(id uint16, encode func(*Encoder)) error {
	e := Encoder{buf: sw.buf[:0]}
	encode(&e)
	sw.buf = e.buf // keep the grown buffer for the next section

	var head [10]byte
	binary.LittleEndian.PutUint16(head[0:], id)
	binary.LittleEndian.PutUint64(head[2:], uint64(len(e.buf)))
	crc := crc32.NewIEEE()
	crc.Write(head[:])
	crc.Write(e.buf)
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc.Sum32())

	if _, err := sw.w.Write(head[:]); err != nil {
		return err
	}
	if _, err := sw.w.Write(e.buf); err != nil {
		return err
	}
	if _, err := sw.w.Write(sum[:]); err != nil {
		return err
	}
	sw.n += int64(len(head)) + int64(len(e.buf)) + int64(len(sum))
	return nil
}

// Reader reads framed sections back. Sections must be requested in
// exactly the order they were written; any deviation is corruption.
type Reader struct {
	r   io.Reader
	buf []byte
	n   int64
}

// NewReader returns a section reader over r, to be used after the
// header has been read (ReadHeader).
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// Consumed reports the total bytes read through Section and Payload
// calls (frame headers, payloads, and checksums). It does not include
// the snapshot header, which the caller reads directly.
func (sr *Reader) Consumed() int64 { return sr.n }

// Section reads the next section, verifies its id and checksum, runs
// decode over the payload, and requires the decoder to consume the
// payload exactly — short reads, checksum mismatches, and leftover
// bytes all yield ErrCorrupt.
func (sr *Reader) Section(id uint16, decode func(*Decoder) error) error {
	var head [10]byte
	if _, err := io.ReadFull(sr.r, head[:]); err != nil {
		return fmt.Errorf("%w: section %d: short frame header: %v", ErrCorrupt, id, err)
	}
	gotID := binary.LittleEndian.Uint16(head[0:])
	if gotID != id {
		return fmt.Errorf("%w: section id %d where %d expected", ErrCorrupt, gotID, id)
	}
	n := binary.LittleEndian.Uint64(head[2:])
	if n > maxSectionBytes {
		return fmt.Errorf("%w: section %d: implausible length %d", ErrCorrupt, id, n)
	}
	if uint64(cap(sr.buf)) < n {
		sr.buf = make([]byte, n)
	}
	payload := sr.buf[:n]
	if _, err := io.ReadFull(sr.r, payload); err != nil {
		return fmt.Errorf("%w: section %d: short payload: %v", ErrCorrupt, id, err)
	}
	var sum [4]byte
	if _, err := io.ReadFull(sr.r, sum[:]); err != nil {
		return fmt.Errorf("%w: section %d: short checksum: %v", ErrCorrupt, id, err)
	}
	crc := crc32.NewIEEE()
	crc.Write(head[:])
	crc.Write(payload)
	if got := binary.LittleEndian.Uint32(sum[:]); got != crc.Sum32() {
		return fmt.Errorf("%w: section %d: checksum mismatch", ErrCorrupt, id)
	}

	sr.n += int64(len(head)) + int64(n) + int64(len(sum))

	d := Decoder{buf: payload}
	if err := decode(&d); err != nil {
		return err
	}
	if d.err != nil {
		return fmt.Errorf("section %d: %w", id, d.err)
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: section %d: %d bytes left unconsumed", ErrCorrupt, id, len(d.buf)-d.off)
	}
	return nil
}

// Payload reads the next section, verifies its id and checksum, and
// returns a decoder over the payload for deferred decoding — the
// buffer is owned by the returned decoder, so payloads of consecutive
// sections can be decoded later, or concurrently. The caller must
// finish each decoder with Finish to get the full-consumption check
// Section performs inline.
func (sr *Reader) Payload(id uint16) (*Decoder, error) {
	var head [10]byte
	if _, err := io.ReadFull(sr.r, head[:]); err != nil {
		return nil, fmt.Errorf("%w: section %d: short frame header: %v", ErrCorrupt, id, err)
	}
	gotID := binary.LittleEndian.Uint16(head[0:])
	if gotID != id {
		return nil, fmt.Errorf("%w: section id %d where %d expected", ErrCorrupt, gotID, id)
	}
	n := binary.LittleEndian.Uint64(head[2:])
	if n > maxSectionBytes {
		return nil, fmt.Errorf("%w: section %d: implausible length %d", ErrCorrupt, id, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(sr.r, payload); err != nil {
		return nil, fmt.Errorf("%w: section %d: short payload: %v", ErrCorrupt, id, err)
	}
	var sum [4]byte
	if _, err := io.ReadFull(sr.r, sum[:]); err != nil {
		return nil, fmt.Errorf("%w: section %d: short checksum: %v", ErrCorrupt, id, err)
	}
	crc := crc32.NewIEEE()
	crc.Write(head[:])
	crc.Write(payload)
	if got := binary.LittleEndian.Uint32(sum[:]); got != crc.Sum32() {
		return nil, fmt.Errorf("%w: section %d: checksum mismatch", ErrCorrupt, id)
	}
	sr.n += int64(len(head)) + int64(n) + int64(len(sum))
	return &Decoder{buf: payload}, nil
}

// Close verifies the stream ends exactly after the last section;
// trailing garbage is corruption.
func (sr *Reader) Close() error {
	var one [1]byte
	switch _, err := io.ReadFull(sr.r, one[:]); err {
	case io.EOF:
		return nil
	case nil:
		return fmt.Errorf("%w: trailing bytes after final section", ErrCorrupt)
	default:
		return err
	}
}

// --- encoder ---

// Encoder appends fixed-width little-endian primitives and
// length-prefixed composites to a byte buffer. It never fails.
type Encoder struct {
	buf []byte
}

// Bytes returns the encoded buffer (for tests and ad hoc framing).
func (e *Encoder) Bytes() []byte { return e.buf }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// Bool appends a byte 0/1.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U32 appends a uint32.
func (e *Encoder) U32(v uint32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

// U64 appends a uint64.
func (e *Encoder) U64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// I64 appends an int64 (two's complement).
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// F64 appends a float64 by bit pattern.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// F32 appends a float32 by bit pattern.
func (e *Encoder) F32(v float32) { e.U32(math.Float32bits(v)) }

// Str appends a length-prefixed string.
func (e *Encoder) Str(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Strs appends a count-prefixed string slice.
func (e *Encoder) Strs(ss []string) {
	e.U32(uint32(len(ss)))
	for _, s := range ss {
		e.Str(s)
	}
}

// U32s appends a count-prefixed []uint32.
func (e *Encoder) U32s(vs []uint32) {
	e.U32(uint32(len(vs)))
	for _, v := range vs {
		e.U32(v)
	}
}

// I32s appends a count-prefixed []int32.
func (e *Encoder) I32s(vs []int32) {
	e.U32(uint32(len(vs)))
	for _, v := range vs {
		e.U32(uint32(v))
	}
}

// U64s appends a count-prefixed []uint64.
func (e *Encoder) U64s(vs []uint64) {
	e.U32(uint32(len(vs)))
	for _, v := range vs {
		e.U64(v)
	}
}

// F64s appends a count-prefixed []float64.
func (e *Encoder) F64s(vs []float64) {
	e.U32(uint32(len(vs)))
	for _, v := range vs {
		e.F64(v)
	}
}

// F32s appends a count-prefixed []float32.
func (e *Encoder) F32s(vs []float32) {
	e.U32(uint32(len(vs)))
	for _, v := range vs {
		e.F32(v)
	}
}

// --- decoder ---

// Decoder reads back what Encoder wrote. Errors latch: after the
// first failure every method returns a zero value and Err() reports
// the (ErrCorrupt-wrapped) cause. Count prefixes are validated
// against the remaining payload before any allocation, so a corrupt
// count cannot drive an outsized make.
type Decoder struct {
	buf []byte
	off int
	err error
}

// Err returns the latched decode error, if any.
// NewDecoder returns a decoder over a raw payload buffer, for
// callers that obtained the bytes outside the section framing.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

func (d *Decoder) Err() error { return d.err }

// Finish reports the decoder's terminal state: the latched error if
// decoding failed, or ErrCorrupt if payload bytes were left
// unconsumed. Callers of Payload use it to get the same contract
// Section enforces inline.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: %d bytes left unconsumed", ErrCorrupt, len(d.buf)-d.off)
	}
	return nil
}

// Remaining returns the unconsumed byte count.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
	}
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.Remaining() < n {
		d.fail("need %d bytes, have %d", n, d.Remaining())
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a byte and requires it to be 0 or 1.
func (d *Decoder) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("invalid bool byte")
		return false
	}
}

// U32 reads a uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// F64 reads a float64.
func (d *Decoder) F64() float64 { return d.finite(math.Float64frombits(d.U64())) }

// F32 reads a float32.
func (d *Decoder) F32() float32 { return float32(d.finite(float64(math.Float32frombits(d.U32())))) }

// finite passes v through, or latches corruption and reads 0 when v is
// NaN or ±Inf. Encoders store only finite floats, and a non-finite one
// poisons whatever it reaches: a score computed from it orders against
// nothing, and a matching over such weights never terminates.
func (d *Decoder) finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		d.fail("non-finite float %v", v)
		return 0
	}
	return v
}

// Count reads a count prefix and checks it against the remaining
// bytes at minBytes per element. Once an error is latched it reads 0,
// so a decode loop over counts ends at the first failure and the
// caller checks Err once at the end.
func (d *Decoder) Count(minBytes int) int {
	n := int(d.U32())
	if d.err != nil {
		return 0
	}
	if n*minBytes > d.Remaining() {
		d.fail("count %d exceeds %d remaining bytes", n, d.Remaining())
		return 0
	}
	return n
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string {
	n := d.Count(1)
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// Strs reads a count-prefixed string slice.
func (d *Decoder) Strs() []string {
	n := d.Count(4)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.Str()
	}
	return out
}

// U32s reads a count-prefixed []uint32.
func (d *Decoder) U32s() []uint32 {
	n := d.Count(4)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = d.U32()
	}
	return out
}

// I32s reads a count-prefixed []int32.
func (d *Decoder) I32s() []int32 {
	n := d.Count(4)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(d.U32())
	}
	return out
}

// U64s reads a count-prefixed []uint64.
func (d *Decoder) U64s() []uint64 {
	n := d.Count(8)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = d.U64()
	}
	return out
}

// F64s reads a count-prefixed []float64.
func (d *Decoder) F64s() []float64 {
	n := d.Count(8)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.F64()
	}
	return out
}

// F32s reads a count-prefixed []float32.
func (d *Decoder) F32s() []float32 {
	n := d.Count(4)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = d.F32()
	}
	return out
}
