package snap

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
)

const testMagic uint32 = 0x74534e50

// encodeStream writes a two-section stream exercising every codec
// method and returns the bytes.
func encodeStream(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteHeader(&buf, testMagic, 3, 0x0005); err != nil {
		t.Fatal(err)
	}
	w := NewWriter(&buf)
	if err := w.Section(1, func(e *Encoder) {
		e.U8(7)
		e.Bool(true)
		e.Bool(false)
		e.U32(0xdeadbeef)
		e.U64(1 << 60)
		e.I64(-42)
		e.F64(3.14159)
		e.Str("hello, snapshot")
		e.Str("")
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Section(2, func(e *Encoder) {
		e.Strs([]string{"a", "bb", ""})
		e.Strs(nil)
		e.U32s([]uint32{1, 2, 3})
		e.I32s([]int32{-1, 0, 5})
		e.U64s([]uint64{9, 8})
		e.F64s([]float64{0.5, -0.25})
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func decodeStream(data []byte) error {
	version, flags, err := ReadHeader(data, testMagic)
	if err != nil {
		return err
	}
	if version != 3 || flags != 0x0005 {
		return errors.New("wrong version/flags")
	}
	sr := NewReader(data[HeaderLen:])
	if err := sr.Section(1, func(d *Decoder) error {
		if d.U8() != 7 || !d.Bool() || d.Bool() {
			return errors.New("scalar mismatch")
		}
		if d.U32() != 0xdeadbeef || d.U64() != 1<<60 || d.I64() != -42 {
			return errors.New("integer mismatch")
		}
		if d.F64() != 3.14159 {
			return errors.New("float mismatch")
		}
		if d.Str() != "hello, snapshot" || d.Str() != "" {
			return errors.New("string mismatch")
		}
		return nil
	}); err != nil {
		return err
	}
	if err := sr.Section(2, func(d *Decoder) error {
		ss := d.Strs()
		if len(ss) != 3 || ss[0] != "a" || ss[1] != "bb" || ss[2] != "" {
			return errors.New("Strs mismatch")
		}
		if d.Strs() != nil {
			return errors.New("nil Strs mismatch")
		}
		u := d.U32s()
		if len(u) != 3 || u[2] != 3 {
			return errors.New("U32s mismatch")
		}
		i := d.I32s()
		if len(i) != 3 || i[0] != -1 {
			return errors.New("I32s mismatch")
		}
		if v := d.U64s(); len(v) != 2 || v[0] != 9 {
			return errors.New("U64s mismatch")
		}
		if f := d.F64s(); len(f) != 2 || f[1] != -0.25 {
			return errors.New("F64s mismatch")
		}
		return nil
	}); err != nil {
		return err
	}
	return sr.Close()
}

func TestRoundTrip(t *testing.T) {
	if err := decodeStream(encodeStream(t)); err != nil {
		t.Fatalf("round trip: %v", err)
	}
}

func TestBadMagic(t *testing.T) {
	data := encodeStream(t)
	data[0] ^= 0xff
	err := decodeStream(data)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: got %v, want ErrCorrupt", err)
	}
}

// TestTruncationEverywhere cuts the stream at every byte offset; no
// prefix may decode cleanly.
func TestTruncationEverywhere(t *testing.T) {
	data := encodeStream(t)
	for n := 0; n < len(data); n++ {
		err := decodeStream(data[:n])
		if err == nil {
			t.Fatalf("truncation at %d/%d accepted", n, len(data))
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: got %v, want ErrCorrupt", n, err)
		}
	}
}

// TestBitFlipEverywhere flips one byte at every offset past the
// header; every flip must be rejected (checksums cover id, length,
// and payload).
func TestBitFlipEverywhere(t *testing.T) {
	data := encodeStream(t)
	for i := 8; i < len(data); i++ {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		if err := decodeStream(mut); err == nil {
			t.Fatalf("bit flip at offset %d accepted", i)
		}
	}
}

func TestTrailingGarbage(t *testing.T) {
	data := append(encodeStream(t), 0x00)
	err := decodeStream(data)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing garbage: got %v, want ErrCorrupt", err)
	}
}

func TestUnconsumedPayload(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Section(1, func(e *Encoder) { e.U64(1); e.U64(2) }); err != nil {
		t.Fatal(err)
	}
	err := NewReader(buf.Bytes()).Section(1, func(d *Decoder) error {
		d.U64() // read only half the payload
		return nil
	})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unconsumed payload: got %v, want ErrCorrupt", err)
	}
}

func TestWrongSectionID(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Section(1, func(e *Encoder) { e.U8(0) }); err != nil {
		t.Fatal(err)
	}
	err := NewReader(buf.Bytes()).Section(2, func(d *Decoder) error {
		d.U8()
		return nil
	})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("wrong id: got %v, want ErrCorrupt", err)
	}
}

// TestCountGuard checks a corrupt count prefix fails before any
// outsized allocation: the decoder sees the count exceeds the
// remaining payload.
func TestCountGuard(t *testing.T) {
	var e Encoder
	e.U32(1 << 30) // claims a billion strings
	d := Decoder{buf: e.Bytes()}
	if out := d.Strs(); out != nil {
		t.Fatal("corrupt count produced a slice")
	}
	if !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatalf("corrupt count: got %v, want ErrCorrupt", d.Err())
	}
}

// TestEOFPassthrough: a reader error other than EOF, met while a
// manifest is read whole, is passed through unchanged rather than
// reported as corruption.
func TestEOFPassthrough(t *testing.T) {
	_, err := ReadManifest(errReader{})
	if !errors.Is(err, io.ErrClosedPipe) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrClosedPipe", err)
	}
}

type errReader struct{}

func (errReader) Read([]byte) (int, error) { return 0, io.ErrClosedPipe }

// TestNonFiniteFloatsAreCorrupt checks that NaN and ±Inf, which no
// encoder writes, read as corruption through every float reader.
func TestNonFiniteFloatsAreCorrupt(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, c := range map[string]struct {
			enc  func(*Encoder)
			read func(*Decoder)
		}{
			"F64":  {func(e *Encoder) { e.F64(v) }, func(d *Decoder) { d.F64() }},
			"F32":  {func(e *Encoder) { e.F32(float32(v)) }, func(d *Decoder) { d.F32() }},
			"F64s": {func(e *Encoder) { e.F64s([]float64{1, v}) }, func(d *Decoder) { d.F64s() }},
			"F32s": {func(e *Encoder) { e.F32s([]float32{1, float32(v)}) }, func(d *Decoder) { d.F32s() }},
		} {
			var e Encoder
			c.enc(&e)
			d := NewDecoder(e.Bytes())
			c.read(d)
			if !errors.Is(d.Err(), ErrCorrupt) {
				t.Errorf("%s of %v: err = %v, want ErrCorrupt", name, v, d.Err())
			}
		}
	}
}
