package snap

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// The reference decoders read a list one element at a time through the
// scalar methods: what every bulk decoder must equal in values, latched
// error and offset, on any input.

func refStrs(d *Decoder) []string {
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

func refU32s(d *Decoder) []uint32 {
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

func refI32s(d *Decoder) []int32 {
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

func refU64s(d *Decoder) []uint64 {
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

func refF64s(d *Decoder) []float64 {
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

func refF32s(d *Decoder) []float32 {
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

// listCase is one bulk decoder beside its reference, each reading one
// list and returning it as any for comparison.
type listCase struct {
	name      string
	bulk, ref func(*Decoder) any
	encode    func(e *Encoder, rng *rand.Rand)
}

func listCases() []listCase {
	n := func(rng *rand.Rand) int { return []int{0, 1, 2, 7, 40}[rng.Intn(5)] }
	return []listCase{
		{"Strs", func(d *Decoder) any { return d.Strs() }, func(d *Decoder) any { return refStrs(d) },
			func(e *Encoder, rng *rand.Rand) {
				ss := make([]string, n(rng))
				for i := range ss {
					b := make([]byte, rng.Intn(12))
					rng.Read(b)
					ss[i] = string(b)
				}
				e.Strs(ss)
			}},
		{"U32s", func(d *Decoder) any { return d.U32s() }, func(d *Decoder) any { return refU32s(d) },
			func(e *Encoder, rng *rand.Rand) {
				vs := make([]uint32, n(rng))
				for i := range vs {
					vs[i] = rng.Uint32()
				}
				e.U32s(vs)
			}},
		{"I32s", func(d *Decoder) any { return d.I32s() }, func(d *Decoder) any { return refI32s(d) },
			func(e *Encoder, rng *rand.Rand) {
				vs := make([]int32, n(rng))
				for i := range vs {
					vs[i] = int32(rng.Uint32())
				}
				e.I32s(vs)
			}},
		{"U64s", func(d *Decoder) any { return d.U64s() }, func(d *Decoder) any { return refU64s(d) },
			func(e *Encoder, rng *rand.Rand) {
				vs := make([]uint64, n(rng))
				for i := range vs {
					vs[i] = rng.Uint64()
				}
				e.U64s(vs)
			}},
		{"F32s", func(d *Decoder) any { return d.F32s() }, func(d *Decoder) any { return refF32s(d) },
			func(e *Encoder, rng *rand.Rand) {
				vs := make([]float32, n(rng))
				for i := range vs {
					vs[i] = float32(rng.NormFloat64())
				}
				if len(vs) > 0 && rng.Intn(3) == 0 {
					vs[rng.Intn(len(vs))] = float32(nonFinite(rng))
				}
				e.F32s(vs)
			}},
		{"F64s", func(d *Decoder) any { return d.F64s() }, func(d *Decoder) any { return refF64s(d) },
			func(e *Encoder, rng *rand.Rand) {
				vs := make([]float64, n(rng))
				for i := range vs {
					vs[i] = rng.NormFloat64()
				}
				if len(vs) > 0 && rng.Intn(3) == 0 {
					vs[rng.Intn(len(vs))] = nonFinite(rng)
				}
				e.F64s(vs)
			}},
	}
}

func nonFinite(rng *rand.Rand) float64 {
	return []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
}

// decodeAll reads lists from buf with read until the decoder fails or
// the bytes run out, and reports each list, the latched error text and
// the final offset.
func decodeAll(buf []byte, read func(*Decoder) any) (lists []any, errText string, off int) {
	d := NewDecoder(buf)
	for d.Err() == nil && d.Remaining() > 0 {
		lists = append(lists, read(d))
	}
	if d.Err() != nil {
		errText = d.Err().Error()
	}
	return lists, errText, d.off
}

// TestBulkDecodersMatchReference holds every bulk list decoder to its
// element-at-a-time reference on random lists, on every truncation of
// them, on non-finite floats, and on random bytes: the same lists,
// the same error text and the same offset.
func TestBulkDecodersMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for _, c := range listCases() {
		for trial := 0; trial < 40; trial++ {
			var e Encoder
			for k := rng.Intn(4) + 1; k > 0; k-- {
				c.encode(&e, rng)
			}
			payload := e.Bytes()
			random := make([]byte, rng.Intn(64))
			rng.Read(random)
			if rng.Intn(2) == 0 && len(random) >= 4 {
				random[0], random[1], random[2], random[3] = byte(rng.Intn(6)), 0, 0, 0 // a small count
			}
			inputs := [][]byte{random}
			for cut := 0; cut <= len(payload); cut++ {
				inputs = append(inputs, payload[:cut])
			}
			for _, in := range inputs {
				gotLists, gotErr, gotOff := decodeAll(in, c.bulk)
				wantLists, wantErr, wantOff := decodeAll(in, c.ref)
				if !reflect.DeepEqual(gotLists, wantLists) || gotErr != wantErr || gotOff != wantOff {
					t.Fatalf("%s over %x:\nbulk %v, err %q, offset %d\nref  %v, err %q, offset %d",
						c.name, in, gotLists, gotErr, gotOff, wantLists, wantErr, wantOff)
				}
			}
		}
	}
}

var strsSink []string

// TestStrsAllocatesTwice pins the bulk string decoder's cost: the slice
// and one block for all its strings, however many there are.
func TestStrsAllocatesTwice(t *testing.T) {
	for _, n := range []int{1, 2, 10, 1000} {
		ss := make([]string, n)
		for i := range ss {
			ss[i] = fmt.Sprintf("value %d", i)
		}
		var e Encoder
		e.Strs(ss)
		buf := e.Bytes()
		allocs := testing.AllocsPerRun(20, func() {
			d := Decoder{buf: buf}
			strsSink = d.Strs()
		})
		if allocs != 2 {
			t.Errorf("Strs of %d strings: %v allocations, want 2", n, allocs)
		}
		if !reflect.DeepEqual(strsSink, ss) {
			t.Errorf("Strs of %d strings decoded %q", n, strsSink)
		}
	}
}
