package snap

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

// walkEverything is a struct exercising every Walker method, with a
// walk in the same one-shared-function style the simulator uses.
type walkEverything struct {
	u64  uint64
	u32  uint32
	u16  uint16
	u8   uint8
	i64  int64
	i    int
	i16  int16
	i8   int8
	b    bool
	f64  float64
	u64s []uint64
	u16s []uint16
	u8s  []uint8
	i8s  []int8
	i16s []int16
	is   []int
	bs   []bool
}

func (e *walkEverything) snapshotWalk(w *Walker) {
	w.Uint64(&e.u64)
	w.Uint32(&e.u32)
	w.Uint16(&e.u16)
	w.Uint8(&e.u8)
	w.Int64(&e.i64)
	w.Int(&e.i)
	w.Int16(&e.i16)
	w.Int8(&e.i8)
	w.Bool(&e.b)
	w.Float64(&e.f64)
	w.Uint64s(e.u64s)
	w.Uint16s(e.u16s)
	w.Uint8s(e.u8s)
	w.Int8s(e.i8s)
	w.Int16s(e.i16s)
	w.Ints(e.is)
	w.Bools(e.bs)
}

func sample() walkEverything {
	return walkEverything{
		u64: math.MaxUint64, u32: 0xDEADBEEF, u16: 0xBEEF, u8: 0x7F,
		i64: math.MinInt64, i: -42, i16: -12345, i8: -128,
		b: true, f64: -math.Pi,
		u64s: []uint64{1, ^uint64(0), 3},
		u16s: []uint16{9, 8, 7},
		u8s:  []uint8{0, 255, 128},
		i8s:  []int8{-16, 15, 0},
		i16s: []int16{-1, 1},
		is:   []int{-7, 7},
		bs:   []bool{true, false, true},
	}
}

func TestRoundTrip(t *testing.T) {
	in := sample()
	enc := NewEncoder()
	in.snapshotWalk(enc)
	blob, err := enc.Bytes()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}

	out := walkEverything{
		u64s: make([]uint64, 3), u16s: make([]uint16, 3), u8s: make([]uint8, 3),
		i8s: make([]int8, 3), i16s: make([]int16, 2), is: make([]int, 2),
		bs: make([]bool, 3),
	}
	dec := NewDecoder(blob)
	out.snapshotWalk(dec)
	if err := dec.Finish(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip diverged:\n in: %+v\nout: %+v", in, out)
	}
}

func TestTruncation(t *testing.T) {
	in := sample()
	enc := NewEncoder()
	in.snapshotWalk(enc)
	blob, _ := enc.Bytes()

	for _, n := range []int{0, 1, 7, len(blob) / 2, len(blob) - 1} {
		out := sample() // correctly sized slices
		dec := NewDecoder(blob[:n])
		out.snapshotWalk(dec)
		if !errors.Is(dec.Err(), ErrTruncated) {
			t.Errorf("decode of %d/%d bytes: err = %v, want ErrTruncated", n, len(blob), dec.Err())
		}
		if dec.Finish() == nil {
			t.Errorf("Finish after truncated decode of %d bytes returned nil", n)
		}
	}
}

func TestTrailingBytes(t *testing.T) {
	enc := NewEncoder()
	v := uint64(5)
	enc.Uint64(&v)
	blob, _ := enc.Bytes()
	dec := NewDecoder(append(blob, 0xFF))
	var got uint64
	dec.Uint64(&got)
	if err := dec.Finish(); err == nil {
		t.Fatal("Finish ignored trailing bytes")
	}
}

func TestInvalidBool(t *testing.T) {
	dec := NewDecoder([]byte{2})
	var b bool
	dec.Bool(&b)
	if dec.Err() == nil {
		t.Fatal("decoding bool byte 2 did not latch an error")
	}
}

func TestImplausibleLen(t *testing.T) {
	enc := NewEncoder()
	n := maxLen + 1
	enc.Len(&n)
	blob, _ := enc.Bytes()
	dec := NewDecoder(blob)
	var got int
	dec.Len(&got)
	if dec.Err() == nil {
		t.Fatal("decoding an implausible length did not latch an error")
	}
}

func TestErrorLatching(t *testing.T) {
	dec := NewDecoder(nil)
	var v uint64
	dec.Uint64(&v) // latches ErrTruncated
	first := dec.Err()
	var b bool
	dec.Bool(&b) // must not overwrite the first error
	if dec.Err() != first {
		t.Fatalf("latched error changed: %v -> %v", first, dec.Err())
	}
}

func TestDecoding(t *testing.T) {
	if NewEncoder().Decoding() {
		t.Fatal("encoder reports Decoding() = true")
	}
	if !NewDecoder(nil).Decoding() {
		t.Fatal("decoder reports Decoding() = false")
	}
}

func TestCheck(t *testing.T) {
	dec := NewDecoder([]byte{1, 2})
	if !dec.Check(nil) {
		t.Fatal("Check(nil) on a clean walker reported an error")
	}
	bad := errors.New("semantically invalid")
	if dec.Check(bad) {
		t.Fatal("Check(err) reported the walk still clean")
	}
	if !errors.Is(dec.Err(), bad) {
		t.Fatalf("Err() = %v, want the checked error", dec.Err())
	}
	// First error wins, matching the rest of the walker.
	if dec.Check(errors.New("later")); !errors.Is(dec.Err(), bad) {
		t.Fatalf("a later Check overwrote the latched error: %v", dec.Err())
	}
}

func TestStaticIsANoOp(t *testing.T) {
	enc := NewEncoder()
	enc.Static(struct{ x int }{1}, "config", nil)
	blob, err := enc.Bytes()
	if err != nil || len(blob) != 0 {
		t.Fatalf("Static wrote %d bytes (err %v); want none", len(blob), err)
	}
}

// TestSizeAndAppendEncoder pins the one-buffer encode the simulator's
// snapshots use: Size counts exactly the bytes NewEncoder produces, and
// an AppendEncoder over a reserved header emits the same stream after
// it — presized, or grown from a buffer too small for it.
func TestSizeAndAppendEncoder(t *testing.T) {
	in := sample()
	enc := NewEncoder()
	in.snapshotWalk(enc)
	want, err := enc.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	n, err := Size(in.snapshotWalk)
	if err != nil || n != len(want) {
		t.Fatalf("Size = %d, %v; encoder produced %d bytes", n, err, len(want))
	}
	hdr := []byte("HDR")
	for _, capacity := range []int{len(hdr) + n, len(hdr)} {
		dst := make([]byte, len(hdr), capacity)
		copy(dst, hdr)
		w := AppendEncoder(dst)
		in.snapshotWalk(w)
		got, err := w.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		if string(got[:len(hdr)]) != string(hdr) || !reflect.DeepEqual(got[len(hdr):], want) {
			t.Fatalf("cap %d: AppendEncoder stream differs from NewEncoder's", capacity)
		}
		if capacity > len(hdr) && &got[0] != &dst[0] {
			t.Fatal("presized AppendEncoder reallocated its buffer")
		}
	}
}
