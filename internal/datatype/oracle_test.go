package datatype

import (
	"bytes"
	"fmt"
	"testing"
)

// refPack is the reference gather: every data byte of every block of
// every element, one at a time, in layout order. Pack must match it
// byte for byte whichever branch it takes.
func refPack(dst, src []byte, count int, d *Datatype) int {
	pos := 0
	for i := 0; i < count; i++ {
		for _, b := range d.Blocks() {
			for k := 0; k < b.Len; k++ {
				dst[pos] = src[i*d.Extent()+b.Off+k]
				pos++
			}
		}
	}
	return pos
}

// refUnpack is the reference scatter, the inverse of refPack.
func refUnpack(dst, src []byte, count int, d *Datatype) int {
	pos := 0
	for i := 0; i < count; i++ {
		for _, b := range d.Blocks() {
			for k := 0; k < b.Len; k++ {
				dst[i*d.Extent()+b.Off+k] = src[pos]
				pos++
			}
		}
	}
	return pos
}

type oracleCase struct {
	name   string
	dt     *Datatype
	contig bool // whether the layout must take the one-copy path
}

func oracleCases() []oracleCase {
	cases := []oracleCase{}
	for _, dt := range []*Datatype{Byte, Int32, Int64, Uint64, Float32, Float64} {
		cases = append(cases, oracleCase{dt.Name(), dt, true})
	}
	return append(cases,
		oracleCase{"contiguous(5,int32)", Contiguous(5, Int32), true},
		oracleCase{"contiguous(3,contiguous(2,float64))", Contiguous(3, Contiguous(2, Float64)), true},
		oracleCase{"vector-collapsed", Vector(4, 3, 3, Byte), true},
		oracleCase{"resized-exact", Resized(Contiguous(3, Int64), 24), true},
		oracleCase{"resized-gap", Resized(Int32, 16), false},
		oracleCase{"vector-strided", Vector(4, 3, 5, Byte), false},
		oracleCase{"indexed", Indexed([]int{2, 1}, []int{1, 4}, Int32), false},
		oracleCase{"contiguous-of-strided", Contiguous(2, Vector(2, 1, 2, Int32)), false},
	)
}

// TestPackUnpackOracle checks that Pack and Unpack give the same bytes
// and counts as the reference walk for contiguous layouts (one copy)
// and non-contiguous controls (block walk), and that they touch no
// byte outside the data: the rest of dst keeps its prior contents.
func TestPackUnpackOracle(t *testing.T) {
	for _, c := range oracleCases() {
		if c.dt.Contig() != c.contig {
			t.Fatalf("%s: Contig() = %v, want %v", c.name, c.dt.Contig(), c.contig)
		}
		for _, count := range []int{0, 1, 7, 4096} {
			t.Run(fmt.Sprintf("%s/count=%d", c.name, count), func(t *testing.T) {
				span := BufferSpan(count, c.dt)
				packed := PackedSize(count, c.dt)

				src := fill(span, int64(count)+1)
				got := fill(packed+8, 99)
				want := append([]byte(nil), got...)
				if n, wn := Pack(got, src, count, c.dt), refPack(want, src, count, c.dt); n != wn || n != packed {
					t.Fatalf("Pack returned %d, reference %d, packed size %d", n, wn, packed)
				}
				if !bytes.Equal(got, want) {
					t.Fatal("Pack differs from reference")
				}

				wire := fill(packed, int64(count)+2)
				got = fill(span+8, 77)
				want = append([]byte(nil), got...)
				if n, wn := Unpack(got, wire, count, c.dt), refUnpack(want, wire, count, c.dt); n != wn || n != packed {
					t.Fatalf("Unpack returned %d, reference %d, packed size %d", n, wn, packed)
				}
				if !bytes.Equal(got, want) {
					t.Fatal("Unpack differs from reference")
				}
			})
		}
	}
}

// TestUnpackTruncated unpacks fewer elements than the receive buffer
// holds, the way a short eager message lands in a larger posted
// receive: the first elems elements match the reference and the rest
// of the buffer is untouched.
func TestUnpackTruncated(t *testing.T) {
	const count, elems = 64, 13
	for _, c := range oracleCases() {
		t.Run(c.name, func(t *testing.T) {
			wire := fill(PackedSize(elems, c.dt), 5)
			got := fill(BufferSpan(count, c.dt), 6)
			want := append([]byte(nil), got...)
			n := Unpack(got, wire[:elems*c.dt.Size()], elems, c.dt)
			if wn := refUnpack(want, wire, elems, c.dt); n != wn {
				t.Fatalf("Unpack returned %d, reference %d", n, wn)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("truncated Unpack differs from reference")
			}
		})
	}
}

// TestPackUnpackShortBufferPanics: a buffer one byte short of what the
// layout needs panics on the one-copy path as on the block walk.
func TestPackUnpackShortBufferPanics(t *testing.T) {
	const count = 7
	mustPanic := func(t *testing.T, what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s with a short buffer did not panic", what)
			}
		}()
		fn()
	}
	for _, c := range oracleCases() {
		t.Run(c.name, func(t *testing.T) {
			span := BufferSpan(count, c.dt)
			packed := PackedSize(count, c.dt)
			mustPanic(t, "Pack short dst", func() { Pack(make([]byte, packed-1), make([]byte, span), count, c.dt) })
			mustPanic(t, "Pack short src", func() { Pack(make([]byte, packed), make([]byte, span-1), count, c.dt) })
			mustPanic(t, "Unpack short dst", func() { Unpack(make([]byte, span-1), make([]byte, packed), count, c.dt) })
			mustPanic(t, "Unpack short src", func() { Unpack(make([]byte, span), make([]byte, packed-1), count, c.dt) })
		})
	}
}
