package datatype

import "testing"

// packShapes are the call shapes the MPI layer makes: a 1 MiB byte
// message is count = 1<<20 elements of Byte, an Allreduce of 8192
// doubles is count = 8192 of Float64. The strided vector walks blocks
// and is the non-contiguous control.
var packShapes = []shape{
	{"Byte-1MiB", Byte, 1 << 20},
	{"Float64-8192", Float64, 8192},
	{"Vector-strided-128KiB", Vector(64, 8, 16, Byte), 256},
}

func BenchmarkPack(b *testing.B) {
	for _, s := range packShapes {
		b.Run(s.name, func(b *testing.B) {
			src := make([]byte, BufferSpan(s.count, s.dt))
			dst := make([]byte, PackedSize(s.count, s.dt))
			b.SetBytes(int64(len(dst)))
			for i := 0; i < b.N; i++ {
				Pack(dst, src, s.count, s.dt)
			}
		})
	}
}

func BenchmarkUnpack(b *testing.B) {
	for _, s := range packShapes {
		b.Run(s.name, func(b *testing.B) {
			src := make([]byte, PackedSize(s.count, s.dt))
			dst := make([]byte, BufferSpan(s.count, s.dt))
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				Unpack(dst, src, s.count, s.dt)
			}
		})
	}
}

func BenchmarkEnginePollIdle(b *testing.B) {
	e := NewEngine(0)
	for i := 0; i < b.N; i++ {
		e.Poll()
	}
}

func BenchmarkEngineAsyncPack(b *testing.B) {
	e := NewEngine(0)
	dt := Vector(64, 8, 16, Byte)
	src := make([]byte, BufferSpan(4, dt))
	dst := make([]byte, PackedSize(4, dt))
	b.SetBytes(int64(4 * dt.Size()))
	for i := 0; i < b.N; i++ {
		job := e.SubmitPack(dst, src, 4, dt)
		for !job.IsComplete() {
			e.Poll()
		}
	}
}
