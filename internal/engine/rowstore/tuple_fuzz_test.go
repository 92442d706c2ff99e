package rowstore

import (
	"bytes"
	"math"
	"testing"
)

// maxFuzzHours bounds the series a fuzzed chunk is decoded into; a
// chunk starting at or beyond it is decoded into a prefix of this
// length, which must skip it whole.
const maxFuzzHours = 1 << 16

// FuzzDecodeArrayChunk feeds arbitrary tuple bytes to the array
// layout's chunk decoder: it must not panic or allocate, and it either
// refuses the bytes (as chunkBounds does) or decodes them so that
// encodeArrayChunk gives back the same bytes. A prefix ending inside
// the chunk gets exactly the chunk's first hours.
func FuzzDecodeArrayChunk(f *testing.F) {
	valid, err := encodeArrayChunk(nil, 7, 24, []float64{1.5, math.NaN(), -0.0}, []float64{10, 11, math.Inf(-1)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid, uint16(2))
	f.Add(valid[:len(valid)-8], uint16(0))
	f.Add(valid[:16], uint16(1))
	f.Add([]byte{}, uint16(0))
	huge := append([]byte(nil), valid...)
	putU32(huge, 8, math.MaxUint32) // start far beyond any series
	f.Add(huge, uint16(5))
	lying := append([]byte(nil), valid...)
	putU32(lying, 12, math.MaxUint32) // count the bytes cannot hold
	f.Add(lying, uint16(3))
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		start, count, err := chunkBounds(data)
		if err != nil {
			if _, derr := decodeArrayChunk(data, nil, nil); derr == nil {
				t.Fatalf("chunkBounds refuses the tuple (%v), decodeArrayChunk accepts it", err)
			}
			return
		}
		if count > len(data)/16 {
			t.Fatalf("count %d from a %d-byte tuple", count, len(data))
		}
		if start >= maxFuzzHours {
			// Decode into a prefix ending before the chunk: nothing is
			// written, nothing allocated.
			cons := make([]float64, maxFuzzHours)
			temp := make([]float64, maxFuzzHours)
			if allocs := testing.AllocsPerRun(1, func() { _, err = decodeArrayChunk(data, cons, temp) }); allocs != 0 {
				t.Fatalf("decode allocated %v times", allocs)
			}
			if err != nil {
				t.Fatal(err)
			}
			for h := range cons {
				if cons[h] != 0 || temp[h] != 0 {
					t.Fatalf("chunk at hour %d wrote hour %d of a %d-hour prefix", start, h, maxFuzzHours)
				}
			}
			return
		}
		n := start + count
		cons := make([]float64, n)
		temp := make([]float64, n)
		var id int64
		allocs := testing.AllocsPerRun(1, func() {
			got, derr := decodeArrayChunk(data, cons, temp)
			id, err = int64(got), derr
		})
		if err != nil {
			t.Fatalf("chunkBounds accepts the tuple, decodeArrayChunk refuses it: %v", err)
		}
		if allocs != 0 {
			t.Fatalf("decode allocated %v times", allocs)
		}
		again, err := encodeArrayChunk(nil, 0, start, cons[start:], temp[start:])
		if err != nil {
			t.Fatal(err)
		}
		putU64(again, 0, uint64(id))
		if !bytes.Equal(again, data) {
			t.Fatalf("re-encoding gives %x, want %x", again, data)
		}
		// A prefix ending inside the chunk holds its first hours.
		p := start + int(cut)%(count+1)
		pc, pt := make([]float64, p), make([]float64, p)
		if _, err := decodeArrayChunk(data, pc, pt); err != nil {
			t.Fatal(err)
		}
		for h := start; h < p; h++ {
			if math.Float64bits(pc[h]) != math.Float64bits(cons[h]) || math.Float64bits(pt[h]) != math.Float64bits(temp[h]) {
				t.Fatalf("%d-hour prefix differs from the full decode at hour %d", p, h)
			}
		}
	})
}

// FuzzDecodeRowTuple feeds arbitrary bytes to the row layout's tuple
// decoder: no panic, no allocation on success, and either an error or
// a reading that encodeRowTuple turns back into the same bytes.
func FuzzDecodeRowTuple(f *testing.F) {
	f.Add(encodeRowTuple(nil, 3, 8759, -4.25, math.NaN()))
	f.Add(encodeRowTuple(nil, -1, math.MaxUint32, math.Inf(1), -0.0))
	f.Add(make([]byte, rowTupleSize-1))
	f.Add(make([]byte, rowTupleSize+1))
	f.Fuzz(func(t *testing.T, data []byte) {
		id, hour, temp, cons, err := decodeRowTuple(data)
		if err != nil {
			if len(data) == rowTupleSize {
				t.Fatalf("a %d-byte tuple refused: %v", len(data), err)
			}
			return
		}
		if allocs := testing.AllocsPerRun(1, func() { _, _, _, _, _ = decodeRowTuple(data) }); allocs != 0 {
			t.Fatalf("decode allocated %v times", allocs)
		}
		if again := encodeRowTuple(nil, id, hour, temp, cons); !bytes.Equal(again, data) {
			t.Fatalf("re-encoding gives %x, want %x", again, data)
		}
	})
}
