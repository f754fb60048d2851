package ckpt

import (
	"bytes"
	"testing"
)

// FuzzDecodeState feeds arbitrary shard bytes to the decoder, with the CRC
// trailer recomputed so mutations reach the parser instead of stopping at
// the checksum. A shard is a disk format and a wire format (replica
// streaming, the rejoin admission's restore state), so: decoding never
// panics, an accepted shard or merged state re-encodes to exactly the
// input, and Merge over accepted shards returns an error rather than
// panicking, however their bounds, owned arrays and sets are laid out.
func FuzzDecodeState(f *testing.F) {
	arith := mergeShard(1)
	arith.Kind, arith.Width = Arith, 4
	arith.StableCnt = []uint32{1, 2}
	arith.StableVal = []uint64{5, 6}
	arith.Sets = map[string][]uint32{"frontier": {2, 3}, "sparsedirty": {2}}
	merged, err := Merge([]*State{mergeShard(0), mergeShard(1)})
	if err != nil {
		f.Fatal(err)
	}
	three := &State{Program: "PR", Kind: Arith, Iter: 9, Domain: "f64", Width: 8, Rank: 1,
		Bounds: []uint32{0, 3, 3, 7}, Values: []uint64{1, 2, 3}, Sets: map[string][]uint32{"frontier": {3, 5}}}
	three.Bounds[2] = 6 // rank 1 owns [3,6)
	for _, s := range []*State{sampleState(), mergeShard(0), arith, merged, three} {
		f.Add(s.AppendTo(nil))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		data = appendCRC(data[:len(data)-4])
		s, err := DecodeState(data)
		if err != nil {
			return
		}
		if again := s.AppendTo(nil); !bytes.Equal(again, data) {
			t.Fatalf("accepted shard of %d bytes re-encodes to %d different bytes", len(data), len(again))
		}
		// One copy of s per rank its bounds name, each cut to that rank's
		// owned range where s's arrays are long enough, so Merge gets past
		// its shard-count and length checks and places the ranges.
		shards := []*State{s}
		if workers := len(s.Bounds) - 1; workers >= 1 && workers <= 8 {
			shards = make([]*State, workers)
			for r := range shards {
				c := *s
				c.Rank = uint32(r)
				if lo, hi := s.Bounds[r], s.Bounds[r+1]; lo <= hi {
					c.Values = cut(s.Values, int(hi-lo))
					c.StableCnt = cut(s.StableCnt, int(hi-lo))
					c.StableVal = cut(s.StableVal, int(hi-lo))
				}
				shards[r] = &c
			}
		}
		_, _ = Merge(shards)
	})
}

// cut returns xs[:n] when xs is at least n long, else xs.
func cut[T any](xs []T, n int) []T {
	if len(xs) >= n {
		return xs[:n]
	}
	return xs
}
