package ckpt

import (
	"bytes"
	"testing"
)

// FuzzDecodeState feeds arbitrary shard bytes to the decoder, with the CRC
// trailer recomputed so mutations reach the parser instead of stopping at
// the checksum. A shard is a disk format and a wire format (replica
// streaming, the rejoin admission's restore state), so: decoding never
// panics, an accepted shard re-encodes to exactly the input, and Merge over
// accepted shards returns an error rather than panicking, however their
// bounds are laid out.
func FuzzDecodeState(f *testing.F) {
	arith := mergeShard(1)
	arith.Kind, arith.Width = Arith, 4
	arith.StableCnt = []uint32{1, 2, 3, 4}
	arith.StableVal = []uint64{5, 6, 7, 8}
	arith.Sets = map[string][]uint32{"frontier": {0, 3}, "sparsedirty": {2}}
	for _, s := range []*State{sampleState(), mergeShard(0), arith} {
		b, err := s.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
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
		again, err := s.Encode()
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted shard of %d bytes re-encodes to %d different bytes", len(data), len(again))
		}
		// One copy of s per rank its bounds name, so Merge gets past its
		// shard-count check and slices by the bounds.
		shards := []*State{s}
		if workers := len(s.Bounds) - 1; workers >= 1 && workers <= 8 {
			shards = make([]*State, workers)
			for r := range shards {
				c := *s
				c.Rank = uint32(r)
				shards[r] = &c
			}
		}
		_, _ = Merge(shards)
	})
}
