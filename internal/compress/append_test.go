package compress

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// randomBatch returns an ascending-id batch with clustered ids and
// correlated values, the shape delta-sync emits, masked to the word width.
func randomBatch(rng *rand.Rand, n, w int) ([]uint32, []uint64) {
	ids := make([]uint32, n)
	vals := make([]uint64, n)
	id := uint32(rng.Intn(50))
	for i := 0; i < n; i++ {
		ids[i] = id
		id += uint32(1 + rng.Intn(9))
		vals[i] = math.Float64bits(float64(rng.Intn(40))) & wordMask(w)
	}
	return ids, vals
}

// AppendEncode must produce byte-identical output to Encode and honour
// pre-existing dst contents.
func TestAppendEncodeMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, w := range widths {
		for trial := 0; trial < 50; trial++ {
			ids, vals := randomBatch(rng, rng.Intn(200), w)
			for _, c := range codecsW(w) {
				want := c.Encode(ids, vals)
				got := c.AppendEncode(nil, ids, vals)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s/w%d: AppendEncode(nil) differs from Encode", c.Name(), w)
				}
				prefixed := c.AppendEncode([]byte("pfx"), ids, vals)
				if !bytes.Equal(prefixed[:3], []byte("pfx")) || !bytes.Equal(prefixed[3:], want) {
					t.Fatalf("%s/w%d: AppendEncode clobbered the prefix", c.Name(), w)
				}
			}
		}
	}
}

// With warmed buffers, AppendEncode must not allocate.
func TestAppendEncodeDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, w := range widths {
		ids, vals := randomBatch(rng, 512, w)
		for _, c := range codecsW(w) {
			buf := c.AppendEncode(nil, ids, vals)
			if a := testing.AllocsPerRun(20, func() { buf = c.AppendEncode(buf[:0], ids, vals) }); a > 0 {
				t.Errorf("%s/w%d: AppendEncode allocates %.1f objects per batch", c.Name(), w, a)
			}
		}
	}
}

// Decoding runs on every received chunk of every superstep, so it must not
// allocate, whatever the layout.
func TestDecodeDoesNotAllocate(t *testing.T) {
	sparse := []uint32{3, 900, 70000, 70001, 1 << 30}
	for _, w := range widths {
		seen := map[string]bool{}
		for _, tc := range []struct {
			ids  []uint32
			vals []uint64
		}{
			{seqIDs(4096), distinctVals(4096)},
			{seqIDs(4096), repeatedVals(4096)},
			{sparse, []uint64{0x0123456789abcdef, 0xfedcba9876543210, 0x0f1e2d3c4b5a6978, 1, 2}},
			{sparse, repeatedVals(len(sparse))},
		} {
			vals := make([]uint64, len(tc.vals))
			for i, v := range tc.vals {
				vals[i] = v & wordMask(w)
			}
			sum := uint64(0)
			fn := func(id uint32, val uint64) error { sum += uint64(id) ^ val; return nil }
			for _, c := range codecsW(w) {
				buf := c.Encode(tc.ids, vals)
				seen[c.Layout(buf)] = true
				if a := testing.AllocsPerRun(20, func() { _ = c.Decode(buf, fn) }); a != 0 {
					t.Errorf("%s(%s)/w%d: Decode allocates %.1f objects per batch", c.Name(), c.Layout(buf), w, a)
				}
			}
		}
		if len(seen) != 1+len(layouts) {
			t.Errorf("w%d: batches covered layouts %v, want raw and all %d adaptive ones", w, seen, len(layouts))
		}
	}
}

// StreamEncoder chunks must decode back to the original batch under every
// codec and report the payload's layout.
func TestStreamEncoderRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, w := range widths {
		codecs := codecsW(w)
		if w == 8 {
			codecs = append(codecs, nil) // nil means Raw{} at width 8
		}
		for _, c := range codecs {
			enc := NewStreamEncoder(c)
			dec := c
			if dec == nil {
				dec = Raw{}
			}
			for trial := 0; trial < 30; trial++ {
				ids, vals := randomBatch(rng, rng.Intn(300), w)
				payload, name := enc.EncodeChunk(ids, vals)
				if want := dec.Layout(payload); name != want {
					t.Fatalf("%s/w%d: chunk reported layout %s, payload is %s", dec.Name(), w, name, want)
				}
				var gotIDs []uint32
				var gotVals []uint64
				err := dec.Decode(payload, func(id uint32, val uint64) error {
					gotIDs = append(gotIDs, id)
					gotVals = append(gotVals, val)
					return nil
				})
				if err != nil {
					t.Fatalf("%s/w%d: decode: %v", dec.Name(), w, err)
				}
				if len(gotIDs) != len(ids) {
					t.Fatalf("%s/w%d: decoded %d entries, want %d", dec.Name(), w, len(gotIDs), len(ids))
				}
				for i := range ids {
					if gotIDs[i] != ids[i] || gotVals[i] != vals[i] {
						t.Fatalf("%s/w%d: entry %d round-tripped as (%d, %x), want (%d, %x)",
							dec.Name(), w, i, gotIDs[i], gotVals[i], ids[i], vals[i])
					}
				}
			}
		}
	}
}

// A warmed StreamEncoder must not allocate per chunk (the overlapped
// delta-sync encodes on the superstep hot path).
func TestStreamEncoderDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, w := range widths {
		ids, vals := randomBatch(rng, 512, w)
		for _, c := range codecsW(w) {
			enc := NewStreamEncoder(c)
			enc.EncodeChunk(ids, vals) // warm the pooled buffer
			if a := testing.AllocsPerRun(20, func() { enc.EncodeChunk(ids, vals) }); a > 0 {
				t.Errorf("%s/w%d: EncodeChunk allocates %.1f objects per chunk", c.Name(), w, a)
			}
		}
	}
}
