package compress

import (
	"encoding/binary"
	"math"
	"testing"
)

// batchFromBytes derives a strictly ascending (id, value-bits) batch from
// raw fuzz input: each 12-byte record contributes an id gap and 8 value
// bits (masked to the word width), so the corpus explores dense runs, wide
// gaps and every bit pattern (including NaN and infinity floats) without
// ever violating Adaptive's ascending-ids contract.
func batchFromBytes(data []byte, w int) ([]uint32, []uint64) {
	var ids []uint32
	var vals []uint64
	id := uint64(0)
	for off := 0; off+12 <= len(data); off += 12 {
		gap := uint64(binary.LittleEndian.Uint32(data[off:])) % 4096
		if len(ids) > 0 {
			id += gap + 1
		} else {
			id = gap
		}
		if id > math.MaxUint32 {
			break
		}
		ids = append(ids, uint32(id))
		vals = append(vals, binary.LittleEndian.Uint64(data[off+4:])&wordMask(w))
	}
	return ids, vals
}

// fuzzRoundTrip checks Encode/Decode identity on arbitrary ascending
// batches: every id and every value bit pattern must survive.
func fuzzRoundTrip(f *testing.F, c Codec) {
	f.Add([]byte{})
	f.Add(make([]byte, 12))
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 2, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(make([]byte, 12*40)) // a dense run of zeros: bitmap+xor
	f.Fuzz(func(t *testing.T, data []byte) {
		ids, vals := batchFromBytes(data, c.Width())
		buf := c.Encode(ids, vals)
		i := 0
		err := c.Decode(buf, func(id uint32, val uint64) error {
			if i >= len(ids) {
				t.Fatalf("%s: decoded %d entries, encoded %d", c.Name(), i+1, len(ids))
			}
			if id != ids[i] {
				t.Fatalf("%s: entry %d: id %d, want %d", c.Name(), i, id, ids[i])
			}
			if val != vals[i] {
				t.Fatalf("%s: entry %d: value bits %x, want %x", c.Name(), i, val, vals[i])
			}
			i++
			return nil
		})
		if err != nil {
			t.Fatalf("%s: decode of own encoding failed: %v", c.Name(), err)
		}
		if i != len(ids) {
			t.Fatalf("%s: decoded %d entries, want %d", c.Name(), i, len(ids))
		}
	})
}

// fuzzRawDecode throws arbitrary bytes at Raw.Decode: it must never panic
// and never over-read — every emitted entry consumes 4+width bytes of
// payload, so a decoder claiming more entries than the buffer can carry has
// read past its input.
func fuzzRawDecode(f *testing.F, c Raw) {
	f.Add(c.Encode([]uint32{0, 1, 2, 500, 501, 99999}, []uint64{0, 1, 2, 3, 314, 271}))
	f.Add(c.Encode(nil, nil))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		emitted := 0
		_ = c.Decode(data, func(uint32, uint64) error {
			emitted++
			return nil
		})
		if emitted > 0 && emitted > len(data)/(4+c.Width()) {
			t.Fatalf("emitted %d entries from %d bytes: over-read", emitted, len(data))
		}
	})
}

// fuzzAdaptiveDecode throws arbitrary bytes at Adaptive.Decode: it must
// never panic, call fn at most count times, and hand out strictly
// ascending ids from every payload it accepts.
func fuzzAdaptiveDecode(f *testing.F, c Adaptive) {
	mask := wordMask(c.Width())
	sparse := []uint32{3, 900, 70000, 70001, 1 << 30}
	for _, b := range []struct {
		ids  []uint32
		vals []uint64
	}{
		{seqIDs(64), distinctVals(64)},                                       // bitmap+words
		{sparse, []uint64{0x0123456789abcdef, 0xfedcba98, 0x0f1e2d3c, 1, 2}}, // gaps+words
		{seqIDs(64), repeatedVals(64)},                                       // bitmap+xor
		{sparse, repeatedVals(len(sparse))},                                  // gaps+xor
		{nil, nil},
	} {
		vals := make([]uint64, len(b.vals))
		for i, v := range b.vals {
			vals[i] = v & mask
		}
		f.Add(c.Encode(b.ids, vals))
	}
	f.Add([]byte{})
	f.Add([]byte{flagBitmap, 3, 10, 0b10101, 1, 2, 3})         // a bit past the last id
	f.Add([]byte{flagBitmap | flagXOR, 4, 10, 0b101, 1, 2, 3}) // popcount short of count
	f.Fuzz(func(t *testing.T, data []byte) {
		count := uint64(0)
		if len(data) > 0 {
			count, _ = binary.Uvarint(data[1:])
		}
		calls, prev := uint64(0), int64(-1)
		ascending := true
		err := c.Decode(data, func(id uint32, _ uint64) error {
			calls++
			if calls > count {
				t.Fatalf("fn ran %d times for count %d", calls, count)
			}
			ascending = ascending && int64(id) > prev
			prev = int64(id)
			return nil
		})
		if err == nil && !ascending {
			t.Fatalf("accepted a payload with non-ascending ids")
		}
	})
}

func FuzzRawRoundTrip(f *testing.F)      { fuzzRoundTrip(f, Raw{}) }
func FuzzAdaptiveRoundTrip(f *testing.F) { fuzzRoundTrip(f, Adaptive{}) }

func FuzzRawDecode(f *testing.F)      { fuzzRawDecode(f, Raw{}) }
func FuzzAdaptiveDecode(f *testing.F) { fuzzAdaptiveDecode(f, Adaptive{}) }

// Width-4 targets: the narrow-word codecs ship the F32/U32 domains and get
// the same round-trip and robustness treatment.

func FuzzRawW4RoundTrip(f *testing.F)      { fuzzRoundTrip(f, Raw{W: 4}) }
func FuzzAdaptiveW4RoundTrip(f *testing.F) { fuzzRoundTrip(f, Adaptive{W: 4}) }

func FuzzRawW4Decode(f *testing.F)      { fuzzRawDecode(f, Raw{W: 4}) }
func FuzzAdaptiveW4Decode(f *testing.F) { fuzzAdaptiveDecode(f, Adaptive{W: 4}) }
