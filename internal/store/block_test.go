package store

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"testing"
)

// refDecode is the plain block decoder: one value at a time, one byte at a
// time. It returns the values decoded before raw ran out and the bytes they
// took, control bytes included — decodeBlock's contract, without its table.
func refDecode(raw []byte, cnt int) (vals []uint32, used int) {
	nc := (cnt + 3) / 4
	if nc > len(raw) {
		return nil, 0
	}
	p := nc
	for i := 0; i < cnt; i++ {
		l := int(raw[i/4]>>(2*(i%4))&3) + 1
		if p+l > len(raw) {
			break
		}
		var v uint32
		for j := 0; j < l; j++ {
			v |= uint32(raw[p+j]) << (8 * j)
		}
		vals = append(vals, v)
		p += l
	}
	return vals, p
}

// tight returns b with its capacity cut to its length, so a decoder that
// reads past len(b) panics instead of reading the bytes that follow.
func tight(b []byte) []byte { return b[:len(b):len(b)] }

// checkRoundTrip encodes vals behind a non-empty prefix, checks the
// encoding's size and its unused codes, and decodes it back.
func checkRoundTrip(t *testing.T, vals []uint32) {
	t.Helper()
	prefix := []byte{0xaa, 0xbb}
	enc := appendBlock(slices.Clone(prefix), vals)
	if !slices.Equal(enc[:len(prefix)], prefix) {
		t.Fatalf("appendBlock overwrote the %d bytes before the block", len(prefix))
	}
	enc = tight(enc[len(prefix):])
	want := (len(vals) + 3) / 4
	for _, v := range vals {
		want += max(1, (bits.Len32(v)+7)/8)
	}
	if len(enc) != want {
		t.Fatalf("%d values encode to %d bytes, want %d", len(vals), len(enc), want)
	}
	if r := len(vals) % 4; r != 0 && enc[len(vals)/4]>>(2*r) != 0 {
		t.Fatalf("unused codes of the last control byte are %08b", enc[len(vals)/4])
	}
	got := make([]uint32, len(vals))
	if k, used := decodeBlock(got, enc); k != len(vals) || used != len(enc) {
		t.Fatalf("decodeBlock = (%d, %d), want (%d, %d)", k, used, len(vals), len(enc))
	}
	if !slices.Equal(got, vals) {
		t.Fatalf("round trip of %d values differs", len(vals))
	}
	if len(vals) > 0 {
		// One byte short: the last value is cut off, never completed.
		if k, _ := decodeBlock(got, tight(enc[:len(enc)-1])); k != len(vals)-1 {
			t.Fatalf("a block one byte short decoded %d of %d values", k, len(vals))
		}
	}
}

// TestBlockCodecBoundaries round-trips every value-length boundary at every
// count residue mod 4, empty blocks and a hub block beyond 65,536 values.
func TestBlockCodecBoundaries(t *testing.T) {
	bounds := []uint32{0, 255, 256, 65535, 65536, 1<<24 - 1, 1 << 24, MaxVertices - 1, 1<<32 - 1}
	checkRoundTrip(t, nil)
	for _, v := range bounds {
		for cnt := 1; cnt <= 9; cnt++ {
			checkRoundTrip(t, slices.Repeat([]uint32{v}, cnt))
		}
	}
	for cnt := 0; cnt <= 2*len(bounds); cnt++ {
		vals := make([]uint32, cnt)
		for i := range vals {
			vals[i] = bounds[(i*5)%len(bounds)]
		}
		checkRoundTrip(t, vals)
	}
	hub := make([]uint32, 70001)
	for i := range hub {
		hub[i] = bounds[i%len(bounds)] >> (i % 7)
	}
	checkRoundTrip(t, hub)
}

// FuzzBlockCodec: any values survive appendBlock → decodeBlock, and on any
// bytes decodeBlock agrees with refDecode — values, count and bytes used —
// leaves the ids it could not decode alone, and never reads past raw.
func FuzzBlockCodec(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0x1b, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, uint16(4))
	f.Add(appendBlock(nil, []uint32{0, 255, 256, 65535, 65536, 1 << 24, MaxVertices - 1}), uint16(7))
	f.Add(slices.Repeat([]byte{0xff}, 40), uint16(9))
	f.Fuzz(func(t *testing.T, raw []byte, cnt uint16) {
		vals := make([]uint32, len(raw)/4)
		for i := range vals {
			v := binary.LittleEndian.Uint32(raw[4*i:])
			vals[i] = v >> (8 * (v & 3)) // spread the values over all four lengths
		}
		checkRoundTrip(t, vals)

		want, wantUsed := refDecode(raw, int(cnt))
		ids := slices.Repeat([]uint32{0xdeadbeef}, int(cnt))
		k, used := decodeBlock(ids, tight(raw))
		if k != len(want) || used != wantUsed {
			t.Fatalf("decodeBlock = (%d, %d), reference (%d, %d)", k, used, len(want), wantUsed)
		}
		if !slices.Equal(ids[:k], want) {
			t.Fatalf("decoded %v, reference %v", ids[:k], want)
		}
		for _, v := range ids[k:] {
			if v != 0xdeadbeef {
				t.Fatalf("decodeBlock wrote past the %d values it decoded", k)
			}
		}
	})
}
