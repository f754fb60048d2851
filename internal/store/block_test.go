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
	// One list per value and every sum in range: the ids are the values.
	rel := make([]int, len(vals)+1)
	for i := range rel {
		rel[i] = i
	}
	got := make([]uint32, len(vals))
	if k, used, over := decodeBlock(got, enc, rel, 1<<32); k != len(vals) || used != len(enc) || over >= 0 {
		t.Fatalf("decodeBlock = (%d, %d, %d), want (%d, %d, -1)", k, used, over, len(vals), len(enc))
	}
	if !slices.Equal(got, vals) {
		t.Fatalf("round trip of %d values differs", len(vals))
	}
	if len(vals) > 0 {
		// One byte short: the last value is cut off, never completed.
		if k, _, _ := decodeBlock(got, tight(enc[:len(enc)-1]), rel, 1<<32); k != len(vals)-1 {
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

// layoutRel turns layout bytes into a list layout over cnt values for
// decodeBlock: byte j is list j's length, cut at cnt, and a last list takes
// whatever remains.
func layoutRel(layout []byte, cnt int) []int {
	rel := []int{0}
	for _, l := range layout {
		rel = append(rel, min(rel[len(rel)-1]+int(l), cnt))
	}
	return append(rel, cnt)
}

// refPrefix is the reference list decode over vals, the values a block
// decoded to: each list of rel (cut at len(vals)) summed value by value, a
// sum ≥ n read as 0, and over the index of the first such value (-1 if none).
func refPrefix(vals []uint32, rel []int, n uint64) (ids []uint32, over int) {
	ids, over = make([]uint32, len(vals)), -1
	for j := 0; j+1 < len(rel); j++ {
		var sum uint64
		for i := rel[j]; i < min(rel[j+1], len(vals)); i++ {
			sum += uint64(vals[i])
			if sum < n {
				ids[i] = uint32(sum)
			} else if over < 0 {
				over = i
			}
		}
	}
	return ids, over
}

// FuzzBlockCodec: any values survive appendBlock → decodeBlock, and on any
// bytes, list layout and vertex count decodeBlock agrees with refDecode
// followed by refPrefix — ids, count, bytes used and the first id out of
// range — zeroes the ids it could not decode, and never reads past raw.
func FuzzBlockCodec(f *testing.F) {
	f.Add([]byte{}, uint16(0), []byte{}, uint32(0))
	f.Add([]byte{0x1b, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, uint16(4), []byte{1, 0, 2}, uint32(12))
	f.Add(appendBlock(nil, []uint32{0, 255, 256, 65535, 65536, 1 << 24, MaxVertices - 1}), uint16(7), []byte{3, 3}, uint32(MaxVertices))
	f.Add(slices.Repeat([]byte{0xff}, 40), uint16(9), []byte{0, 5}, uint32(1<<32-1))
	f.Add(appendBlock(nil, slices.Repeat([]uint32{3}, 24)), uint16(24), []byte{5, 0, 0, 9, 1}, uint32(20))
	f.Fuzz(func(t *testing.T, raw []byte, cnt uint16, layout []byte, n uint32) {
		vals := make([]uint32, len(raw)/4)
		for i := range vals {
			v := binary.LittleEndian.Uint32(raw[4*i:])
			vals[i] = v >> (8 * (v & 3)) // spread the values over all four lengths
		}
		checkRoundTrip(t, vals)

		rel := layoutRel(layout, int(cnt))
		plain, wantUsed := refDecode(raw, int(cnt))
		want, wantOver := refPrefix(plain, rel, uint64(n))
		ids := slices.Repeat([]uint32{0xdeadbeef}, int(cnt))
		k, used, over := decodeBlock(ids, tight(raw), rel, uint64(n))
		if k != len(want) || used != wantUsed || over != wantOver {
			t.Fatalf("decodeBlock = (%d, %d, %d), reference (%d, %d, %d)", k, used, over, len(want), wantUsed, wantOver)
		}
		if !slices.Equal(ids[:k], want) {
			t.Fatalf("decoded %v, reference %v", ids[:k], want)
		}
		for _, v := range ids[k:] {
			if v != 0 {
				t.Fatalf("a value past the %d decoded reads %#x, not 0", k, v)
			}
		}
	})
}
