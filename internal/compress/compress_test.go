package compress

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// widths are the supported value word widths in bytes.
var widths = []int{8, 4}

func codecsW(w int) []Codec {
	return []Codec{Raw{W: w}, Adaptive{W: w}}
}

func codecs() []Codec { return codecsW(8) }

// wordMask returns the live-bit mask of a width.
func wordMask(w int) uint64 { return math.MaxUint64 >> (64 - 8*w) }

type pair struct {
	id  uint32
	val uint64
}

func f64bits(vals []float64) []uint64 {
	out := make([]uint64, len(vals))
	for i, v := range vals {
		out[i] = math.Float64bits(v)
	}
	return out
}

func roundTrip(t *testing.T, c Codec, ids []uint32, vals []uint64) []pair {
	t.Helper()
	buf := c.Encode(ids, vals)
	var got []pair
	if err := c.Decode(buf, func(id uint32, val uint64) error {
		got = append(got, pair{id, val})
		return nil
	}); err != nil {
		t.Fatalf("%s/w%d: decode: %v", c.Name(), c.Width(), err)
	}
	return got
}

func TestRoundTripBasic(t *testing.T) {
	ids := []uint32{0, 2, 3, 5, 7}
	vals := f64bits([]float64{3.14, -1, math.Inf(1), 1e-300, -0.0})
	for _, c := range codecs() {
		got := roundTrip(t, c, ids, vals)
		if len(got) != len(ids) {
			t.Fatalf("%s: got %d pairs, want %d", c.Name(), len(got), len(ids))
		}
		for i := range ids {
			if got[i].id != ids[i] {
				t.Fatalf("%s: entry %d: id %d, want %d", c.Name(), i, got[i].id, ids[i])
			}
			if got[i].val != vals[i] {
				t.Fatalf("%s: entry %d: value %x, want %x", c.Name(), i, got[i].val, vals[i])
			}
		}
	}
}

// Width-4 codecs must round-trip every 32-bit pattern (float32 bits,
// integer labels) in 4-byte words.
func TestRoundTripWidth4(t *testing.T) {
	ids := []uint32{0, 2, 3, 5, 7, 4_000_000_000}
	vals := []uint64{
		uint64(math.Float32bits(3.14)),
		uint64(math.Float32bits(float32(math.Inf(1)))),
		0,
		math.MaxUint32,
		12345,
		uint64(math.Float32bits(-0.0)),
	}
	for _, c := range codecsW(4) {
		got := roundTrip(t, c, ids, vals)
		if len(got) != len(ids) {
			t.Fatalf("%s/w4: got %d pairs, want %d", c.Name(), len(got), len(ids))
		}
		for i := range ids {
			if got[i].id != ids[i] || got[i].val != vals[i] {
				t.Fatalf("%s/w4: entry %d: (%d, %x), want (%d, %x)",
					c.Name(), i, got[i].id, got[i].val, ids[i], vals[i])
			}
		}
	}
}

// Width-4 payloads must cost roughly half their width-8 counterparts on
// the fixed-width codecs — the whole point of the narrow domains.
func TestWidth4HalvesFixedWidthPayloads(t *testing.T) {
	n := 4096
	ids := make([]uint32, n)
	vals := make([]uint64, n)
	for i := range ids {
		ids[i] = uint32(i)
		vals[i] = uint64(math.Float32bits(1.0 / float32(i+1)))
	}
	raw8 := len(Raw{W: 8}.Encode(ids, vals))
	raw4 := len(Raw{W: 4}.Encode(ids, vals))
	if raw4 >= raw8*3/4 {
		t.Fatalf("width-4 raw %dB vs width-8 raw %dB; expected a substantial cut", raw4, raw8)
	}
	ad8 := len(Adaptive{W: 8}.Encode(ids, vals))
	ad4 := len(Adaptive{W: 4}.Encode(ids, vals))
	if ad4 >= ad8*3/4 {
		t.Fatalf("width-4 adaptive %dB vs width-8 adaptive %dB; expected a substantial cut", ad4, ad8)
	}
}

func TestRoundTripEmpty(t *testing.T) {
	for _, w := range widths {
		for _, c := range codecsW(w) {
			if got := roundTrip(t, c, nil, nil); len(got) != 0 {
				t.Fatalf("%s/w%d: empty batch decoded to %d pairs", c.Name(), w, len(got))
			}
		}
	}
}

func TestRoundTripNaNPreservesBits(t *testing.T) {
	// NaN payload bits must survive (the engine never produces NaN but the
	// codec must not corrupt what it is given).
	for _, c := range codecs() {
		got := roundTrip(t, c, []uint32{9}, []uint64{math.Float64bits(math.NaN())})
		if got[0].val != math.Float64bits(math.NaN()) {
			t.Fatalf("%s: NaN bits changed", c.Name())
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(rawIDs []uint32, seed int64) bool {
		// Build an ascending unique id list bounded by a small universe.
		seen := map[uint32]bool{}
		for _, id := range rawIDs {
			seen[id%100000] = true
		}
		ids := make([]uint32, 0, len(seen))
		for id := range seen {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		rng := rand.New(rand.NewSource(seed))
		for _, w := range widths {
			mask := wordMask(w)
			vals := make([]uint64, len(ids))
			for i := range vals {
				switch rng.Intn(4) {
				case 0:
					vals[i] = math.Float64bits(math.Inf(1)) & mask
				case 1:
					vals[i] = uint64(rng.Intn(100)) // repeated small values
				default:
					vals[i] = rng.Uint64() & mask
				}
			}
			for _, c := range codecsW(w) {
				buf := c.Encode(ids, vals)
				i := 0
				err := c.Decode(buf, func(id uint32, val uint64) error {
					if id != ids[i] || val != vals[i] {
						t.Errorf("%s/w%d: entry %d mismatch", c.Name(), w, i)
					}
					i++
					return nil
				})
				if err != nil || i != len(ids) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Dense ascending ids with heavily repeated values (converging component
// labels) must compress well below Raw's 12 bytes/entry. The test keeps the
// name of the VarintXOR codec that served this regime before Adaptive's
// shaped layouts replaced it.
func TestVarintXORSmallerOnTypicalBatches(t *testing.T) {
	vals := f64bits(seq(4096, func(i int) float64 { return float64(i % 7) }))
	ids := seqIDs(len(vals))
	raw := Raw{}.Encode(ids, vals)
	ad := Adaptive{}.Encode(ids, vals)
	if len(ad) >= len(raw)/2 {
		t.Fatalf("adaptive %d bytes vs raw %d bytes; expected >2x reduction", len(ad), len(raw))
	}
}

// A dense superstep (every vertex changed, distinct values: the PageRank
// regime) must beat Raw's 12 bytes/entry by a quarter, since the bitmap
// carries the ids. The test keeps the name of the RLE codec that served
// this regime before Adaptive's shaped layouts replaced it.
func TestRLESmallerOnDenseRuns(t *testing.T) {
	vals := distinctVals(4096)
	ids := seqIDs(len(vals))
	raw := Raw{}.Encode(ids, vals)
	ad := Adaptive{}.Encode(ids, vals)
	if len(ad) >= len(raw)*3/4 {
		t.Fatalf("adaptive %d bytes vs raw %d bytes on a dense run", len(ad), len(raw))
	}
}

func seq(n int, f func(int) float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = f(i)
	}
	return out
}

func TestDecodeRejectsCorruptPayloads(t *testing.T) {
	ids := []uint32{0, 1, 2, 3}
	for _, w := range widths {
		vals := []uint64{1, 2, 3, 4}
		for _, c := range codecsW(w) {
			buf := c.Encode(ids, vals)
			for cut := 1; cut < len(buf); cut++ {
				if err := c.Decode(buf[:cut], func(uint32, uint64) error { return nil }); err == nil {
					t.Fatalf("%s/w%d: truncation at %d/%d went undetected", c.Name(), w, cut, len(buf))
				}
			}
			if err := c.Decode(nil, func(uint32, uint64) error { return nil }); err == nil {
				t.Fatalf("%s/w%d: nil payload accepted", c.Name(), w)
			}
			if err := c.Decode(append(append([]byte{}, buf...), 0xff), func(uint32, uint64) error { return nil }); err == nil {
				t.Fatalf("%s/w%d: trailing garbage accepted", c.Name(), w)
			}
		}
	}
}

func TestDecodeStopsOnCallbackError(t *testing.T) {
	ids := []uint32{0, 1, 2}
	vals := []uint64{1, 2, 3}
	for _, c := range codecs() {
		buf := c.Encode(ids, vals)
		calls := 0
		err := c.Decode(buf, func(uint32, uint64) error {
			calls++
			if calls == 2 {
				return errStop
			}
			return nil
		})
		if err != errStop || calls != 2 {
			t.Fatalf("%s: err=%v calls=%d", c.Name(), err, calls)
		}
	}
}

var errStop = errTest("stop")

type errTest string

func (e errTest) Error() string { return string(e) }

func TestAdaptiveEncodePanicsOnUnsortedIDs(t *testing.T) {
	for _, w := range widths {
		// Gap layout, descending and repeated; bitmap layout with an id past
		// the last, and with a repeat.
		for _, ids := range [][]uint32{{5, 3}, {0, 1000, 1000}, {0, 100, 5}, {0, 1, 1, 2}} {
			func() {
				defer func() {
					if recover() != ErrNotAscending {
						t.Fatalf("w%d %v: expected an ErrNotAscending panic", w, ids)
					}
				}()
				Adaptive{W: w}.Encode(ids, make([]uint64, len(ids)))
			}()
		}
	}
}

// The counting pass's length table must match the uvarints written.
func TestUvarintLenTable(t *testing.T) {
	for l := 1; l <= 64; l++ {
		for _, x := range []uint64{0, 1 << (l - 1), 1<<l - 1} { // 0, then the shortest and longest l-bit values
			if got, want := int(uvarintLen[bits.Len64(x)]), len(binary.AppendUvarint(nil, x)); got != want {
				t.Fatalf("uvarintLen for %#x: %d, want %d", x, got, want)
			}
		}
	}
}

// encodeAs encodes a batch in the layout flags names, whatever the rule
// would pick.
func encodeAs(w int, flags byte, ids []uint32, vals []uint64) []byte {
	dst := binary.AppendUvarint([]byte{flags}, uint64(len(ids)))
	prev := uint64(0)
	value := func(dst []byte, val uint64) []byte {
		if flags&flagXOR == 0 {
			return appendWord(dst, w, val)
		}
		dst = binary.AppendUvarint(dst, reverse(w, val^prev))
		prev = val
		return dst
	}
	if flags&flagBitmap == 0 {
		for i, id := range ids {
			gap := uint64(id)
			if i > 0 {
				gap = uint64(id-ids[i-1]) - 1
			}
			dst = value(binary.AppendUvarint(dst, gap), vals[i])
		}
		return dst
	}
	dst = binary.AppendUvarint(dst, uint64(ids[0]))
	bm := make([]byte, (ids[len(ids)-1]-ids[0]+7)/8)
	for _, id := range ids[1:] {
		b := id - ids[0] - 1
		bm[b>>3] |= 1 << (b & 7)
	}
	dst = append(dst, bm...)
	for _, val := range vals {
		dst = value(dst, val)
	}
	return dst
}

// The rule reads the layout off the batch, with no trial encodings. Its
// value form is always the smaller one, and where it picks the bitmap the
// bitmap is never larger than gaps, so the pick is the smallest of all four
// layouts. Outside the bitmap rule gaps may lose by a byte or so; the
// shapes below are those delta-sync sends.
func TestAdaptivePicksSmallestCandidate(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cases := []struct {
		name string
		ids  []uint32
		vals []uint64
		want byte
	}{
		{"dense-distinct", seqIDs(2048), distinctVals(2048), flagBitmap},
		{"dense-repeated", seqIDs(2048), repeatedVals(2048), flagBitmap | flagXOR},
		{"stride-8", strideIDs(512, 8), distinctVals(512), flagBitmap}, // the rule's edge
		{"stride-9", strideIDs(512, 9), distinctVals(512), 0},
		{"sparse-distinct", []uint32{7, 9000, 123456}, []uint64{0x0123456789abcdef, 0xfedcba9876543210, 0x0f1e2d3c4b5a6978}, 0},
		{"sparse-repeated", []uint32{7, 9000, 123456}, repeatedVals(3), flagXOR},
	}
	for trial := 0; trial < 200; trial++ {
		ids, vals := randomBatch(rng, 1+rng.Intn(300), 8)
		for i := range ids[:trial%2*len(ids)] {
			ids[i] *= 7 // wide gaps: the gap layout
		}
		cases = append(cases, struct {
			name string
			ids  []uint32
			vals []uint64
			want byte
		}{"random", ids, vals, 0xff})
	}
	for _, w := range widths {
		for _, tc := range cases {
			vals := make([]uint64, len(tc.vals))
			for i, v := range tc.vals {
				vals[i] = v & wordMask(w)
			}
			buf := Adaptive{W: w}.Encode(tc.ids, vals)
			if tc.want != 0xff && buf[0] != tc.want {
				t.Fatalf("%s/w%d: picked %s, want %s", tc.name, w, layouts[buf[0]], layouts[tc.want])
			}
			for flags := byte(0); flags < byte(len(layouts)); flags++ {
				alt := encodeAs(w, flags, tc.ids, vals)
				if flags == buf[0] && !bytes.Equal(alt, buf) {
					t.Fatalf("%s/w%d: %s payload differs from the reference layout", tc.name, w, layouts[flags])
				}
				rivals := flags&flagBitmap == buf[0]&flagBitmap || buf[0]&flagBitmap != 0
				if rivals && len(alt) < len(buf) {
					t.Fatalf("%s/w%d: picked %s (%d bytes) but %s takes %d", tc.name, w, layouts[buf[0]], len(buf), layouts[flags], len(alt))
				}
			}
		}
	}
}

func seqIDs(n int) []uint32 { return strideIDs(n, 1) }

func strideIDs(n, stride int) []uint32 {
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = uint32(i * stride)
	}
	return ids
}

func distinctVals(n int) []uint64 {
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = math.Float64bits(1.0 / float64(i+1))
	}
	return vals
}

func repeatedVals(n int) []uint64 {
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = math.Float64bits(float64(i % 3))
	}
	return vals
}

func TestDecodeRejectsUint64WrapAround(t *testing.T) {
	// A crafted gap near 2^64 must not wrap uint64 arithmetic past the
	// 32-bit range checks and decode to a non-ascending id without error;
	// neither may a bitmap start or end beyond uint32.
	nop := func(uint32, uint64) error { return nil }
	gaps := binary.AppendUvarint([]byte{0}, 2) // gaps+words, count 2
	gaps = binary.AppendUvarint(gaps, 5)       // id 5
	gaps = append(gaps, make([]byte, 8)...)
	gaps = binary.AppendUvarint(gaps, math.MaxUint64)
	gaps = append(gaps, make([]byte, 8)...)
	first := binary.AppendUvarint([]byte{flagBitmap, 1}, math.MaxUint32+1)
	first = append(first, make([]byte, 8)...)
	end := binary.AppendUvarint([]byte{flagBitmap, 2}, math.MaxUint32)
	end = append(end, 1)
	end = append(end, make([]byte, 16)...)
	for name, buf := range map[string][]byte{"gap": gaps, "bitmap first": first, "bitmap end": end} {
		if err := (Adaptive{}).Decode(buf, nop); err == nil {
			t.Errorf("%s beyond uint32 accepted", name)
		}
	}
}

// A width-4 xor payload whose residue exceeds 32 bits must be rejected, not
// silently truncated into a different word.
func TestAdaptiveWidth4RejectsWideResidue(t *testing.T) {
	buf := []byte{flagXOR, 1, 0} // gaps+xor, count 1, id 0
	buf = binary.AppendUvarint(buf, uint64(math.MaxUint32)+1)
	if err := (Adaptive{W: 4}).Decode(buf, func(uint32, uint64) error { return nil }); err == nil {
		t.Fatal("width-4 adaptive accepted a 33-bit value residue")
	}
}

func TestAdaptiveDecodeRejectsUnknownTag(t *testing.T) {
	for _, w := range widths {
		for _, flags := range []byte{4, 0x7f, 0xff} {
			if err := (Adaptive{W: w}).Decode([]byte{flags, 0}, func(uint32, uint64) error { return nil }); err == nil {
				t.Fatalf("w%d: unknown layout flags %#x accepted", w, flags)
			}
		}
		if err := (Adaptive{W: w}).Decode(nil, func(uint32, uint64) error { return nil }); err == nil {
			t.Fatalf("w%d: empty adaptive payload accepted", w)
		}
	}
}

// A bitmap the encoder cannot have written — a bit set past the last id,
// or more or fewer set bits than count-1 — must be rejected before fn
// sees a wrong id.
func TestAdaptiveRejectsNonCanonicalBitmap(t *testing.T) {
	// ids 10, 11, 13 as bitmap+words: first 10, bitmap 0b101, two more words.
	good := []byte{flagBitmap, 3, 10, 0b101}
	good = append(good, make([]byte, 3*8)...)
	if err := (Adaptive{}).Decode(good, func(uint32, uint64) error { return nil }); err != nil {
		t.Fatalf("canonical bitmap rejected: %v", err)
	}
	for _, tc := range []struct {
		name   string
		count  byte
		bitmap []byte
	}{
		{"pad bit set", 3, []byte{0b10101}},
		{"popcount above count", 2, []byte{0b101}},
		{"popcount below count", 4, []byte{0b101}},
	} {
		buf := append([]byte{flagBitmap, tc.count, 10}, tc.bitmap...)
		buf = append(buf, make([]byte, int(tc.count)*8)...)
		calls := 0
		if err := (Adaptive{}).Decode(buf, func(uint32, uint64) error { calls++; return nil }); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if calls > 0 {
			t.Errorf("%s: fn ran %d times before the bitmap was rejected", tc.name, calls)
		}
	}
}

func BenchmarkEncode(b *testing.B) {
	n := 1 << 14
	ids := make([]uint32, n)
	vals := make([]uint64, n)
	for i := range ids {
		ids[i] = uint32(i * 3)
		vals[i] = math.Float64bits(float64(i % 100))
	}
	for _, c := range codecs() {
		b.Run(c.Name(), func(b *testing.B) {
			b.ReportAllocs()
			var size int
			for i := 0; i < b.N; i++ {
				size = len(c.Encode(ids, vals))
			}
			b.ReportMetric(float64(size)/float64(n), "bytes/entry")
		})
	}
}
