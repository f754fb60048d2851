// Package compress provides the wire codecs for the engine's per-superstep
// delta sync: batches of (vertex id, value bits) pairs, whose volume §4.2
// makes SLFE's communication bottleneck. Values are the bit words of the
// engine's value domain; both codecs take the word width in bytes as W (4
// or 8; 0 means 8), which ranks share as configuration, not on the wire.
//
// Raw is the fixed-width format. Adaptive is one shaped format: a flags
// byte, the uvarint count, then one of four layouts that the encoder reads
// off the batch, with no trial encodings. Ids, which must ascend, go as:
//
//   - bitmap: the first id as a uvarint, then one bit per id in
//     (first, last], low bit first, ending with the last id's byte, then
//     the values in id order. The encoder picks it in O(1) when
//     last-first ≤ 8·(count-1): the bitmap then takes at most count-1
//     bytes and gaps at least that many, so it is never the larger form.
//   - gaps: each id minus its predecessor minus one (the first as is) as a
//     uvarint, followed by its value.
//
// Values go as words, fixed W-byte little-endian, or as xor: each word
// XORed with its predecessor and byte-reversed, as a uvarint, so that the
// high bytes a float's information sits in come out short and a repeated
// value costs one byte. One counting pass over the values, which writes
// nothing, picks the smaller (a tie keeps words). No section carries a
// length: a bitmap ends with its (count-1)th set bit.
package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Codec encodes and decodes one delta batch of parallel slices: vals[i] is
// the value-bit word of vertex ids[i]. A word of a 4-byte codec must fit in
// its low 32 bits; the high bits are dropped on the wire.
type Codec interface {
	// Name identifies the codec in experiment tables.
	Name() string
	// Width is the value word width in bytes (4 or 8).
	Width() int
	// Encode serialises the (ids[i], vals[i]) pairs into a fresh buffer.
	Encode(ids []uint32, vals []uint64) []byte
	// AppendEncode appends the encoding to dst, so a kept buffer is reused.
	AppendEncode(dst []byte, ids []uint32, vals []uint64) []byte
	// Layout names the layout of an encoded payload, for metrics.
	Layout(payload []byte) string
	// Decode calls fn for every encoded pair, in encoding order.
	Decode(buf []byte, fn func(id uint32, val uint64) error) error
}

// widthOf normalises a codec's W field: anything but 4 means 8.
func widthOf(w int) int {
	if w == 4 {
		return 4
	}
	return 8
}

// Raw is the uncompressed codec: u32 count, then fixed (u32 id, value-bits)
// pairs, the value occupying Width() bytes.
type Raw struct {
	// W is the value word width in bytes: 4 or 8 (0 means 8).
	W int
}

// Name, Width and Layout implement Codec.
func (Raw) Name() string         { return "raw" }
func (c Raw) Width() int         { return widthOf(c.W) }
func (Raw) Layout([]byte) string { return "raw" }

// Encode implements Codec.
func (c Raw) Encode(ids []uint32, vals []uint64) []byte {
	return c.AppendEncode(make([]byte, 0, 4+len(ids)*(4+c.Width())), ids, vals)
}

// AppendEncode implements Codec.
func (c Raw) AppendEncode(dst []byte, ids []uint32, vals []uint64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ids)))
	for i, id := range ids {
		dst = appendWord(binary.LittleEndian.AppendUint32(dst, id), c.Width(), vals[i])
	}
	return dst
}

// Decode implements Codec.
func (c Raw) Decode(buf []byte, fn func(id uint32, val uint64) error) error {
	w := c.Width()
	if len(buf) < 4 || len(buf) != 4+int(binary.LittleEndian.Uint32(buf))*(4+w) {
		return fmt.Errorf("compress: raw payload of %d bytes does not match its count (width %d)", len(buf), w)
	}
	for off := 4; off < len(buf); off += 4 + w {
		if err := fn(binary.LittleEndian.Uint32(buf[off:]), readWord(buf[off+4:], w)); err != nil {
			return err
		}
	}
	return nil
}

// Adaptive is the shaped codec described in the package documentation.
type Adaptive struct {
	// W is the value word width in bytes: 4 or 8 (0 means 8).
	W int
}

// Adaptive's flags byte: its layout bits (any other is corrupt) and names.
const (
	flagBitmap byte = 1 << iota // ids as a bitmap, else as gaps
	flagXOR                     // values as XOR residues, else as words
)

var layouts = [...]string{"gaps+words", "bitmap+words", "gaps+xor", "bitmap+xor"}

// ErrNotAscending is Adaptive's panic value for unsorted ids, a bug.
var ErrNotAscending = errors.New("compress: ids must be ascending")

// Name, Width and Layout implement Codec.
func (Adaptive) Name() string                 { return "adaptive" }
func (c Adaptive) Width() int                 { return widthOf(c.W) }
func (Adaptive) Layout(payload []byte) string { return layouts[payload[0]&(flagBitmap|flagXOR)] }

// Encode implements Codec; it panics with ErrNotAscending on unsorted ids.
func (c Adaptive) Encode(ids []uint32, vals []uint64) []byte {
	return c.AppendEncode(make([]byte, 0, 8+(1+c.Width())*len(ids)), ids, vals)
}

// AppendEncode implements Codec; it panics like Encode.
func (c Adaptive) AppendEncode(dst []byte, ids []uint32, vals []uint64) []byte {
	w, n := c.Width(), len(ids)
	var flags byte
	if n > 0 && ids[n-1] >= ids[0] && uint64(ids[n-1]-ids[0]) <= 8*uint64(n-1) {
		flags = flagBitmap
	}
	if xorSmaller(w, vals) {
		flags |= flagXOR
	}
	bitmap, xor := flags&flagBitmap != 0, flags&flagXOR != 0
	dst = binary.AppendUvarint(append(dst, flags), uint64(n))
	if bitmap {
		first, last := ids[0], ids[n-1]
		dst = binary.AppendUvarint(dst, uint64(first))
		k := (int(last-first) + 7) / 8
		dst = slices.Grow(dst, k)[:len(dst)+k]
		bm := dst[len(dst)-k:]
		clear(bm)
		for i := 1; i < n; i++ {
			if ids[i] <= ids[i-1] || ids[i] > last {
				panic(ErrNotAscending)
			}
			b := ids[i] - first - 1
			bm[b>>3] |= 1 << (b & 7)
		}
	}
	mask, prev, prevID := uint64(math.MaxUint64)>>(64-8*w), uint64(0), int64(-1)
	for i, val := range vals[:n] {
		if id := int64(ids[i]); !bitmap {
			if id <= prevID {
				panic(ErrNotAscending)
			}
			dst = binary.AppendUvarint(dst, uint64(id-prevID-1)) // the first id as is; a dense run's ids cost a zero byte
			prevID = id
		}
		if xor {
			val &= mask
			dst = binary.AppendUvarint(dst, reverse(w, val^prev))
			prev = val
		} else {
			dst = appendWord(dst, w, val)
		}
	}
	return dst
}

// uvarintLen[l] is the uvarint length of a value l bits long.
var uvarintLen = [65]uint8{1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4,
	5, 5, 5, 5, 5, 5, 5, 6, 6, 6, 6, 6, 6, 6, 7, 7, 7, 7, 7, 7, 7, 8, 8, 8, 8, 8, 8, 8, 9, 9, 9, 9, 9, 9, 9, 10}

// xorSmaller is the values' counting pass: it reports whether XOR residues
// as uvarints take fewer bytes than fixed words, and writes nothing.
func xorSmaller(w int, vals []uint64) bool {
	words, size, mask, prev := w*len(vals), 0, uint64(math.MaxUint64)>>(64-8*w), uint64(0)
	for _, val := range vals {
		val &= mask
		if size += int(uvarintLen[bits.Len64(reverse(w, val^prev))]); size >= words {
			return false
		}
		prev = val
	}
	return size < words
}

// Decode implements Codec. It accepts only what the encoder can write, so
// ids ascend in every payload it accepts: it rejects unknown flags, ids
// beyond uint32, a bitmap without exactly count-1 set bits, width-4 residues
// over 32 bits, truncation and trailing bytes. Only errors allocate.
func (c Adaptive) Decode(buf []byte, fn func(id uint32, val uint64) error) error {
	if len(buf) == 0 || int(buf[0]) >= len(layouts) {
		return errors.New("compress: empty adaptive payload or unknown layout flags")
	}
	count, n := binary.Uvarint(buf[1:])
	if n <= 0 {
		return errors.New("compress: bad adaptive count")
	}
	decode := gaps
	if buf[0]&flagBitmap != 0 && count > 0 {
		decode = bitmap
	}
	off, err := decode(buf, 1+n, count, c.Width(), buf[0]&flagXOR != 0, fn)
	if err == nil && off != len(buf) {
		err = fmt.Errorf("compress: %d trailing bytes after %d entries", len(buf)-off, count)
	}
	return err
}

// gaps decodes count gap-layout entries from buf[off:], each id followed by
// its value, and returns the offset after the last.
func gaps(buf []byte, off int, count uint64, w int, xor bool, fn func(id uint32, val uint64) error) (int, error) {
	id, prev := uint64(0), uint64(0)
	for i := uint64(0); i < count; i++ {
		var gap, val uint64
		var n, m int
		// Under xor a gap and its residue usually share one 8-byte load,
		// whose clear high bits end both: decode them without a loop.
		var u, stops uint64
		if xor && len(buf)-off >= 8 {
			u = binary.LittleEndian.Uint64(buf[off:])
			stops = ^u & 0x8080808080808080
		}
		if stops&(stops-1) != 0 {
			n, m = bits.TrailingZeros64(stops)/8+1, bits.TrailingZeros64(stops&(stops-1))/8+1
			gap, val, n = compact(u&(1<<(8*n)-1)), compact(u>>(8*n)&(1<<(8*(m-n))-1)), m
		} else {
			// A gap of at most five bytes is below 2^35, so id+gap+1 below
			// cannot wrap into a descending id that passes the range check.
			if gap, n = binary.Uvarint(buf[off:]); n <= 0 || n > 5 {
				return 0, fmt.Errorf("compress: bad id at entry %d", i)
			}
			if xor {
				val, m = binary.Uvarint(buf[off+n:])
			} else if len(buf)-off-n >= w {
				val, m = readWord(buf[off+n:], w), w
			}
			if n += m; m <= 0 {
				return 0, fmt.Errorf("compress: bad value at entry %d", i)
			}
		}
		if i > 0 {
			gap += id + 1 // undo the gap-1 bias
		}
		if id, off = gap, off+n; id > math.MaxUint32 || w == 4 && val > math.MaxUint32 {
			return 0, fmt.Errorf("compress: bad entry %d", i)
		}
		if xor {
			prev ^= reverse(w, val)
			val = prev
		}
		if err := fn(uint32(id), val); err != nil {
			return 0, err
		}
	}
	return off, nil
}

// bitmap decodes count > 0 bitmap-layout entries from buf[off:] — the
// first id, the bitmap of the others, then every value — and returns the
// offset after the last.
func bitmap(buf []byte, off int, count uint64, w int, xor bool, fn func(id uint32, val uint64) error) (int, error) {
	first, n := binary.Uvarint(buf[off:])
	if n <= 0 || first > math.MaxUint32 {
		return 0, errors.New("compress: bad bitmap first id")
	}
	// The bitmap ends with the byte that holds its (count-1)th set bit, so
	// one more set bit up to there is corrupt.
	off, end := off+n, off+n
	for seen := uint64(0); seen < count-1; end++ {
		if end == len(buf) {
			return 0, fmt.Errorf("compress: bitmap holds %d of %d ids", seen, count-1)
		}
		if seen += uint64(bits.OnesCount8(buf[end])); seen > count-1 {
			return 0, fmt.Errorf("compress: bitmap holds more than %d ids", count-1)
		}
	}
	bm, off := buf[off:end], end
	if len(bm) > 0 && first+uint64(8*len(bm)-bits.LeadingZeros8(bm[len(bm)-1])) > math.MaxUint32 {
		return 0, errors.New("compress: bitmap id overflows uint32")
	}
	if !xor && uint64(len(buf)-off) != count*uint64(w) {
		return 0, fmt.Errorf("compress: %d value bytes for %d entries (width %d)", len(buf)-off, count, w)
	}
	// Walk the bitmap a word at a time, b its bit offset. The first id
	// rides on a virtual word before it whose only bit is at offset -1.
	prev := uint64(0)
	for b := -64; b < 8*len(bm); b += 64 {
		word := uint64(1) << 63
		if b >= 0 {
			word = loadWord(bm[b/8:])
		}
		for ; word != 0; word &= word - 1 {
			id := first + 1 + uint64(b+bits.TrailingZeros64(word))
			val := uint64(0)
			if xor {
				x, n := binary.Uvarint(buf[off:])
				if n <= 0 || w == 4 && x > math.MaxUint32 {
					return 0, fmt.Errorf("compress: bad value residue for id %d", id)
				}
				prev ^= reverse(w, x)
				val, off = prev, off+n
			} else {
				val, off = readWord(buf[off:], w), off+w
			}
			if err := fn(uint32(id), val); err != nil {
				return 0, err
			}
		}
	}
	return off, nil
}

// compact gathers the 7-bit groups of a uvarint loaded little-endian.
func compact(v uint64) uint64 {
	return v&0x7f | v>>1&(0x7f<<7) | v>>2&(0x7f<<14) | v>>3&(0x7f<<21) |
		v>>4&(0x7f<<28) | v>>5&(0x7f<<35) | v>>6&(0x7f<<42) | v>>7&(0x7f<<49)
}

// appendWord appends val as a little-endian w-byte word.
func appendWord(dst []byte, w int, val uint64) []byte {
	if w == 4 {
		return binary.LittleEndian.AppendUint32(dst, uint32(val))
	}
	return binary.LittleEndian.AppendUint64(dst, val)
}

// readWord reads a little-endian w-byte word.
func readWord(b []byte, w int) uint64 {
	if w == 4 {
		return uint64(binary.LittleEndian.Uint32(b))
	}
	return binary.LittleEndian.Uint64(b)
}

// loadWord reads up to eight bytes of b as a little-endian word.
func loadWord(b []byte) uint64 {
	var word [8]byte
	copy(word[:], b)
	return binary.LittleEndian.Uint64(word[:])
}

// reverse byte-reverses a word within the width: the significant high
// bytes of an XOR residue move to the low end, where uvarint is cheap.
func reverse(w int, x uint64) uint64 {
	if w == 4 {
		return uint64(bits.ReverseBytes32(uint32(x)))
	}
	return bits.ReverseBytes64(x)
}

// StreamEncoder encodes delta-sync chunks into one reusable buffer, which
// transports never retain past Send. Build one with NewStreamEncoder; it
// must not be shared by concurrent encoders.
type StreamEncoder struct {
	codec Codec
	buf   []byte
}

// NewStreamEncoder returns a per-chunk encoder for codec (nil means Raw{}).
func NewStreamEncoder(codec Codec) StreamEncoder {
	if codec == nil {
		codec = Raw{}
	}
	return StreamEncoder{codec: codec}
}

// EncodeChunk encodes one chunk and returns it with its layout name; the
// payload aliases the encoder's buffer until the next EncodeChunk.
func (e *StreamEncoder) EncodeChunk(ids []uint32, vals []uint64) ([]byte, string) {
	e.buf = e.codec.AppendEncode(e.buf[:0], ids, vals)
	return e.buf, e.codec.Layout(e.buf)
}
