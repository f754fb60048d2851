package store

import (
	"encoding/binary"
	"math/bits"
)

// The adjacency block codec (format v2) is Stream VByte (Lemire, Kurz and
// Rupp, 2018): a block of cnt values is ceil(cnt/4) control bytes, then the
// data bytes. Control byte i holds the 2-bit codes of values 4i..4i+3, the
// first in the low bits; a code is the value's byte length minus one, and the
// value is stored as that many low bytes, little-endian. Every length is thus
// known before the data is touched, so a group of four values decodes with
// one table lookup and four independent loads.

// groupTab[c] packs, for control byte c, the data offsets of the group's
// second, third and fourth values (bits 0–7, 8–15, 16–23) and the group's
// data length (bits 24–31).
var groupTab = func() (t [256]uint32) {
	for c := range t {
		off := uint32(0)
		for j := 0; j < 4; j++ {
			if j > 0 {
				t[c] |= off << (8 * (j - 1))
			}
			off += uint32(c>>(2*j))&3 + 1
		}
		t[c] |= off << 24
	}
	return t
}()

// codeMask keeps the low code+1 bytes of a 4-byte load.
func codeMask(code byte) uint32 { return ^uint32(0) >> (24 - 8*(code&3)) }

// appendBlock appends the encoding of vals to dst.
func appendBlock(dst []byte, vals []uint32) []byte {
	ctl := len(dst)
	dst = append(dst, make([]byte, (len(vals)+3)/4)...)
	for i, v := range vals {
		k := max(bits.Len32(v)+7, 8) >> 3
		dst[ctl+i/4] |= byte(k-1) << (2 * (i & 3))
		at := len(dst)
		dst = binary.LittleEndian.AppendUint32(dst, v)[:at+k]
	}
	return dst
}

// decodeBlock decodes the len(ids) values of the block raw as adjacency
// lists and writes absolute ids. List j is ids[rel[j]:rel[j+1]], and rel runs
// monotone from 0 to len(ids). A list's first value is absolute and the rest
// are gaps, so each value is written as its list's running sum — or as 0
// where that sum is ≥ n, with over the index of the first such value (-1 if
// none). It returns how many values it decoded in full and how many bytes of
// raw those took, control bytes included; on a short block k < len(ids) and
// ids[k:] read 0. It never reads past len(raw): groups of four take the table
// path only while 16 data bytes remain, and a byte-wise tail decodes the rest.
//
// The running sums are a second pass over the unpacked values, list by list,
// with no test in its inner loop: a list's sums only grow, so only its last
// is checked against n. Folding the sums into the group loop measured slower,
// since the extra live values spill to the stack.
func decodeBlock(ids []uint32, raw []byte, rel []int, n uint64) (k, used, over int) {
	k, used = unpack(ids, raw)
	over = -1
	// Lists run through ids[k:] too; what is summed there is cleared below.
	for j := 1; j < len(rel); j++ {
		dst := ids[rel[j-1]:rel[j]]
		sum := uint64(0)
		for i, x := range dst {
			sum += uint64(x)
			dst[i] = uint32(sum)
		}
		if sum < n {
			continue
		}
		// Sums only grow along a list, so this one holds an id out of range.
		// Every gap is below 2^32, so the written sums, which are the true
		// ones mod 2^32, give the gaps back.
		sum = 0
		prev := uint32(0)
		for i, x := range dst {
			sum += uint64(x - prev)
			prev = x
			if sum >= n {
				dst[i] = 0
				if over < 0 {
					over = rel[j-1] + i
				}
			}
		}
	}
	// What follows a truncation was never decoded: it reads 0, and no sum
	// through it is a defect.
	clear(ids[k:])
	if over >= k {
		over = -1
	}
	return k, used, over
}

// unpack decodes the block's raw values into ids; see decodeBlock.
func unpack(ids []uint32, raw []byte) (k, used int) {
	cnt := len(ids)
	nc := (cnt + 3) >> 2
	if nc > len(raw) {
		return 0, 0
	}
	ctl, data := raw[:nc], raw[nc:]
	i, p := 0, 0
	for ; i+4 <= cnt && p+16 <= len(data); i += 4 {
		c := ctl[i>>2]
		t := groupTab[c]
		d, out := data[p:p+16], ids[i:i+4:i+4]
		out[0] = binary.LittleEndian.Uint32(d) & codeMask(c)
		out[1] = binary.LittleEndian.Uint32(d[t&0xff:]) & codeMask(c>>2)
		out[2] = binary.LittleEndian.Uint32(d[t>>8&0xff:]) & codeMask(c>>4)
		out[3] = binary.LittleEndian.Uint32(d[t>>16&0xff:]) & codeMask(c>>6)
		p += int(t >> 24)
	}
	for ; i < cnt; i++ {
		l := int(ctl[i>>2]>>(2*(i&3))&3) + 1
		if p+l > len(data) {
			return i, nc + p
		}
		v := uint32(0)
		for j := p + l - 1; j >= p; j-- {
			v = v<<8 | uint32(data[j])
		}
		ids[i] = v
		p += l
	}
	return cnt, nc + p
}
