// Package ckpt provides BSP superstep checkpointing for the SLFE engine.
// Supersteps are barrier-aligned, so a consistent global snapshot is just
// every worker's state at the same iteration: each rank writes one shard
// per checkpoint (atomic rename) holding only the vertex range it owns, and
// a checkpoint is complete when every rank's shard for the same iteration
// exists. On restart MergeLatest folds every rank's shard of the latest
// complete checkpoint with Merge into one global state that seeds the
// engine, the standard Pregel-style restart scheme. A Writer persists a
// run's shards in the background: a tick is durable once the next tick
// starts or the run returns.
//
// Shards are domain-tagged: values are stored as the value domain's wire
// words at the domain's width, and the domain name is part of the frame, so
// a shard written by one property domain can never silently resume as
// another (the bits would be meaningless). Only the current format version
// is read; shards of the three older formats are rejected with an actionable
// error.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// Kind distinguishes the two engine loops; a checkpoint from one loop must
// not resume the other.
type Kind uint8

// Loop kinds.
const (
	MinMax Kind = 1
	Arith  Kind = 2
)

// State is one worker's checkpoint shard.
type State struct {
	// Program is the program name, verified on resume.
	Program string
	// Kind is the loop that produced the shard.
	Kind Kind
	// Iter is the superstep the snapshot was taken after.
	Iter uint32
	// Domain names the value domain the shard was written in ("f64",
	// "f32", "u32", ...); verified on resume.
	Domain string
	// Width is the domain's wire word width in bytes (4 or 8). Values are
	// stored at this width.
	Width uint8
	// Rank is the writing worker's rank; Merge places the shard by it,
	// independent of the file name the shard was read from.
	Rank uint32
	// Bounds are the partition boundaries of the run that wrote the shard
	// (nodes+1 entries, the last one |V|): the run's one static ownership
	// map, so every tick of a run records the same Bounds. The shard holds
	// the owned range [Bounds[Rank], Bounds[Rank+1]); Merge groups shards by
	// identical bounds and places each range by them. A merged state has no
	// Bounds: it holds every vertex.
	Bounds []uint32
	// Values is the owner's property array as the domain's wire words:
	// element i is vertex Bounds[Rank]+i, or vertex i in a merged state.
	Values []uint64
	// StableCnt / StableVal are the arith loop's Algorithm 5 state over the
	// same range as Values (StableVal as wire words like Values); empty for
	// the min/max loop.
	StableCnt []uint32
	StableVal []uint64
	// Sets holds the run's bitsets as sorted lists of global vertex ids,
	// inside the owned range in a shard. The one live key is "frontier"
	// (min/max: the next superstep's active vertices). Readers ignore keys
	// they do not know, e.g. the "caughtup"/"debt" lists of the retired
	// per-vertex start-late debt, and the "sparsedirty" list of the
	// retired sparse delta-sync.
	Sets map[string][]uint32
}

const magic = "SLCK"

// version is the current shard format: 2 introduced domain-tagged,
// width-aware value arrays; 3 added the writing rank and the partition
// bounds Merge places each shard by; 4 keeps the same fields but a shard's
// arrays and sets cover only the writer's owned range.
const version = 4

// width normalises the shard's word width (0 from a zero-value State means
// the legacy 8 bytes).
func (s *State) width() int {
	if s.Width == 4 {
		return 4
	}
	return 8
}

// AppendTo appends the shard's encoding, trailing CRC32 included, to dst
// and returns the extended slice. dst grows at most once, to the exact
// encoded size, so a caller that hands back its previous buffer encodes
// without allocating.
func (s *State) AppendTo(dst []byte) []byte {
	return AppendTyped(dst, s, s.Values, s.StableVal, func(w uint64) uint64 { return w })
}

// AppendTyped encodes s as AppendTo does, except that the Values and
// StableVal sections come from values and stableVal, each element converted
// through bits as it is written (s.Values and s.StableVal are not read). A
// caller holding its property array in a typed form — the engine's []V
// behind its domain's Bits — writes it straight into the frame instead of
// into a []uint64 first; the bytes equal AppendTo's over the converted
// arrays.
func AppendTyped[V any](dst []byte, s *State, values, stableVal []V, bits func(V) uint64) []byte {
	width := s.width()
	var kbuf [4]string
	keys := kbuf[:0]
	size := len(magic) + 2 + 4 + len(s.Program) + 1 + 4 + 4 + len(s.Domain) + 1 + 4 +
		8 + 4*len(s.Bounds) + 8 + width*len(values) + 8 + 4*len(s.StableCnt) +
		8 + width*len(stableVal) + 4 + 4
	for k, ids := range s.Sets {
		keys = append(keys, k)
		size += 4 + len(k) + 8 + 4*len(ids)
	}
	slices.Sort(keys)
	start := len(dst)
	buf := slices.Grow(dst, size)
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint16(buf, version)
	buf = appendString(buf, s.Program)
	buf = append(buf, byte(s.Kind))
	buf = binary.LittleEndian.AppendUint32(buf, s.Iter)
	buf = appendString(buf, s.Domain)
	buf = append(buf, byte(width))
	buf = binary.LittleEndian.AppendUint32(buf, s.Rank)
	buf = appendU32s(buf, s.Bounds)
	buf = appendWords(buf, values, bits, width)
	buf = appendU32s(buf, s.StableCnt)
	buf = appendWords(buf, stableVal, bits, width)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(keys)))
	for _, k := range keys {
		buf = appendString(buf, k)
		buf = appendU32s(buf, s.Sets[k])
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
}

// WriteTo serialises the shard with a trailing CRC32.
func (s *State) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(s.AppendTo(nil))
	return int64(n), err
}

// appendWords writes a length-prefixed word array at the given width,
// converting each element through bits. The caller has grown buf to hold
// it.
func appendWords[V any](buf []byte, vals []V, bits func(V) uint64, width int) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(vals)))
	off := len(buf)
	buf = buf[:off+width*len(vals)]
	// Advancing out by one word keeps a single bounds check per element.
	out := buf[off:]
	if width == 4 {
		for _, v := range vals {
			binary.LittleEndian.PutUint32(out, uint32(bits(v)))
			out = out[4:]
		}
	} else {
		for _, v := range vals {
			binary.LittleEndian.PutUint64(out, bits(v))
			out = out[8:]
		}
	}
	return buf
}

// appendU32s writes a length-prefixed uint32 array. The caller has grown
// buf to hold it.
func appendU32s(buf []byte, xs []uint32) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(xs)))
	off := len(buf)
	buf = buf[:off+4*len(xs)]
	out := buf[off:]
	for _, x := range xs {
		binary.LittleEndian.PutUint32(out, x)
		out = out[4:]
	}
	return buf
}

// ErrCorrupt reports a shard failing structural or checksum validation.
var ErrCorrupt = errors.New("ckpt: corrupt checkpoint shard")

// CheckBounds validates the shard's ownership ranges before anything slices
// per-rank state by them: at least two entries, starting at 0,
// non-decreasing, Rank inside them, and Values (and StableCnt/StableVal
// when present) exactly as long as the owned range. Merge calls it on every
// shard.
func (s *State) CheckBounds() error {
	b := s.Bounds
	if len(b) < 2 {
		return fmt.Errorf("%w: %d partition bounds; a bounds-tagged shard has at least 2", ErrCorrupt, len(b))
	}
	if b[0] != 0 {
		return fmt.Errorf("%w: partition bounds start at %d, not 0", ErrCorrupt, b[0])
	}
	for i := 1; i < len(b); i++ {
		if b[i] < b[i-1] {
			return fmt.Errorf("%w: partition bound %d decreases (%d after %d)", ErrCorrupt, i, b[i], b[i-1])
		}
	}
	if int(s.Rank) >= len(b)-1 {
		return fmt.Errorf("%w: rank %d outside bounds for %d workers", ErrCorrupt, s.Rank, len(b)-1)
	}
	lo, hi := b[s.Rank], b[s.Rank+1]
	if owned := int(hi - lo); len(s.Values) != owned {
		return fmt.Errorf("%w: rank %d holds %d values, its owned range [%d,%d) has %d", ErrCorrupt, s.Rank, len(s.Values), lo, hi, owned)
	}
	if len(s.StableCnt) != len(s.StableVal) || (len(s.StableCnt) != 0 && len(s.StableCnt) != len(s.Values)) {
		return fmt.Errorf("%w: rank %d has stable arrays of %d/%d entries for %d values", ErrCorrupt, s.Rank, len(s.StableCnt), len(s.StableVal), len(s.Values))
	}
	return nil
}

// ErrUntagged reports a version-1 shard: the pre-domain format carried no
// value-domain tag, so its bits cannot be trusted to match the running
// program's domain.
var ErrUntagged = errors.New("ckpt: checkpoint shard uses the untagged version-1 format (written before value domains existed); it cannot be resumed safely — delete the checkpoint directory and re-run, or replay it with a pre-domain build")

// ReadState deserialises a shard written by WriteTo.
func ReadState(r io.Reader) (*State, error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(buf) < len(magic)+2+4 {
		return nil, fmt.Errorf("%w: short file", ErrCorrupt)
	}
	body, sum := buf[:len(buf)-4], binary.LittleEndian.Uint32(buf[len(buf)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	d := &decoder{buf: body}
	if string(d.bytes(4)) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	switch v := d.u16(); v {
	case version:
	case 1:
		return nil, ErrUntagged
	case 2:
		return nil, errors.New("ckpt: checkpoint shard uses format version 2 (no writing rank or partition bounds), which this build no longer reads; delete the checkpoint directory and re-run")
	case 3:
		return nil, errors.New("ckpt: checkpoint shard uses format version 3 (every rank's full value array), which this build no longer reads; delete the checkpoint directory and re-run")
	default:
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	s := &State{}
	s.Program = d.string()
	s.Kind = Kind(d.bytes(1)[0])
	s.Iter = d.u32()
	s.Domain = d.string()
	s.Width = d.bytes(1)[0]
	if s.Width != 4 && s.Width != 8 {
		return nil, fmt.Errorf("%w: value width %d", ErrCorrupt, s.Width)
	}
	width := int(s.Width)
	s.Rank = d.u32()
	s.Bounds = d.u32s()
	s.Values = d.words(width)
	s.StableCnt = d.u32s()
	s.StableVal = d.words(width)
	nsets := d.u32()
	if nsets > 16 {
		return nil, fmt.Errorf("%w: %d sets", ErrCorrupt, nsets)
	}
	if nsets > 0 {
		s.Sets = make(map[string][]uint32, nsets)
		prev := ""
		for i := uint32(0); i < nsets; i++ {
			k := d.string()
			// WriteTo emits keys in ascending order; anything else (a
			// duplicate included) would not survive a round trip.
			if i > 0 && k <= prev {
				return nil, fmt.Errorf("%w: set %q out of order", ErrCorrupt, k)
			}
			prev = k
			s.Sets[k] = d.ids()
		}
	}
	if d.err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, d.err)
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.buf))
	}
	return s, nil
}

type decoder struct {
	buf []byte
	err error
}

func (d *decoder) bytes(n int) []byte {
	if d.err != nil || len(d.buf) < n {
		d.err = errors.New("truncated")
		return make([]byte, n)
	}
	out := d.buf[:n]
	d.buf = d.buf[n:]
	return out
}

func (d *decoder) u16() uint16 { return binary.LittleEndian.Uint16(d.bytes(2)) }
func (d *decoder) u32() uint32 { return binary.LittleEndian.Uint32(d.bytes(4)) }
func (d *decoder) u64() uint64 { return binary.LittleEndian.Uint64(d.bytes(8)) }

func (d *decoder) string() string {
	n := d.u32()
	if n > 1<<16 {
		d.err = errors.New("string too long")
		return ""
	}
	return string(d.bytes(int(n)))
}

func (d *decoder) lenCapped() int {
	n := d.u64()
	if d.err == nil && n > uint64(len(d.buf)) {
		// Each element takes at least one byte of the remaining buffer.
		d.err = errors.New("length exceeds payload")
		return 0
	}
	return int(n)
}

func (d *decoder) words(width int) []uint64 {
	n := d.lenCapped()
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		if width == 4 {
			out[i] = uint64(d.u32())
		} else {
			out[i] = d.u64()
		}
	}
	return out
}

func (d *decoder) u32s() []uint32 {
	n := d.lenCapped()
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = d.u32()
	}
	return out
}

func (d *decoder) ids() []uint32 { return d.u32s() }

func appendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

// Manager owns a checkpoint directory.
type Manager struct {
	// Dir is the checkpoint directory (created on first save).
	Dir string
	// Every is the checkpoint interval in supersteps (default 8).
	Every int
	// Resume makes a run restart from the latest complete checkpoint: the
	// cluster layer merges it (MergeLatest) and seeds the engine with the
	// result.
	Resume bool
}

// Interval returns the effective checkpoint interval.
func (m *Manager) Interval() int {
	if m.Every <= 0 {
		return 8
	}
	return m.Every
}

// ShouldSave reports whether a checkpoint is due after superstep iter.
func (m *Manager) ShouldSave(iter int) bool {
	every := m.Interval()
	return (iter+1)%every == 0
}

func (m *Manager) shardPath(iter uint32, rank int) string {
	return filepath.Join(m.Dir, fmt.Sprintf("ckpt-%08d-rank%03d.slck", iter, rank))
}

// Save writes rank's shard atomically and durably: temp file, fsync,
// rename, directory fsync. Without the syncs a crash shortly after Save
// could surface the renamed file empty or torn (the rename can reach disk
// before the data), which a resume would then mistake for corruption of an
// otherwise complete checkpoint.
func (m *Manager) Save(rank int, s *State) error {
	return m.writeAtomic(m.shardPath(s.Iter, rank), s.AppendTo(nil))
}

// syncFile and syncDir are indirection points so tests can inject write
// errors on the durability path.
var (
	syncFile = func(f *os.File) error { return f.Sync() }
	syncDir  = func(dir string) error {
		d, err := os.Open(dir)
		if err != nil {
			return err
		}
		err = d.Sync()
		if cerr := d.Close(); err == nil {
			err = cerr
		}
		return err
	}
)

// writeAtomic writes data to path via temp file + fsync + rename +
// directory fsync. On error no file appears at path (a stale previous
// version may remain).
func (m *Manager) writeAtomic(path string, data []byte) error {
	if err := os.MkdirAll(m.Dir, 0o755); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	tmp, err := os.CreateTemp(m.Dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := syncFile(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("ckpt: sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := syncDir(m.Dir); err != nil {
		return fmt.Errorf("ckpt: sync dir: %w", err)
	}
	return nil
}

// LatestComplete returns the highest iteration for which each of ranks
// 0..size-1 has a shard, or -1 if none exists. A shard of a rank outside
// that set (left by a run of another size) completes nothing.
func (m *Manager) LatestComplete(size int) (int, error) {
	entries, err := os.ReadDir(m.Dir)
	if errors.Is(err, os.ErrNotExist) {
		return -1, nil
	}
	if err != nil {
		return -1, fmt.Errorf("ckpt: %w", err)
	}
	present := map[int][]bool{}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "ckpt-") || !strings.HasSuffix(name, ".slck") {
			continue
		}
		parts := strings.SplitN(strings.TrimSuffix(strings.TrimPrefix(name, "ckpt-"), ".slck"), "-rank", 2)
		if len(parts) != 2 {
			continue
		}
		iter, err1 := strconv.Atoi(parts[0])
		rank, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil || rank < 0 || rank >= size {
			continue
		}
		if present[iter] == nil {
			present[iter] = make([]bool, size)
		}
		present[iter][rank] = true
	}
	best := -1
	for iter, ranks := range present {
		if iter > best && !slices.Contains(ranks, false) {
			best = iter
		}
	}
	return best, nil
}

// Load reads rank's shard for the given iteration.
func (m *Manager) Load(iter int, rank int) (*State, error) {
	f, err := os.Open(m.shardPath(uint32(iter), rank))
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	defer f.Close()
	return ReadState(f)
}
