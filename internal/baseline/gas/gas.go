// Package gas implements a synchronous Gather-Apply-Scatter engine in the
// style of PowerGraph (OSDI'12), used as the paper's primary comparison
// point, plus PowerLyra's (EuroSys'15) differentiated processing as a
// configuration. The engine runs the same core.Program specifications as
// SLFE over the same comm/cluster substrate, but with the GAS cost model:
//
//   - every active vertex gathers over its complete in-edge set each
//     superstep (no push/pull direction switching, no redundancy
//     reduction);
//   - apply commits the new value;
//   - scatter activates out-neighbours of changed vertices.
//
// PowerGraph mode partitions vertices by hash (its random vertex-cut
// ingress destroys locality); PowerLyra mode keeps low-degree vertices in
// contiguous chunks and only hash-scatters the high-degree ones, which is
// the locality effect of its hybrid-cut.
package gas

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"slfe/internal/bitset"
	"slfe/internal/comm"
	"slfe/internal/core"
	"slfe/internal/graph"
	"slfe/internal/metrics"
	"slfe/internal/ws"
)

// Mode selects the proxied system.
type Mode int

// Engine modes.
const (
	// PowerGraph: hash-partitioned vertices, uniform GAS processing.
	PowerGraph Mode = iota
	// PowerLyra: hybrid-cut — chunked low-degree vertices, hash-placed
	// high-degree vertices (degree > HighDegree).
	PowerLyra
)

func (m Mode) String() string {
	if m == PowerLyra {
		return "PowerLyra"
	}
	return "PowerGraph"
}

// HighDegree is PowerLyra's high-degree threshold (its default is 100).
const HighDegree = 100

// Config configures one worker of the GAS cluster.
type Config struct {
	Graph   *graph.Graph
	Comm    *comm.Comm
	Mode    Mode
	Threads int
}

// Result mirrors core.Result for the GAS engine.
type Result struct {
	Values     []core.Value
	Iterations int
	Metrics    *metrics.Run
}

// Engine is one GAS worker.
type Engine struct {
	cfg   Config
	g     *graph.Graph
	comm  *comm.Comm
	sched *ws.Scheduler
}

// New builds a GAS worker engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Graph == nil || cfg.Comm == nil {
		return nil, errors.New("gas: Graph and Comm are required")
	}
	return &Engine{
		cfg:   cfg,
		g:     cfg.Graph,
		comm:  cfg.Comm,
		sched: ws.New(cfg.Threads, true),
	}, nil
}

// Close releases the engine's persistent scheduler pool.
func (e *Engine) Close() { e.sched.Close() }

// owner maps a vertex to its owning rank under the configured ingress.
func (e *Engine) owner(v graph.VertexID) int {
	size := e.comm.Size()
	if e.cfg.Mode == PowerLyra {
		// Hybrid-cut: low-degree vertices stay in contiguous chunks
		// (locality); high-degree vertices are hash-placed like a
		// vertex-cut would split them.
		if e.g.InDegree(v)+e.g.OutDegree(v) <= HighDegree {
			n := e.g.NumVertices()
			if n == 0 {
				return 0
			}
			o := int(uint64(v) * uint64(size) / uint64(n))
			if o >= size {
				o = size - 1
			}
			return o
		}
	}
	return int(v) % size
}

// Run executes the program to convergence.
func (e *Engine) Run(p *core.Program[float64]) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	n := e.g.NumVertices()
	rank := e.comm.Rank()
	values := make([]core.Value, n)
	for v := 0; v < n; v++ {
		values[v] = p.InitValue(e.g, graph.VertexID(v))
	}
	active := bitset.NewAtomic(n)
	for _, r := range p.Roots {
		if int(r) < n {
			// active[v] means "v gathers next round", so a root's initial
			// signal goes to the vertices that can see its value.
			active.Set(int(r))
			for _, u := range e.g.OutNeighbors(r) {
				active.Set(int(u))
			}
		}
	}
	if p.Agg == core.Arith {
		// Arithmetic programs iterate over all vertices.
		active.Fill()
	}
	run := &metrics.Run{}
	maxIters := 10 * n
	if p.Agg == core.Arith {
		maxIters = p.MaxIters
		if maxIters <= 0 {
			maxIters = 100
		}
	}

	scratch := make([]core.Value, n)
	changed := bitset.NewAtomic(n)
	threads := e.sched.Threads()
	iters := 0
	for iter := 0; iter < maxIters; iter++ {
		if !active.Any() {
			break
		}
		iters++
		stat := metrics.IterStat{Iter: iter, Mode: metrics.Pull, ActiveVerts: int64(active.Count())}
		comps := make([]int64, threads)
		changed.Reset()
		computeStart := time.Now()

		// Gather + Apply for owned active vertices (full in-edge gather,
		// the PowerGraph cost model).
		e.sched.Run(0, uint32(n), func(clo, chi uint32, th int) {
			for v := clo; v < chi; v++ {
				if e.owner(graph.VertexID(v)) != rank || !active.Get(int(v)) {
					continue
				}
				vid := graph.VertexID(v)
				ins, iws := e.g.InNeighbors(vid), e.g.InWeights(vid)
				var newVal core.Value
				if p.Agg == core.MinMax {
					best := values[vid]
					for i, u := range ins {
						comps[th]++
						cand := p.Relax(values[u], iws[i])
						if p.Better(cand, best) {
							best = cand
						}
					}
					newVal = best
				} else {
					acc := p.GatherInit
					for i, u := range ins {
						comps[th]++
						acc = p.Gather(acc, values[u], iws[i])
					}
					newVal = p.Apply(e.g, vid, acc, values[vid])
				}
				scratch[v] = newVal
				if p.Agg == core.Arith {
					if newVal != values[vid] {
						changed.Set(int(v))
					}
				} else if p.Better(newVal, values[vid]) {
					changed.Set(int(v))
				}
			}
		})
		// Commit applies serially (BSP).
		var updates int64
		for v := 0; v < n; v++ {
			if e.owner(graph.VertexID(v)) == rank && changed.Get(v) {
				values[v] = scratch[v]
				updates++
			}
		}
		stat.Updates = updates
		for th := 0; th < threads; th++ {
			stat.Computations += comps[th]
		}
		stat.Time = time.Since(computeStart)

		// Scatter: broadcast changed values; everyone activates the
		// out-neighbours of changed vertices (min/max) or keeps iterating
		// (arith).
		syncStart := time.Now()
		var ids []graph.VertexID
		for v := 0; v < n; v++ {
			if e.owner(graph.VertexID(v)) == rank && changed.Get(v) {
				ids = append(ids, graph.VertexID(v))
			}
		}
		blobs, err := e.comm.AllGather(encodeDeltas(ids, values))
		if err != nil {
			return nil, err
		}
		active.Reset()
		for blobRank, blob := range blobs {
			err := decodeDeltas(blob, func(id graph.VertexID, val core.Value) error {
				if int(id) >= n {
					return fmt.Errorf("gas: out-of-range vertex %d", id)
				}
				if blobRank != rank {
					values[id] = val
				}
				if p.Agg == core.MinMax {
					for _, u := range e.g.OutNeighbors(id) {
						active.Set(int(u))
					}
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
		if p.Agg == core.Arith {
			active.Fill()
			// Arith termination: stop when nothing changed anywhere.
			anyChanged := int64(0)
			for _, blob := range blobs {
				if len(blob) >= 4 && binary.LittleEndian.Uint32(blob) > 0 {
					anyChanged = 1
				}
			}
			total, err := e.comm.AllReduceI64(anyChanged, comm.OpMax)
			if err != nil {
				return nil, err
			}
			if total == 0 {
				run.SyncTime += time.Since(syncStart)
				run.Add(stat)
				break
			}
		}
		run.SyncTime += time.Since(syncStart)
		run.Add(stat)
	}
	run.Total = time.Since(start)
	return &Result{Values: values, Iterations: iters, Metrics: run}, nil
}

const deltaEntrySize = 4 + 8

func encodeDeltas(ids []graph.VertexID, values []core.Value) []byte {
	buf := make([]byte, 4+len(ids)*deltaEntrySize)
	binary.LittleEndian.PutUint32(buf, uint32(len(ids)))
	off := 4
	for _, id := range ids {
		binary.LittleEndian.PutUint32(buf[off:], uint32(id))
		binary.LittleEndian.PutUint64(buf[off+4:], math.Float64bits(values[id]))
		off += deltaEntrySize
	}
	return buf
}

func decodeDeltas(buf []byte, fn func(id graph.VertexID, val core.Value) error) error {
	if len(buf) < 4 {
		return errors.New("gas: short delta payload")
	}
	count := int(binary.LittleEndian.Uint32(buf))
	if len(buf) != 4+count*deltaEntrySize {
		return errors.New("gas: delta length mismatch")
	}
	off := 4
	for i := 0; i < count; i++ {
		id := graph.VertexID(binary.LittleEndian.Uint32(buf[off:]))
		val := math.Float64frombits(binary.LittleEndian.Uint64(buf[off+4:]))
		if err := fn(id, val); err != nil {
			return err
		}
		off += deltaEntrySize
	}
	return nil
}

// Execute runs the program on an in-process GAS cluster of the given size
// and returns rank 0's result plus per-worker metrics and traffic.
func Execute(g *graph.Graph, p *core.Program[float64], nodes int, mode Mode, threads int) (*Result, []*metrics.Run, comm.Stats, error) {
	if nodes <= 0 {
		nodes = 1
	}
	transports, err := comm.NewLocalGroup(nodes)
	if err != nil {
		return nil, nil, comm.Stats{}, err
	}
	results := make([]*Result, nodes)
	errs := make([]error, nodes)
	done := make(chan int, nodes)
	for r := 0; r < nodes; r++ {
		go func(r int) {
			defer func() { done <- r }()
			defer transports[r].Close()
			eng, err := New(Config{Graph: g, Comm: comm.NewComm(transports[r]), Mode: mode, Threads: threads})
			if err != nil {
				errs[r] = err
				return
			}
			defer eng.Close()
			results[r], errs[r] = eng.Run(p)
		}(r)
	}
	for i := 0; i < nodes; i++ {
		<-done
	}
	var stats comm.Stats
	for r := 0; r < nodes; r++ {
		if errs[r] != nil {
			return nil, nil, stats, fmt.Errorf("gas: worker %d: %w", r, errs[r])
		}
		s := transports[r].Stats()
		stats.MessagesSent += s.MessagesSent
		stats.BytesSent += s.BytesSent
	}
	runs := make([]*metrics.Run, nodes)
	for r := 0; r < nodes; r++ {
		runs[r] = results[r].Metrics
	}
	return results[0], runs, stats, nil
}
