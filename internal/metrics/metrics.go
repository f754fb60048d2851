// Package metrics collects the instrumentation the paper's evaluation
// section relies on: per-iteration computation counts (Fig. 9), pull/push
// time split (Fig. 4), value-update counts per vertex (Table 2), suppressed
// work (§4.5), and per-worker compute time for imbalance analysis
// (Fig. 10b).
package metrics

import "time"

// Mode identifies which propagation direction an iteration ran in.
type Mode int

// Propagation modes.
const (
	Pull Mode = iota
	Push
)

func (m Mode) String() string {
	if m == Push {
		return "push"
	}
	return "pull"
}

// IterStat records one superstep of one worker.
type IterStat struct {
	Iter int
	Mode Mode
	// Computations counts per-edge computations. A min/max superstep counts at
	// the source's owner.
	Computations int64
	Updates      int64 // vertex value changes
	Suppressed   int64 // vertex computations skipped by RR's finish early (arith)
	ActiveVerts  int64 // active vertices entering the superstep (global)
	ECGlobal     int64 // early-converged vertices cluster-wide (arith + RR)
	SyncBytes    int64 // bytes this worker sent during the delta-sync phase
	// ExposedComm is the delta-sync wall time left on the critical path
	// after the compute barrier: only the drain/decode tail when a pull
	// superstep streamed its deltas during compute, the whole exchange
	// (drain, encode, send, decode) for a push superstep, which opens it
	// after commit.
	ExposedComm time.Duration
	// StreamedBytes counts the bytes this worker sent while its compute
	// phase was still running (communication hidden by overlap; zero on
	// push supersteps and single-worker runs). StreamedBytes/SyncBytes is
	// the superstep's overlap ratio.
	StreamedBytes int64
	// HeapAllocs/HeapBytes are the process-wide heap allocation deltas of
	// this superstep (stepBegin through stepEnd), recorded only under
	// core.Config.MeasureAllocs. The runtime counters are process-global,
	// so the numbers are per-worker only when one worker runs per process
	// (a single-node run, as the alloc-budget guards use).
	HeapAllocs int64
	HeapBytes  int64
	Time       time.Duration
}

// Run aggregates a worker's whole execution.
type Run struct {
	Iters       []IterStat
	PullTime    time.Duration
	PushTime    time.Duration
	ComputeTime time.Duration // pure compute, excluding communication
	SyncTime    time.Duration // communication + barriers
	Total       time.Duration
	Steals      int64

	// OverlappedSyncs counts the supersteps whose exchange opened before
	// compute and streamed while it ran: the pull supersteps of a
	// multi-worker run (push supersteps open it after commit). All workers
	// move in lockstep, so it is a cluster-wide count.
	OverlappedSyncs int64
	// CodecPicks counts, per wire layout name, how many delta batches this
	// worker encoded in it (the adaptive codec spreads over its four
	// layouts; raw attributes every batch to "raw").
	CodecPicks map[string]int64

	// Per-phase breakdown of the unified superstep pipeline
	// (internal/core/superstep.go). CommitTime is a sub-phase already
	// counted inside ComputeTime; the other three are outside it.
	FrontierTime time.Duration // pre-compute coordination: frontier stats, mode switch, termination checks
	CommitTime   time.Duration // committing staged updates / folding push proposals
	CkptTime     time.Duration // checkpoint shard writes
}

// Add appends an iteration record and rolls it into the aggregates.
func (r *Run) Add(s IterStat) {
	r.Iters = append(r.Iters, s)
	if s.Mode == Pull {
		r.PullTime += s.Time
	} else {
		r.PushTime += s.Time
	}
	r.ComputeTime += s.Time
}

// Computations sums per-edge computations over all iterations.
func (r *Run) Computations() int64 {
	var total int64
	for _, s := range r.Iters {
		total += s.Computations
	}
	return total
}

// Updates sums vertex value changes over all iterations.
func (r *Run) Updates() int64 {
	var total int64
	for _, s := range r.Iters {
		total += s.Updates
	}
	return total
}

// Suppressed sums RR-skipped vertex computations.
func (r *Run) Suppressed() int64 {
	var total int64
	for _, s := range r.Iters {
		total += s.Suppressed
	}
	return total
}

// Merge sums per-iteration stats across workers (aligning by superstep
// index) and returns cluster-wide aggregates; worker wall times are kept as
// the per-entry maxima since supersteps are barrier-aligned.
func Merge(runs []*Run) *Run {
	out := &Run{}
	for _, r := range runs {
		for i, s := range r.Iters {
			for len(out.Iters) <= i {
				out.Iters = append(out.Iters, IterStat{})
			}
			o := &out.Iters[i]
			o.Iter = s.Iter // workers agree
			o.Mode = s.Mode
			o.Computations += s.Computations
			o.Updates += s.Updates
			o.Suppressed += s.Suppressed
			o.SyncBytes += s.SyncBytes
			o.StreamedBytes += s.StreamedBytes
			if s.ExposedComm > o.ExposedComm {
				o.ExposedComm = s.ExposedComm
			}
			if s.ActiveVerts > o.ActiveVerts {
				o.ActiveVerts = s.ActiveVerts
			}
			if s.ECGlobal > o.ECGlobal {
				o.ECGlobal = s.ECGlobal
			}
			if s.Time > o.Time {
				o.Time = s.Time
			}
			// Process-global measurements: every in-process worker saw the
			// same counters, so max (not sum) avoids double counting.
			if s.HeapAllocs > o.HeapAllocs {
				o.HeapAllocs = s.HeapAllocs
			}
			if s.HeapBytes > o.HeapBytes {
				o.HeapBytes = s.HeapBytes
			}
		}
		if r.PullTime > out.PullTime {
			out.PullTime = r.PullTime
		}
		if r.PushTime > out.PushTime {
			out.PushTime = r.PushTime
		}
		if r.Total > out.Total {
			out.Total = r.Total
		}
		if r.ComputeTime > out.ComputeTime {
			out.ComputeTime = r.ComputeTime
		}
		if r.SyncTime > out.SyncTime {
			out.SyncTime = r.SyncTime
		}
		if r.FrontierTime > out.FrontierTime {
			out.FrontierTime = r.FrontierTime
		}
		if r.CommitTime > out.CommitTime {
			out.CommitTime = r.CommitTime
		}
		if r.CkptTime > out.CkptTime {
			out.CkptTime = r.CkptTime
		}
		out.Steals += r.Steals
		if r.OverlappedSyncs > out.OverlappedSyncs {
			out.OverlappedSyncs = r.OverlappedSyncs // lockstep: identical on every worker
		}
		for name, n := range r.CodecPicks {
			if out.CodecPicks == nil {
				out.CodecPicks = make(map[string]int64)
			}
			out.CodecPicks[name] += n
		}
	}
	return out
}

// Imbalance returns (max-min)/max over per-worker compute times, the
// paper's inter-node imbalance measure (Fig. 10b). Returns 0 for fewer than
// two workers or zero max.
func Imbalance(runs []*Run) float64 {
	if len(runs) < 2 {
		return 0
	}
	min, max := runs[0].ComputeTime, runs[0].ComputeTime
	for _, r := range runs[1:] {
		if r.ComputeTime < min {
			min = r.ComputeTime
		}
		if r.ComputeTime > max {
			max = r.ComputeTime
		}
	}
	if max == 0 {
		return 0
	}
	return float64(max-min) / float64(max)
}
