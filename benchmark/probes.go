package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// The traced pass of a batch workload: repetitions with the span recorder
// on, then the probes of the layers that workload exercises. Every probe
// times calls into one layer's public functions from outside. A layer the
// workload does not touch is not probed, and its metrics read 0 in that
// workload's report.

func (b *batch) tracedPass() error {
	rec := b.rec
	var plain, traced []repSample
	for i := 0; i < b.prof.tracedPairs; i++ {
		for _, on := range []bool{false, true} {
			b.rec = nil
			if on {
				b.rec = rec
			}
			s, err := b.rep()
			b.rec = rec
			if err != nil {
				return err
			}
			b.checkSums(s)
			if on {
				traced = append(traced, s)
			} else {
				plain = append(plain, s)
			}
		}
	}
	runOf := func(s repSample) time.Duration { return s.run }
	b.set("trace.overhead_share", median(column(traced, runOf))/median(column(plain, runOf))-1)

	prS := median(column(traced, func(s repSample) time.Duration { return s.pr }))
	ssspS := median(column(traced, func(s repSample) time.Duration { return s.sssp }))
	last := traced[len(traced)-1]
	b.coreCounts(last, prS, ssspS)
	if err := b.bypassRuns(last, prS); err != nil {
		return err
	}
	switch b.workload {
	case "heap-1r":
		if err := b.probeGuidance(b.g, "heap"); err != nil {
			return err
		}
		b.probeDispatch()
		return b.probeSessionReuse(b.g, b.roots[0], b.threads)
	case "slfc-1r":
		if err := b.probeScans(); err != nil {
			return err
		}
		view, closeView, err := openSLFC(b.path)
		if err != nil {
			return err
		}
		defer closeView()
		return b.probeGuidance(view, "slfc")
	default: // tcp-2r
		if err := b.probeGuidance(b.g, "heap"); err != nil {
			return err
		}
		d, err := b.medianOf(5, "partition.chunk", func() error { return partitionChunk(b.g, b.cfg.Ranks) })
		if err != nil {
			return err
		}
		b.set("partition.chunk_ms", ms(d))
		if err := b.probeCodecs(); err != nil {
			return err
		}
		if err := b.probeComm(last.outs[0]); err != nil {
			return err
		}
		return b.probeCkptAndTransport(median(column(traced, runOf)), prS)
	}
}

// medianOf runs f k times as spans and returns the median duration.
func (e *env) medianOf(k int, name string, f func() error) (time.Duration, error) {
	if e.prof.smoke {
		k = 1
	}
	ds := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		d, err := e.span(name, f)
		if err != nil {
			return 0, err
		}
		ds = append(ds, d.Seconds())
	}
	return time.Duration(median(ds) * float64(time.Second)), nil
}

// coreCounts reports the exact counters the engine returns with its results
// next to the throughput they imply. The counts repeat exactly from run to
// run; the rates do not.
func (b *batch) coreCounts(s repSample, prS, ssspS float64) {
	pr, sssp := s.outs[0], s.outs[1:]
	var comps, updates, ssspComps, ssspBytes int64
	var steps, pushSteps int
	for _, o := range sssp {
		ssspComps += o.Computations
		updates += o.Updates
		ssspBytes += o.BytesSent
		steps += o.Supersteps
		pushSteps += o.PushSupersteps
	}
	comps = ssspComps + pr.Computations
	updates += pr.Updates
	b.set("core.pr_medges_per_s", float64(b.g.NumEdges())*prIters/1e6/prS)
	b.set("core.sssp_medges_per_s", float64(ssspComps)/1e6/ssspS)
	b.set("core.sssp_supersteps", float64(steps))
	b.set("core.sssp_push_supersteps", float64(pushSteps))
	b.set("core.computations", float64(comps))
	b.set("core.updates", float64(updates))
	b.set("ws.steals_per_phase", float64(pr.Steals)/float64(max(1, pr.Supersteps)))
	b.set("comm.bytes_sent_pr", float64(pr.BytesSent))
	b.set("comm.msgs_sent_pr", float64(pr.MsgsSent))
	b.set("comm.bytes_sent_sssp", float64(ssspBytes))
}

// withView hands f the graph the way the workload's repetitions see it.
func (b *batch) withView(f func(View) error) error {
	open, _ := b.opener()
	if open == nil {
		return f(b.g)
	}
	view, closeView, err := open(b.path)
	if err != nil {
		return err
	}
	defer closeView()
	return f(view)
}

// bypassRuns repeats the programs with the paper's mechanism switched off
// (the prediction for any redundancy-reduction change is that these do not
// move) and, on the single-rank workloads, PageRank on one thread.
func (b *batch) bypassRuns(on repSample, prS float64) error {
	return b.withView(func(view View) error {
		cfg := b.cfg
		cfg.RR = false
		var off repSample
		end := b.rec.start("rr_off")
		err := b.programs(view, cfg, &off)
		end()
		if err != nil {
			return err
		}
		b.set("core.rr_off_pr_s", off.pr.Seconds())
		b.set("core.rr_off_sssp_s", off.sssp.Seconds())
		var compsOn, compsOff int64
		for i := range off.outs {
			compsOn += on.outs[i].Computations
			compsOff += off.outs[i].Computations
			if i > 0 { // finish-early PageRank is approximate; SSSP is exact either way
				b.acct.check(checksum(off.outs[i].Values) == b.want[i], "program %d: result without RR differs", i)
			}
		}
		b.set("core.rr_suppressed_share", 1-float64(compsOn)/float64(compsOff))

		if b.cfg.Ranks > 1 {
			return nil
		}
		cfg = b.cfg
		cfg.Threads = 1
		d, err := b.span("core.pr_threads1", func() error {
			out, err := execPR(view, prIters, cfg)
			if err == nil {
				b.acct.check(checksum(out.Values) == b.want[0], "PageRank on one thread differs")
			}
			return err
		})
		if err != nil {
			return err
		}
		b.set("core.threads1_pr_s", d.Seconds())
		b.set("ws.parallel_efficiency", d.Seconds()/(float64(b.cfg.Threads)*prS))
		return nil
	})
}

// probeGuidance times guidance generation alone, for the reusable default
// root set PageRank uses and for one SSSP root.
func (b *batch) probeGuidance(view View, where string) error {
	d, err := b.medianOf(3, "rrg.generate_default", func() error {
		generateGuidance(view, defaultRoots(view), b.cfg.Threads)
		return nil
	})
	if err != nil {
		return err
	}
	b.set("rrg.generate_default_ms_"+where, ms(d))
	d, err = b.medianOf(3, "rrg.generate_root", func() error {
		generateGuidance(view, b.roots[:1], b.cfg.Threads)
		return nil
	})
	b.set("rrg.generate_root_ms_"+where, ms(d))
	return err
}

// probeDispatch times an empty-body phase over every mini-chunk of G-batch:
// what the scheduler costs when the kernel does nothing.
func (b *batch) probeDispatch() {
	sched := newScheduler(b.threads)
	defer sched.Close()
	n := uint32(b.g.NumVertices())
	empty := func(lo, hi uint32, thread int) {}
	sched.Run(0, n, empty) // spawns the pool
	const phases = 2000
	d, _ := b.span("ws.run_empty", func() error {
		for i := 0; i < phases; i++ {
			sched.Run(0, n, empty)
		}
		return nil
	})
	b.set("ws.phase_dispatch_us", us(d)/phases)
}

// probeSessionReuse reports what a resident session saves one SSSP run.
func (e *env) probeSessionReuse(g View, root uint32, threads int) error {
	var saved []float64
	_, err := e.medianOf(3, "cluster.session_reuse", func() error {
		oneShot, resident, err := sessionRuns(g, root, threads)
		saved = append(saved, ms(oneShot-resident))
		return err
	})
	e.set("cluster.session_reuse_saving_ms", median(saved))
	return err
}

// probeScans walks every adjacency list with no compute: out and in over the
// mmap'd file, in over the out-of-core reader (which shares the cursor
// code), and in over the heap CSR as the baseline the decode cost is read
// against.
func (b *batch) probeScans() error {
	scan := func(metric, spanName string, open func(string) (View, func() error, error), in bool) error {
		view, closeView := View(b.g), func() error { return nil }
		if open != nil {
			var err error
			if view, closeView, err = open(b.path); err != nil {
				return err
			}
		}
		defer closeView()
		d, err := b.medianOf(3, spanName, func() error {
			if seen, _ := scanEdges(view, in); seen != b.g.NumEdges() {
				return fmt.Errorf("scanned %d edges of %d", seen, b.g.NumEdges())
			}
			return nil
		})
		b.set(metric, float64(b.g.NumEdges())/1e6/d.Seconds())
		return err
	}
	if err := scan("store.scan_out_medges_per_s_mmap", "store.scan_out_mmap", openSLFC, false); err != nil {
		return err
	}
	if err := scan("store.scan_in_medges_per_s_mmap", "store.scan_in_mmap", openSLFC, true); err != nil {
		return err
	}
	if err := scan("store.scan_in_medges_per_s_ooc", "store.scan_in_ooc", openSLFCOutOfCore, true); err != nil {
		return err
	}
	return scan("graph.scan_in_medges_per_s_heap", "graph.scan_in_heap", nil, true)
}

// ---- compress -------------------------------------------------------------

// deltaBatch is one real delta-sync payload: ascending vertex ids and the
// value bits that changed.
type deltaBatch struct {
	ids  []uint32
	vals []uint64
}

// deltaBatches extracts the two payload shapes delta-sync carries. Dense:
// the vertices whose PageRank value differs between iteration 5 and 6.
// Sparse: the vertices SSSP changed in its last supersteps (the window is
// widened backwards until it holds at least 256 entries).
func (b *batch) deltaBatches() (dense, sparse deltaBatch, err error) {
	one := execCfg{Threads: b.threads, Ranks: 1}
	pr5, err := execPR(b.g, 5, one)
	if err != nil {
		return
	}
	pr6, err := execPR(b.g, 6, one)
	if err != nil {
		return
	}
	for v, x := range pr6.Values {
		if math.Float64bits(x) != math.Float64bits(pr5.Values[v]) {
			dense.ids = append(dense.ids, uint32(v))
			dense.vals = append(dense.vals, math.Float64bits(x))
		}
	}
	one.RR, one.TrackLastChange = true, true
	ss, err := execSSSP(b.g, b.roots[0], one)
	if err != nil {
		return
	}
	lastStep := int32(0)
	for _, it := range ss.LastChange {
		lastStep = max(lastStep, it)
	}
	for from := lastStep - 1; from >= 0 && len(sparse.ids) < 256; from-- {
		sparse = deltaBatch{}
		for v, it := range ss.LastChange {
			if it >= from {
				sparse.ids = append(sparse.ids, uint32(v))
				sparse.vals = append(sparse.vals, math.Float64bits(ss.Values[v]))
			}
		}
	}
	if len(dense.ids) == 0 || len(sparse.ids) == 0 {
		err = fmt.Errorf("empty delta batch (dense %d, sparse %d entries)", len(dense.ids), len(sparse.ids))
	}
	return
}

// probeCodecs encodes and decodes both batches with both codecs. Rates are
// over the raw payload (12 bytes per entry), so codecs compare on one base.
func (b *batch) probeCodecs() error {
	dense, sparse, err := b.deltaBatches()
	if err != nil {
		return err
	}
	budget := 100 * time.Millisecond
	if b.prof.smoke {
		budget = time.Millisecond
	}
	for cname, c := range codecs() {
		for bname, db := range map[string]deltaBatch{"dense": dense, "sparse": sparse} {
			suffix := "_" + cname + "_" + bname
			rawMB := float64(12*len(db.ids)) / (1 << 20)
			var buf []byte
			rounds := 0
			d, _ := b.span("compress.encode"+suffix, func() error {
				for t := time.Now(); time.Since(t) < budget; rounds++ {
					buf = c.Encode(db.ids, db.vals)
				}
				return nil
			})
			b.set("compress.encode_mb_per_s"+suffix, rawMB*float64(rounds)/d.Seconds())
			b.set("compress.bytes_per_entry"+suffix, float64(len(buf))/float64(len(db.ids)))

			rounds = 0
			intact := true
			d, err := b.span("compress.decode"+suffix, func() error {
				for t := time.Now(); time.Since(t) < budget; rounds++ {
					i := 0
					err := c.Decode(buf, func(id uint32, val uint64) error {
						intact = intact && i < len(db.ids) && id == db.ids[i] && val == db.vals[i]
						i++
						return nil
					})
					if err != nil {
						return err
					}
					intact = intact && i == len(db.ids)
				}
				return nil
			})
			if err != nil {
				return err
			}
			b.acct.check(intact, "codec %s did not round-trip the %s batch", cname, bname)
			b.set("compress.decode_mb_per_s"+suffix, rawMB*float64(rounds)/d.Seconds())
		}
	}
	return nil
}

// ---- comm -----------------------------------------------------------------

// probeComm times the collectives the engine uses, over a loopback TCP mesh
// of the workload's size. Small collectives report latency; AllGather and
// the streaming exchange report throughput at the mean per-rank,
// per-superstep payload the workload's PageRank run really sent.
func (b *batch) probeComm(pr *runOut) error {
	ranks := b.cfg.Ranks
	payload := make([]byte, max(1024, int(pr.BytesSent)/max(1, pr.Supersteps*ranks)))
	small, bulk := 2000, 40
	if b.prof.smoke {
		small, bulk = 20, 2
	}

	// Rank 0 times each phase between barriers; every rank runs the same
	// collectives in the same order.
	timed := func(c *Comm, rank int, name string, rounds int, op func() error) (time.Duration, error) {
		if err := c.Barrier(); err != nil {
			return 0, err
		}
		end := func() {}
		if rank == 0 {
			end = b.rec.start(name)
		}
		t := time.Now()
		for i := 0; i < rounds; i++ {
			if err := op(); err != nil {
				return 0, err
			}
		}
		if err := c.Barrier(); err != nil {
			return 0, err
		}
		d := time.Since(t)
		end()
		return d, nil
	}
	mbps := func(d time.Duration, rounds int) float64 {
		return float64(len(payload)) * float64(ranks-1) * float64(rounds) / (1 << 20) / d.Seconds()
	}

	ts, err := loopbackTCP(ranks)
	if err != nil {
		return err
	}
	err = spmd(ts, func(rank int, c *Comm) error {
		peer := (rank + 1) % ranks
		d, err := timed(c, rank, "comm.barrier", small, c.Barrier)
		if err != nil {
			return err
		}
		if rank == 0 {
			b.set("comm.barrier_us", us(d)/float64(small))
		}
		d, err = timed(c, rank, "comm.allreduce", small, func() error {
			_, err := c.AllReduceI64(int64(rank), sumOp)
			return err
		})
		if err != nil {
			return err
		}
		if rank == 0 {
			b.set("comm.allreduce_us", us(d)/float64(small))
		}
		blobs := make([][]byte, ranks)
		blobs[peer] = payload[:64]
		d, err = timed(c, rank, "comm.sparse_exchange", small, func() error {
			_, err := c.SparseExchange(blobs)
			return err
		})
		if err != nil {
			return err
		}
		if rank == 0 {
			b.set("comm.sparse_exchange_us", us(d)/float64(small))
		}
		d, err = timed(c, rank, "comm.allgather", bulk, func() error {
			_, err := c.AllGather(payload)
			return err
		})
		if err != nil {
			return err
		}
		if rank == 0 {
			b.set("comm.allgather_mb_per_s", mbps(d, bulk))
		}
		const chunk = 32 << 10
		d, err = timed(c, rank, "comm.stream", bulk, func() error {
			x := c.StartExchange()
			for to := 0; to < ranks; to++ {
				if to == rank {
					continue
				}
				rest := payload
				for ; len(rest) > chunk; rest = rest[chunk:] {
					if err := x.SendChunk(to, rest[:chunk]); err != nil {
						return err
					}
				}
				if err := x.SendFinalChunk(to, rest); err != nil {
					return err
				}
			}
			return x.Finish(func(int, []byte) error { return nil })
		})
		if err != nil {
			return err
		}
		if rank == 0 {
			b.set("comm.stream_mb_per_s", mbps(d, bulk))
		}
		return nil
	})
	if err != nil {
		return err
	}

	ts, err = localGroup(ranks)
	if err != nil {
		return err
	}
	return spmd(ts, func(rank int, c *Comm) error {
		d, err := timed(c, rank, "comm.allgather_local", bulk, func() error {
			_, err := c.AllGather(payload)
			return err
		})
		if err == nil && rank == 0 {
			b.set("comm.allgather_mb_per_s_local", mbps(d, bulk))
		}
		return err
	})
}

// ---- ckpt, cluster --------------------------------------------------------

// probeCkptAndTransport isolates what checkpointing and the TCP transport
// add to the workload's own run: the same programs without checkpoints, and
// over the in-process hub, subtracted from the traced medians.
func (b *batch) probeCkptAndTransport(runS, prS float64) error {
	// A PageRank run whose checkpoint directory outlives it, for the shard
	// round trip.
	dir := filepath.Join(b.work, "ckpt-kept")
	cfg := b.cfg
	cfg.CkptDir = dir
	if _, err := execPR(b.g, prIters, cfg); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	saveDir := filepath.Join(b.work, "ckpt-resave")
	defer os.RemoveAll(saveDir)
	var loads, saves []float64
	_, err := b.medianOf(5, "ckpt.round_trip", func() error {
		load, save, err := ckptRoundTrip(dir, saveDir, cfg.Ranks)
		loads, saves = append(loads, ms(load)), append(saves, ms(save))
		return err
	})
	if err != nil {
		return err
	}
	shards, _ := filepath.Glob(filepath.Join(saveDir, "*"))
	sort.Strings(shards)
	if len(shards) == 0 {
		return fmt.Errorf("ckpt: Save left no shard in %s", saveDir)
	}
	shardMB := fileMB(shards[0])
	b.set("ckpt.load_ms", median(loads))
	b.set("ckpt.save_ms", median(saves))
	b.set("ckpt.save_mb_per_s", shardMB/(median(saves)/1e3))
	b.set("ckpt.shard_bytes", shardMB*(1<<20))

	cfg = b.cfg // CkptDir empty: no checkpoints
	var noCkpt []float64
	_, err = b.medianOf(2, "core.pr_no_ckpt", func() error {
		t := time.Now()
		_, err := execPR(b.g, prIters, cfg)
		noCkpt = append(noCkpt, time.Since(t).Seconds())
		return err
	})
	if err != nil {
		return err
	}
	b.set("ckpt.overhead_s", prS-median(noCkpt))

	cfg = b.cfg
	cfg.TCP = false
	var local repSample
	end := b.rec.start("local_group")
	err = b.programs(b.g, cfg, &local)
	end()
	if err != nil {
		return err
	}
	for i, sum := range sums(local) {
		b.acct.check(sum == b.want[i], "program %d: in-process and TCP results differ", i)
	}
	b.set("cluster.tcp_overhead_s", runS-(local.pr+local.sssp).Seconds())
	return nil
}
