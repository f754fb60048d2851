package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// profile fixes the input sizes. The full profile is the benchmark; the
// smoke profile only proves that every workload runs and names every metric.
type profile struct {
	batchLogV, batchLogE uint // G-batch: 2^V vertices, 2^E edges
	serveLogV, serveLogE uint // G-serve
	setupPasses          int  // set-up is repeated; setup_s is the median pass
	minReps              int  // timed repetitions never fall below this
	tracedPairs          int  // traced pass: (untraced, traced) repetition pairs
	tracedRounds         int  // traced serve-mix: rounds, enough for a p80 by the ten-beyond rule
	readsPerRound        int  // serve-mix: closed-loop reads per round
	minRootDegree        int64
	smoke                bool
}

var (
	// G-batch keeps 1 MiB of f64 values and 32 MiB of adjacency (2 x 8 MiB
	// ids + 2 x 8 MiB weights) live: 8x a 4 MiB L2. The sizes are a quarter
	// of what the issue proposed so that three set-up passes, the timed
	// repetitions and validation fit the driver's per-run budget.
	fullProfile  = profile{17, 21, 16, 20, 3, 3, 2, 50, 10000, 16, false}
	smokeProfile = profile{10, 13, 10, 13, 1, 1, 1, 2, 300, 4, true}
)

const (
	prIters      = 20 // batch workloads
	servePRIters = 10 // serve-mix
	ssspRoots    = 4
	maxWeight    = 64
	batchEdges   = 64                   // serve-mix: insertions per mutation batch
	pacedEvery   = 2 * time.Millisecond // serve-mix: open-loop reader, 500 req/s
)

// env is one run of one workload.
type env struct {
	spec     *spec
	prof     profile
	root     string
	workload string
	seed     int64
	seconds  float64
	threads  int // T = min(nproc, 4)

	rec   *recorder // nil: tracing off
	speed *speedometer
	work  string // scratch directory inside the checkout
	acct  acct
	notes []string
	m     map[string]metricValue
	// factors are the speed factors of the timed repetitions, one each.
	factors []float64
}

// acct counts operations: program runs, requests and validation checks.
type acct struct {
	attempted, failed int
	errs              []string
}

// count adds operations counted elsewhere (the paced reader's).
func (a *acct) count(attempted, failed int, what string) {
	a.attempted += attempted
	a.failed += failed
	if failed > 0 && len(a.errs) < 10 {
		a.errs = append(a.errs, fmt.Sprintf("%d %s", failed, what))
	}
}

// check counts one operation and records why it failed, if it did.
func (a *acct) check(ok bool, format string, args ...any) {
	a.attempted++
	if !ok {
		a.failed++
		if len(a.errs) < 10 {
			a.errs = append(a.errs, fmt.Sprintf(format, args...))
		}
	}
}

func (e *env) set(name string, v float64) { e.m[name] = metricValue{Value: v} }

// setTiming reports an end-to-end timing: the median over repetitions of
// the measured seconds divided by the repetition's speed factor (see
// speedometer), with its quartiles, the sample count and the median of the
// raw seconds beside it.
func (e *env) setTiming(name string, raw, factors []float64) {
	norm := make([]float64, len(raw))
	for i := range raw {
		norm[i] = raw[i] / factors[i]
	}
	q1, med, q3 := quartiles(norm)
	e.m[name] = metricValue{Value: med, N: len(norm), Q1: q1, Q3: q3, Raw: median(raw)}
}

// bracket runs f between two speedometer samples and returns the speed
// factor that held while it ran. prev is the sample that closed the
// previous bracket (0: take a fresh one); the closing sample is returned to
// open the next.
func (e *env) bracket(prev float64, f func() error) (factor, next float64, err error) {
	if prev == 0 {
		prev = e.speed.sample()
	}
	err = f()
	next = e.speed.sample()
	return (prev + next) / 2, next, err
}

// span times f as one span of the traced pass (or just times it).
func (e *env) span(name string, f func() error) (time.Duration, error) {
	end := e.rec.start(name)
	t := time.Now()
	err := f()
	d := time.Since(t)
	end()
	if err != nil {
		return d, fmt.Errorf("%s: %w", name, err)
	}
	return d, nil
}

// runWorkload runs the set-up passes, the timed (or traced) repetitions and
// the validation of one workload and assembles its report.
func (e *env) runWorkload(traced bool) (*report, error) {
	var err error
	if e.work, err = os.MkdirTemp(e.scratch(), "work-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.work)
	e.m = map[string]metricValue{}
	e.speed = newSpeedometer(e.threads)
	if traced {
		e.rec = newRecorder(e.workload)
	}
	if runtime.NumCPU() < 2 {
		e.notes = append(e.notes, "nproc < 2: tcp-2r runs two ranks on one processor (oversubscribed); its numbers are not comparable")
	}

	var inputs []graphInfo
	if e.workload == "serve-mix" {
		inputs, err = e.runServe(traced)
	} else {
		inputs, err = e.runBatch(traced)
	}
	if err != nil {
		return nil, err
	}

	rep := &report{
		Workload: e.workload, Seed: e.seed, Seconds: e.seconds, Traced: traced, Smoke: e.prof.smoke,
		Correct: e.acct.failed == 0, Attempted: e.acct.attempted, Failed: e.acct.failed,
		Metrics: map[string]metricValue{}, Inputs: inputs, Host: fingerprint(e.root), Notes: e.notes,
		SpeedFactor: median(e.factors),
	}
	for _, msg := range e.acct.errs {
		rep.Notes = append(rep.Notes, "failed: "+msg)
	}
	// Report exactly the declared metrics of this pass. A per-layer metric
	// this workload does not exercise reads 0; an end-to-end metric must
	// have been measured.
	for _, ms := range e.spec.metrics(traced) {
		v, ok := e.m[ms.Name]
		if !ok && !traced {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", ms.Name)
		}
		v.Unit = ms.Unit
		rep.Metrics[ms.Name] = v
	}
	if traced {
		out := filepath.Join(e.root, "benchmark", "out")
		if err := os.MkdirAll(out, 0o755); err != nil {
			return nil, err
		}
		if err := e.rec.writeChrome(filepath.Join(out, "trace-"+e.workload+".json")); err != nil {
			return nil, err
		}
		if !e.prof.smoke {
			e.rec.printTable(os.Stderr)
		}
	}
	return rep, nil
}

// scratch is where work directories live: under the checkout, in the
// directory the root .gitignore already names.
func (e *env) scratch() string {
	dir := filepath.Join(e.root, ".bench_build")
	os.MkdirAll(dir, 0o755)
	return dir
}

// timedLoop runs rep until both the minimum count and the time budget are
// met, recording each repetition's speed factor. Every repetition starts
// from a collected heap, so the collector's cycles fall at the same points
// of every repetition.
func (e *env) timedLoop(minReps int, rep func() error) error {
	start := time.Now()
	last := 0.0
	for n := 0; n < minReps || time.Since(start).Seconds() < e.seconds; n++ {
		runtime.GC()
		factor, next, err := e.bracket(last, rep)
		if err != nil {
			return err
		}
		e.factors, last = append(e.factors, factor), next
	}
	return nil
}

// heapMB is the live heap after a collection; the caller keeps the graph or
// service reachable across the call. It is HeapAlloc, the bytes of live
// objects: HeapInuse also counts the free slots of partly used spans and
// moved by 20% between identical runs.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// ---- inputs ---------------------------------------------------------------

// graphInfo records the size and the skew of a generated graph: per-superstep
// work is bounded by the degree sequence, not by |E| alone.
type graphInfo struct {
	Name           string     `json:"name"`
	Vertices       int        `json:"vertices"`
	Edges          int64      `json:"edges"`
	RMAT           [3]float64 `json:"rmat_abc"`
	MaxOutDegree   int64      `json:"max_out_degree"`
	MaxInDegree    int64      `json:"max_in_degree"`
	L2OutDegree    float64    `json:"l2_out_degree_norm"`
	ValueBytes     int64      `json:"value_array_bytes"`
	AdjacencyBytes int64      `json:"adjacency_bytes"`
}

func describe(name string, g *Graph) graphInfo {
	a, b, c := rmatParams()
	info := graphInfo{Name: name, Vertices: g.NumVertices(), Edges: g.NumEdges(), RMAT: [3]float64{a, b, c}}
	var sq float64
	for v := 0; v < g.NumVertices(); v++ {
		out, in := g.OutDegree(uint32(v)), g.InDegree(uint32(v))
		info.MaxOutDegree = max(info.MaxOutDegree, out)
		info.MaxInDegree = max(info.MaxInDegree, in)
		sq += float64(out) * float64(out)
	}
	info.L2OutDegree = math.Sqrt(sq)
	info.ValueBytes = 8 * int64(g.NumVertices())
	info.AdjacencyBytes = 2 * (4 + 4) * g.NumEdges() // CSR + CSC, u32 id + f32 weight
	return info
}

// generate builds an R-MAT graph, timing generation and CSR/CSC
// construction as separate layers.
func (e *env) generate(logV, logE uint, seed int64) (*Graph, []Edge, error) {
	var edges []Edge
	var g *Graph
	d, _ := e.span("gen.rmat", func() error {
		edges = rmatEdges(1<<logV, 1<<logE, maxWeight, seed)
		return nil
	})
	e.set("gen.rmat_medges_per_s", float64(len(edges))/1e6/d.Seconds())
	d, err := e.span("graph.build", func() (err error) {
		g, err = buildGraph(1<<logV, edges)
		return err
	})
	e.set("graph.build_medges_per_s", float64(len(edges))/1e6/d.Seconds())
	return g, edges, err
}

// reach returns the vertices reachable from root, root first.
func reach(g *Graph, root uint32) []uint32 {
	seen := make([]bool, g.NumVertices())
	seen[root] = true
	order := []uint32{root}
	for i := 0; i < len(order); i++ {
		for _, u := range g.OutNeighbors(order[i]) {
			if !seen[u] {
				seen[u] = true
				order = append(order, u)
			}
		}
	}
	return order
}

// pickRoots draws k distinct SSSP roots by a seeded RNG from the vertices
// with out-degree >= minDegree, redrawing a root that reaches less than a
// quarter of the graph: a root in a backwater would make the run trivial.
func pickRoots(g *Graph, k int, minDegree int64, seed int64) ([]uint32, error) {
	var cands []uint32
	for ; len(cands) < k && minDegree >= 1; minDegree /= 2 {
		cands = cands[:0]
		for v := 0; v < g.NumVertices(); v++ {
			if g.OutDegree(uint32(v)) >= minDegree {
				cands = append(cands, uint32(v))
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var roots []uint32
	taken := map[uint32]bool{}
	for tries := 0; len(roots) < k && tries < 64*k; tries++ {
		v := cands[rng.Intn(len(cands))]
		if taken[v] || 4*len(reach(g, v)) < g.NumVertices() {
			continue
		}
		taken[v] = true
		roots = append(roots, v)
	}
	if len(roots) < k {
		return nil, fmt.Errorf("found only %d of %d roots reaching a quarter of the graph", len(roots), k)
	}
	return roots, nil
}

// ---- batch workloads: heap-1r, slfc-1r, tcp-2r ----------------------------

// batch is the state of one batch workload. All three run PageRank and then
// SSSP from the same four roots over the same G-batch; they differ in where
// the graph lives and what carries the values between ranks.
type batch struct {
	*env
	g     *Graph
	path  string // the graph file (heap-1r: .slfg, slfc-1r: .slfc)
	roots []uint32
	cfg   execCfg
	want  []uint64 // checksums every repetition must reproduce: PR, then each root
}

// repSample is one repetition: its wall times and its program outputs.
type repSample struct {
	run, pr, sssp time.Duration
	outs          []*runOut // PR, then one per root
}

func (e *env) runBatch(traced bool) ([]graphInfo, error) {
	b := &batch{env: e, cfg: execCfg{Threads: e.threads, RR: true, Ranks: 1}}
	if e.workload == "tcp-2r" {
		b.cfg = execCfg{Threads: max(1, e.threads/2), RR: true, Ranks: 2, TCP: true}
	}
	passes := e.prof.setupPasses
	if traced {
		passes = 1
	}
	var setup, setupFactors []float64
	var warm repSample
	for p := 0; p < passes; p++ {
		b.g = nil // the previous pass's graph is garbage before the next is built
		runtime.GC()
		factor, _, err := e.bracket(0, func() (err error) {
			t := time.Now()
			warm, err = b.setupPass()
			setup = append(setup, time.Since(t).Seconds())
			return err
		})
		if err != nil {
			return nil, err
		}
		setupFactors = append(setupFactors, factor)
	}
	e.setTiming("setup_s", setup, setupFactors)
	info := describe("G-batch", b.g)

	if err := b.validateAgainstReferences(warm); err != nil {
		return nil, err
	}
	if traced {
		return []graphInfo{info}, b.tracedPass()
	}

	var samples []repSample
	err := e.timedLoop(e.prof.minReps, func() error {
		s, err := b.rep()
		if err != nil {
			return err
		}
		b.checkSums(s)
		s.outs = nil // kept values would make heap_mb grow with the repetition count
		samples = append(samples, s)
		return nil
	})
	if err != nil {
		return nil, err
	}
	e.set("heap_mb", heapMB())
	runtime.KeepAlive(b.g)
	e.setTiming("run_s", column(samples, func(s repSample) time.Duration { return s.run }), e.factors)
	e.setTiming("pr_s", column(samples, func(s repSample) time.Duration { return s.pr }), e.factors)
	e.setTiming("sssp_s", column(samples, func(s repSample) time.Duration { return s.sssp }), e.factors)
	return []graphInfo{info}, nil
}

// column extracts one duration of every sample, in seconds.
func column[T any](samples []T, f func(T) time.Duration) []float64 {
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = f(s).Seconds()
	}
	return xs
}

// setupPass is everything a user pays before the first timed repetition:
// generating and building G-batch, writing the file the workload opens, and
// one warm-up repetition.
func (b *batch) setupPass() (repSample, error) {
	g, _, err := b.generate(b.prof.batchLogV, b.prof.batchLogE, b.seed)
	if err != nil {
		return repSample{}, err
	}
	b.g = g
	switch b.workload {
	case "heap-1r":
		b.path = filepath.Join(b.work, "g.slfg")
		d, err := b.span("loader.save", func() error { return saveSLFG(b.path, g) })
		if err != nil {
			return repSample{}, err
		}
		b.set("loader.save_mb_per_s", fileMB(b.path)/d.Seconds())
	case "slfc-1r":
		b.path = filepath.Join(b.work, "g.slfc")
		d, err := b.span("store.write", func() error { return writeSLFC(b.path, g) })
		if err != nil {
			return repSample{}, err
		}
		b.set("store.write_mb_per_s", fileMB(b.path)/d.Seconds())
		b.set("store.bytes_per_edge", fileMB(b.path)*(1<<20)/float64(g.NumEdges()))
	}
	if b.roots, err = pickRoots(g, ssspRoots, b.prof.minRootDegree, b.seed); err != nil {
		return repSample{}, err
	}
	return b.rep()
}

func fileMB(path string) float64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(st.Size()) / (1 << 20)
}

// rep is one repetition: open the graph, run PageRank, run SSSP from every
// root. run is file open to last result; on tcp-2r, whose graph stays open,
// it is pr + sssp.
func (b *batch) rep() (repSample, error) {
	var s repSample
	end := b.rec.start("rep")
	defer end()
	start := time.Now()

	var view View = b.g
	if open, name := b.opener(); open != nil {
		var closeView func() error
		d, err := b.span(name, func() (err error) {
			view, closeView, err = open(b.path)
			return err
		})
		if err != nil {
			return s, err
		}
		defer closeView()
		b.set(name+"_ms", ms(d))
	}
	if err := b.programs(view, b.cfg, &s); err != nil {
		return s, err
	}
	s.run = time.Since(start)
	if b.path == "" {
		s.run = s.pr + s.sssp
	}
	return s, nil
}

// opener is how the workload's repetitions get their graph from b.path, and
// the span that times it; nil when they run on the resident heap graph.
func (b *batch) opener() (open func(string) (View, func() error, error), span string) {
	switch b.workload {
	case "heap-1r":
		return openView, "loader.open"
	case "slfc-1r":
		return openSLFC, "store.open"
	}
	return nil, ""
}

// programs runs PageRank and then SSSP from every root over view. A
// multi-rank run checkpoints into a fresh directory per program.
func (b *batch) programs(view View, cfg execCfg, s *repSample) error {
	run := func(name string, f func(cfg execCfg) (*runOut, error)) (time.Duration, error) {
		cfg := cfg
		if cfg.Ranks > 1 {
			dir, err := os.MkdirTemp(b.work, "ckpt-")
			if err != nil {
				return 0, err
			}
			defer os.RemoveAll(dir)
			cfg.CkptDir = dir
		}
		return b.span(name, func() error {
			out, err := f(cfg)
			s.outs = append(s.outs, out)
			return err
		})
	}
	var err error
	if s.pr, err = run("core.pr", func(cfg execCfg) (*runOut, error) { return execPR(view, prIters, cfg) }); err != nil {
		return err
	}
	for _, root := range b.roots {
		d, err := run("core.sssp", func(cfg execCfg) (*runOut, error) { return execSSSP(view, root, cfg) })
		if err != nil {
			return err
		}
		s.sssp += d
	}
	return nil
}

// validateAgainstReferences checks the warm-up repetition against the
// serial reference implementations (PageRank within the repo's own 1e-4
// relative tolerance, SSSP exactly) and pins its checksums: every later
// repetition must reproduce them bit for bit. slfc-1r additionally demands
// the checksums of the same programs over the heap graph.
func (b *batch) validateAgainstReferences(warm repSample) error {
	var ref []float64
	d, _ := b.span("apps.ref_pr", func() error { ref = refPageRank(b.g, prIters); return nil })
	b.set("apps.ref_pr_s", d.Seconds())
	got := pageRanks(b.g, warm.outs[0].Values)
	b.acct.check(within(got, ref, 1e-4), "PageRank differs from RefPageRank by more than 1e-4")

	var refTime time.Duration
	for i, root := range b.roots {
		d, _ := b.span("apps.ref_sssp", func() error { ref = refSSSP(b.g, root); return nil })
		refTime += d
		b.acct.check(checksum(warm.outs[1+i].Values) == checksum(ref), "SSSP from root %d differs from RefSSSP", root)
	}
	b.set("apps.ref_sssp_s", refTime.Seconds())

	b.want = sums(warm)
	if b.workload == "slfc-1r" {
		var heap repSample
		if err := b.programs(b.g, b.cfg, &heap); err != nil {
			return err
		}
		for i, sum := range sums(heap) {
			b.acct.check(sum == b.want[i], "program %d: mmap'd SLFC and heap CSR results differ", i)
		}
	}
	return nil
}

func sums(s repSample) []uint64 {
	out := make([]uint64, len(s.outs))
	for i, o := range s.outs {
		out[i] = checksum(o.Values)
	}
	return out
}

// checkSums counts every program run of a repetition: it failed unless its
// values are bit-identical to the validated warm-up's.
func (b *batch) checkSums(s repSample) {
	for i, sum := range sums(s) {
		b.acct.check(sum == b.want[i], "program %d: checksum %016x, want %016x", i, sum, b.want[i])
	}
}

// within reports whether every |a-b| <= tol*(1+|b|), the repo's PageRank
// tolerance.
func within(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !(math.Abs(a[i]-b[i]) <= tol*(1+math.Abs(b[i]))) {
			return false
		}
	}
	return true
}
