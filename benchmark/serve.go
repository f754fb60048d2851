package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"
)

// serve-mix drives two resident services through their HTTP handlers
// in-process: one hosts pr:f64 (10 iterations), the other sssp:dist32. A
// service publishes a mutation only after every registered program re-ran,
// so one service per program is what lets "seconds until a fresh PageRank
// result" and "seconds until fresh shortest paths" be told apart from
// outside. Both run {Nodes 1, Threads 1, Sessions 1, RR, default cache}.
//
// A round is: one batch of 64 seeded edge insertions sent to each service
// and timed until a follow-up /result reports the new version (pr_s,
// sssp_s), while a paced reader issues reads at 500 req/s beside the writes;
// then a closed-loop block of reads over a fixed /topk + /result + /route
// mix. run_s is the whole round.
type serve struct {
	*env
	g     *Graph
	edges []Edge // G-serve's generated edges, then every inserted one
	final *Graph // G-serve plus every insertion, rebuilt by validate
	root  uint32
	prSvc *server
	spSvc *server

	rng     *rand.Rand
	fed     []uint32    // vertices with an in-edge: the only insertion destinations (see round)
	targets [3][]string // the read mix: request targets per kind
	next    int         // position in the read mix

	pacedTotal, pacedFailed int // paced reads are counted into acct after the rounds

	// traced-pass samples
	readLat, pacedLat []float64 // per-request latencies, microseconds
	pacedLate         int
	topkMiss, applyMS []float64
	prApplyMS         []float64
}

type round struct{ run, pr, sssp time.Duration }

func (e *env) runServe(traced bool) ([]graphInfo, error) {
	s := &serve{env: e}
	defer s.closeServices()
	passes := e.prof.setupPasses
	if traced {
		passes = 1
	}
	var setup, setupFactors []float64
	for p := 0; p < passes; p++ {
		s.closeServices()
		s.g, s.edges = nil, nil
		runtime.GC()
		factor, _, err := e.bracket(0, func() error {
			t := time.Now()
			err := s.setupPass()
			setup = append(setup, time.Since(t).Seconds())
			return err
		})
		if err != nil {
			return nil, err
		}
		setupFactors = append(setupFactors, factor)
	}
	e.setTiming("setup_s", setup, setupFactors)
	info := describe("G-serve", s.g)

	rec := e.rec
	var rounds, plain []round
	minRounds := e.prof.minReps
	if traced {
		minRounds = e.prof.tracedRounds
	}
	err := e.timedLoop(minRounds, func() error {
		// The traced pass alternates rounds with the recorder off and on;
		// their ratio is the tracing overhead.
		e.rec = rec
		if traced && (len(rounds)+len(plain))%2 == 0 {
			e.rec = nil
		}
		r, err := s.round(traced)
		if e.rec == nil && traced {
			plain = append(plain, r)
		} else {
			rounds = append(rounds, r)
		}
		e.rec = rec
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	runOf := func(r round) time.Duration { return r.run }
	if traced {
		if len(plain) > 0 {
			e.set("trace.overhead_share", median(column(rounds, runOf))/median(column(plain, runOf))-1)
		}
		return []graphInfo{info}, s.serviceMetrics()
	}
	e.set("heap_mb", heapMB())
	runtime.KeepAlive(s)
	e.setTiming("run_s", column(rounds, runOf), e.factors)
	e.setTiming("pr_s", column(rounds, func(r round) time.Duration { return r.pr }), e.factors)
	e.setTiming("sssp_s", column(rounds, func(r round) time.Duration { return r.sssp }), e.factors)
	return []graphInfo{info}, nil
}

func (s *serve) closeServices() {
	for _, svc := range []*server{s.prSvc, s.spSvc} {
		if svc != nil {
			svc.close()
		}
	}
	s.prSvc, s.spSvc = nil, nil
}

// setupPass generates G-serve, starts both services, registers their
// programs (a cold run each) and plays one warm-up round.
func (s *serve) setupPass() error {
	g, edges, err := s.generate(s.prof.serveLogV, s.prof.serveLogE, s.seed+1)
	if err != nil {
		return err
	}
	s.g, s.edges = g, edges
	roots, err := pickRoots(g, 1, s.prof.minRootDegree, s.seed+1)
	if err != nil {
		return err
	}
	s.root = roots[0]
	s.rng = rand.New(rand.NewSource(s.seed + 2))
	s.next = 0
	s.fed = s.fed[:0]
	for v := 0; v < g.NumVertices(); v++ {
		if g.InDegree(uint32(v)) > 0 {
			s.fed = append(s.fed, uint32(v))
		}
	}

	// Read targets are drawn once, so the timed loops format no strings.
	// /route asks only for vertices the root reaches: insertions never
	// disconnect them, so every request answers 200.
	reached := reach(g, s.root)
	const pool = 4096
	n := g.NumVertices()
	s.targets = [3][]string{{"/topk?app=pr&domain=f64&k=16"}, nil, nil}
	for i := 0; i < pool; i++ {
		s.targets[1] = append(s.targets[1], fmt.Sprintf("/result?app=sssp&domain=dist32&vertex=%d", s.rng.Intn(n)))
		s.targets[2] = append(s.targets[2], fmt.Sprintf("/route?app=sssp&domain=dist32&from=%d&to=%d", s.root, reached[s.rng.Intn(len(reached))]))
	}

	if s.prSvc, err = newServer(g); err != nil {
		return err
	}
	if s.spSvc, err = newServer(g); err != nil {
		return err
	}
	d1, err := s.span("service.register", func() error { return s.prSvc.register("pr", "f64", 0, servePRIters) })
	if err != nil {
		return err
	}
	d2, err := s.span("service.register", func() error { return s.spSvc.register("sssp", "dist32", s.root, 0) })
	if err != nil {
		return err
	}
	s.set("service.register_ms", ms(d1+d2))
	_, err = s.round(false)
	return err
}

// read returns the service and target of request i of the fixed mix: /topk
// on PageRank, then /result and /route on the shortest-path tree.
func (s *serve) read(i int) (*server, string) {
	kind := i % 3
	pool := s.targets[kind]
	svc := s.spSvc
	if kind == 0 {
		svc = s.prSvc
	}
	return svc, pool[(i/3)%len(pool)]
}

// round plays one round; see the type comment. With sample set it also
// keeps per-request latencies for the traced pass's percentiles.
//
// Insertions end only at vertices that already have an in-edge. A service
// pins its guidance roots (vertex 0 and every source) at registration, and
// an edge into a pinned source leaves PageRank with redundancy reduction
// wrong at that vertex by far more than the repo's 1e-4 tolerance (seen at
// the parent commit: 0.44 relative on a 2^10-vertex graph). That is a defect
// to fix in the service, not a cost to measure; the benchmark keeps to
// inputs on which no operation fails.
func (s *serve) round(sample bool) (round, error) {
	var r round
	// The batch and its body are made before the clock starts.
	batch := make([]Edge, batchEdges)
	var body strings.Builder
	body.WriteString(`{"add":[`)
	n := s.g.NumVertices()
	for i := range batch {
		batch[i] = Edge{Src: uint32(s.rng.Intn(n)), Dst: s.fed[s.rng.Intn(len(s.fed))], Weight: float32(1 + s.rng.Intn(maxWeight))}
		if i > 0 {
			body.WriteByte(',')
		}
		fmt.Fprintf(&body, `{"src":%d,"dst":%d,"weight":%g}`, batch[i].Src, batch[i].Dst, batch[i].Weight)
	}
	body.WriteString("]}")
	s.edges = append(s.edges, batch...)

	end := s.rec.start("round")
	defer end()
	start := time.Now()

	stop := make(chan struct{})
	var paced sync.WaitGroup
	paced.Add(1)
	go s.pacedReads(stop, &paced, s.rec.current(), sample)

	var err error
	if r.pr, err = s.mutateVisible(s.prSvc, body.String(), "/result?app=pr&domain=f64&vertex=0", sample); err == nil {
		r.sssp, err = s.mutateVisible(s.spSvc, body.String(), "/result?app=sssp&domain=dist32&vertex=0", sample)
	}
	close(stop)
	paced.Wait()
	if err != nil {
		return r, err
	}
	if sample {
		s.applyMS = append(s.applyMS, ms(r.pr+r.sssp))
	}

	_, err = s.span("service.read_block", func() error {
		for i := 0; i < s.prof.readsPerRound; i++ {
			svc, target := s.read(s.next)
			t := time.Now()
			code, _ := svc.do("GET", target, "")
			if sample {
				d := us(time.Since(t))
				s.readLat = append(s.readLat, d)
			}
			s.next++
			s.acct.check(code == 200, "GET %s: status %d", target, code)
		}
		return nil
	})
	r.run = time.Since(start)
	if sample && err == nil {
		// A /topk no earlier request can have cached: k is new every round.
		target := fmt.Sprintf("/topk?app=pr&domain=f64&k=%d", 100+len(s.topkMiss)%900)
		d, _ := s.span("service.topk_miss", func() error {
			code, _ := s.prSvc.do("GET", target, "")
			s.acct.check(code == 200, "GET %s: status %d", target, code)
			return nil
		})
		s.topkMiss = append(s.topkMiss, ms(d))
	}
	return r, err
}

// mutateVisible posts one batch and polls /result until it reports the
// batch's version: the time until a client can read results that include
// the new edges.
func (s *serve) mutateVisible(svc *server, body, probe string, sample bool) (time.Duration, error) {
	return s.span("service.mutate_visible", func() error {
		var applied struct{ Version uint64 }
		d, _ := s.span("service.mutate", func() error {
			code, resp := svc.do("POST", "/mutate", body)
			s.acct.check(code == 200, "POST /mutate: status %d: %s", code, resp)
			return json.Unmarshal(resp, &applied)
		})
		if sample && svc == s.prSvc {
			s.prApplyMS = append(s.prApplyMS, ms(d))
		}
		if applied.Version == 0 {
			return fmt.Errorf("POST /mutate returned no version")
		}
		for {
			var seen struct{ Version uint64 }
			code, resp := svc.do("GET", probe, "")
			s.acct.check(code == 200, "GET %s: status %d", probe, code)
			if err := json.Unmarshal(resp, &seen); err != nil {
				return err
			}
			if seen.Version >= applied.Version {
				return nil
			}
		}
	})
}

// pacedReads is the open-loop reader beside the writes: one read every 2 ms
// (500 req/s) on a fixed schedule, each timed from when it was due, so a
// stall counts against every read it delays. It owns its own position in
// the read mix.
func (s *serve) pacedReads(stop <-chan struct{}, done *sync.WaitGroup, parent int, sample bool) {
	defer done.Done()
	end := s.rec.startUnder(parent, "service.paced_reads")
	defer end()
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * pacedEvery)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-stop:
				return
			case <-time.After(wait):
			}
		}
		select {
		case <-stop:
			return
		default:
		}
		svc, target := s.read(i)
		sent := time.Now()
		code, _ := svc.do("GET", target, "")
		s.pacedTotal++
		if code != 200 {
			s.pacedFailed++
		}
		if sample {
			s.pacedLat = append(s.pacedLat, us(time.Since(due)))
			if sent.Sub(due) > pacedEvery {
				s.pacedLate++
			}
		}
	}
}

// validate checks both services' final results, at every vertex, against the
// serial references on the final graph, rebuilt from the generated edges plus
// every inserted one by the full constructor (not the incremental merge the
// services used): PageRank within 1e-4, distances exactly.
func (s *serve) validate() error {
	s.acct.count(s.pacedTotal, s.pacedFailed, "paced reads did not answer 200")

	final, err := buildGraph(s.g.NumVertices(), s.edges)
	if err != nil {
		return err
	}
	s.final = final
	wantRank := refPageRank(final, servePRIters)
	wantDist := refSSSP(final, s.root)
	value := func(svc *server, target string) (float64, bool) {
		var got struct{ Value *float64 }
		code, resp := svc.do("GET", target, "")
		if code != 200 || json.Unmarshal(resp, &got) != nil || got.Value == nil {
			return 0, false
		}
		return *got.Value, true
	}
	reached := make([]bool, final.NumVertices())
	for _, v := range reach(final, s.root) {
		reached[v] = true
	}
	for v := 0; v < final.NumVertices(); v++ {
		contrib, ok := value(s.prSvc, fmt.Sprintf("/result?app=pr&domain=f64&vertex=%d", v))
		rank := contrib
		if d := final.OutDegree(uint32(v)); d > 0 {
			rank = contrib * float64(d)
		}
		s.acct.check(ok && math.Abs(rank-wantRank[v]) <= 1e-4*(1+math.Abs(wantRank[v])),
			"PageRank of vertex %d: served %g, cold reference %g", v, rank, wantRank[v])
		if !reached[v] {
			continue // an unreached distance is +Inf, which the service's JSON cannot carry
		}
		dist, ok := value(s.spSvc, fmt.Sprintf("/result?app=sssp&domain=dist32&vertex=%d", v))
		s.acct.check(ok && dist == wantDist[v], "distance of vertex %d: served %g, cold reference %g", v, dist, wantDist[v])
	}
	return nil
}

// serviceMetrics reports the serving layer's own numbers from the traced
// rounds, then probes the two incremental steps an Apply is built from.
func (s *serve) serviceMetrics() error {
	s.set("service.apply_p50_ms", tail(s.applyMS, 50))
	s.set("service.apply_p80_ms", tail(s.applyMS, 80))
	s.set("service.read_quiet_p50_us", tail(s.readLat, 50))
	s.set("service.read_quiet_p99_us", tail(s.readLat, 99))
	s.set("service.read_under_mutation_p99_us", tail(s.pacedLat, 99))
	s.set("service.reader_late_share", float64(s.pacedLate)/float64(max(1, len(s.pacedLat))))
	s.set("service.topk_miss_ms", median(s.topkMiss))
	var block float64
	for _, d := range s.readLat {
		block += d
	}
	s.set("service.read_qps", float64(len(s.readLat))/(block/1e6))
	hits, misses := s.prSvc.cacheCounts()
	h2, m2 := s.spSvc.cacheCounts()
	s.set("service.cache_hit_share", float64(hits+h2)/float64(max(1, hits+h2+misses+m2)))
	s.set("service.throttled", float64(s.prSvc.throttled()+s.spSvc.throttled()))

	// The graph merge and the guidance update (on a clone, as the service
	// does it) on the final graph, with a fresh batch of the same size.
	final := s.final
	batch := make([]Edge, batchEdges)
	n := final.NumVertices()
	for i := range batch {
		batch[i] = Edge{Src: uint32(s.rng.Intn(n)), Dst: uint32(s.rng.Intn(n)), Weight: 1}
	}
	var merged *Graph
	d, err := s.medianOf(5, "graph.with_edges", func() (err error) {
		merged, err = withEdges(final, batch)
		return err
	})
	if err != nil {
		return err
	}
	s.set("graph.with_edges_ms", ms(d))
	gd := generateGuidance(final, defaultRoots(final), 1)
	d, err = s.medianOf(5, "rrg.update", func() error {
		_, err := gd.Clone().Update(merged, batch)
		return err
	})
	if err != nil {
		return err
	}
	s.set("rrg.update_ms", ms(d))

	// What the service adds above the engine: the PageRank service's
	// /mutate against the same 10 iterations on a resident session with
	// guidance in hand.
	direct, err := sessionPR(final, servePRIters, gd)
	if err != nil {
		return err
	}
	s.set("service.apply_overhead_ms", median(s.prApplyMS)-ms(direct))
	return s.probeSessionReuse(final, s.root, 1)
}
