package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"

	"slfe/internal/core"
	"slfe/internal/graph"
)

// maxBodyBytes bounds mutation/registration request bodies.
const maxBodyBytes = 8 << 20

// maxTopK bounds one /topk response.
const maxTopK = 1000

// Handler serves the service's HTTP surface:
//
//	GET  /healthz                           liveness + current version (never gated, never locked)
//	GET  /stats                             graph/program/mutation/cache/admission statistics
//	GET  /result?app=&domain=&vertex=       one program value at one vertex
//	GET  /topk?app=&domain=&k=&order=       k best vertices by value (cached per version)
//	GET  /route?app=&domain=&from=&to=      shortest path from a dist32 parent tree (cached per version)
//	POST /mutate                            apply one mutation batch (JSON)
//	POST /register                          register an (app, domain) program
//
// Every read pins one snapshot for its whole request, so a concurrent
// mutation can never tear a response across versions, and no read path
// takes the writer lock. Writers pass a bounded admission queue; saturation
// answers 429 with Retry-After instead of queueing without bound.
func Handler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if !get(w, r) {
			return
		}
		// Liveness is deliberately ungated and lock-free: it must answer
		// while the writer re-executes a batch and while readers saturate
		// their in-flight bound.
		snap := s.Snapshot()
		status := "ok"
		code := http.StatusOK
		if !s.Healthy() {
			status = "degraded"
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, map[string]any{"status": status, "version": snap.Version})
	})
	mux.HandleFunc("/stats", readEndpoint(s, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, statsOf(s))
	}))
	mux.HandleFunc("/result", readEndpoint(s, func(w http.ResponseWriter, r *http.Request) {
		handleResult(s, w, r)
	}))
	mux.HandleFunc("/topk", readEndpoint(s, func(w http.ResponseWriter, r *http.Request) {
		handleTopK(s, w, r)
	}))
	mux.HandleFunc("/route", readEndpoint(s, func(w http.ResponseWriter, r *http.Request) {
		handleRoute(s, w, r)
	}))
	mux.HandleFunc("/mutate", writeEndpoint(s, func(w http.ResponseWriter, r *http.Request) {
		handleMutate(s, w, r)
	}))
	mux.HandleFunc("/register", writeEndpoint(s, func(w http.ResponseWriter, r *http.Request) {
		handleRegister(s, w, r)
	}))
	return mux
}

// readEndpoint gates a GET handler behind the read in-flight bound.
func readEndpoint(s *Service, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !get(w, r) {
			return
		}
		if !s.adm.AdmitRead() {
			throttled(w)
			return
		}
		defer s.adm.DoneRead()
		h(w, r)
	}
}

// writeEndpoint gates a POST handler behind the bounded mutation queue.
func writeEndpoint(s *Service, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !post(w, r) {
			return
		}
		if !s.adm.AdmitMutation() {
			throttled(w)
			return
		}
		defer s.adm.DoneMutation()
		h(w, r)
	}
}

// throttled answers an admission rejection: 429 plus a Retry-After hint.
func throttled(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
	httpError(w, http.StatusTooManyRequests, fmt.Errorf("server saturated; retry later"))
}

// program resolves the app/domain query pair against one pinned snapshot.
func program(snap *Snapshot, w http.ResponseWriter, q map[string][]string) (*Program, string, bool) {
	app, domain := first(q, "app"), first(q, "domain")
	id := ProgramID(app, domain)
	p, ok := snap.Programs[id]
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("program %s is not registered", id))
		return nil, id, false
	}
	return p, id, true
}

func first(q map[string][]string, key string) string {
	if vs := q[key]; len(vs) > 0 {
		return vs[0]
	}
	return ""
}

func handleResult(s *Service, w http.ResponseWriter, r *http.Request) {
	snap := s.Snapshot()
	q := r.URL.Query()
	p, _, ok := program(snap, w, q)
	if !ok {
		return
	}
	vertex, err := strconv.ParseInt(q.Get("vertex"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("invalid vertex: %v", err))
		return
	}
	if vertex < 0 || vertex >= int64(len(p.Outcome.Values)) {
		httpError(w, http.StatusBadRequest, fmt.Errorf("vertex %d outside [0, %d)", vertex, len(p.Outcome.Values)))
		return
	}
	body := resultBody{App: q.Get("app"), Domain: q.Get("domain"), Version: snap.Version, Vertex: vertex, Warm: p.Warm}
	if x := &p.Outcome.Values[vertex]; !math.IsInf(*x, 0) && !math.IsNaN(*x) {
		body.Value = x
	}
	writeJSON(w, http.StatusOK, &body)
}

// /result and a /route miss encode typed structs whose fields follow the
// sorted key order encoding/json gives a map: the same bytes, without
// reflecting over and sorting map keys per request. A /topk miss, once per
// ranking and version, keeps its map.

// resultBody is one /result answer. A non-finite value (an unreached
// shortest-path vertex) has no JSON number and reads null.
type resultBody struct {
	App     string   `json:"app"`
	Domain  string   `json:"domain"`
	Value   *float64 `json:"value"`
	Version uint64   `json:"version"`
	Vertex  int64    `json:"vertex"`
	Warm    bool     `json:"warm"`
}

// topKEntry is one /topk row.
type topKEntry struct {
	Vertex uint32  `json:"vertex"`
	Value  float64 `json:"value"`
}

// routeBody is one /route answer.
type routeBody struct {
	App      string   `json:"app"`
	Cached   bool     `json:"cached"`
	Distance float64  `json:"distance"`
	Domain   string   `json:"domain"`
	From     uint64   `json:"from"`
	Hops     int      `json:"hops"`
	Path     []uint32 `json:"path"`
	To       uint64   `json:"to"`
	Version  uint64   `json:"version"`
}

func handleTopK(s *Service, w http.ResponseWriter, r *http.Request) {
	snap := s.Snapshot()
	q := r.URL.Query()
	p, id, ok := program(snap, w, q)
	if !ok {
		return
	}
	k := 10
	if ks := q.Get("k"); ks != "" {
		v, err := strconv.Atoi(ks)
		if err != nil || v < 1 || v > maxTopK {
			httpError(w, http.StatusBadRequest, fmt.Errorf("k must be in [1, %d]", maxTopK))
			return
		}
		k = v
	}
	order := q.Get("order")
	switch order {
	case "":
		order = "desc"
	case "asc", "desc":
	default:
		httpError(w, http.StatusBadRequest, fmt.Errorf("order must be asc or desc"))
		return
	}

	key := "topk:" + id + ":" + strconv.Itoa(k) + ":" + order
	if b, ok := s.cache.Get(key, snap.Version); ok {
		writeBytes(w, http.StatusOK, b)
		return
	}
	writeMiss(s, w, key, snap.Version, map[string]any{
		"app":     q.Get("app"),
		"cached":  true,
		"domain":  q.Get("domain"),
		"k":       k,
		"order":   order,
		"version": snap.Version,
		"top":     topK(p.Outcome.Values, k, order == "asc"),
	})
}

// topK ranks finite values (the +Inf unreached sentinel is skipped; integer
// domains' MaxUint32 sentinel is a value like any other and sorts to the
// far end of its order). Ties break on the lower vertex id so rankings are
// deterministic. A bounded heap keeps the k best entries seen, the worst at
// its root, so a ranking costs O(|V| log k) instead of a full sort.
func topK(values []float64, k int, asc bool) []topKEntry {
	// behind reports whether a ranks after b.
	behind := func(a, b topKEntry) bool {
		if a.Value != b.Value {
			return (a.Value > b.Value) == asc
		}
		return a.Vertex > b.Vertex
	}
	// down sifts h[i] until no child ranks behind its parent.
	down := func(h []topKEntry, i int) {
		for c := 2*i + 1; c < len(h); i, c = c, 2*c+1 {
			if c+1 < len(h) && behind(h[c+1], h[c]) {
				c++
			}
			if !behind(h[c], h[i]) {
				return
			}
			h[i], h[c] = h[c], h[i]
		}
	}
	h := make([]topKEntry, 0, min(k, len(values)))
	for v, x := range values {
		if math.IsInf(x, 0) || math.IsNaN(x) {
			continue
		}
		e := topKEntry{Vertex: uint32(v), Value: x}
		switch {
		case len(h) < k:
			h = append(h, e)
			for i := len(h) - 1; i > 0 && behind(h[i], h[(i-1)/2]); i = (i - 1) / 2 {
				h[i], h[(i-1)/2] = h[(i-1)/2], h[i]
			}
		case behind(h[0], e):
			h[0] = e
			down(h, 0)
		}
	}
	// Move the worst entry to the back until the heap is spent: best first.
	for end := len(h) - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		down(h[:end], 0)
	}
	return h
}

func handleRoute(s *Service, w http.ResponseWriter, r *http.Request) {
	snap := s.Snapshot()
	q := r.URL.Query()
	p, id, ok := program(snap, w, q)
	if !ok {
		return
	}
	if p.Outcome.Parents == nil {
		httpError(w, http.StatusUnprocessableEntity,
			fmt.Errorf("program %s carries no parent tree; register a dist32 program for routes", id))
		return
	}
	from, err1 := strconv.ParseUint(q.Get("from"), 10, 32)
	to, err2 := strconv.ParseUint(q.Get("to"), 10, 32)
	n := uint64(len(p.Outcome.Values))
	if err1 != nil || err2 != nil || from >= n || to >= n {
		httpError(w, http.StatusBadRequest, fmt.Errorf("from and to must be vertices in [0, %d)", n))
		return
	}

	key := "route:" + id + ":" + strconv.FormatUint(from, 10) + ":" + strconv.FormatUint(to, 10)
	if b, ok := s.cache.Get(key, snap.Version); ok {
		writeBytes(w, http.StatusOK, b)
		return
	}
	path, ok := walkParents(p.Outcome.Parents, uint32(from), uint32(to))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no route from %d to %d in %s's shortest-path tree", from, to, id))
		return
	}
	writeMiss(s, w, key, snap.Version, &routeBody{
		App: q.Get("app"), Cached: true, Distance: p.Outcome.Values[to] - p.Outcome.Values[from],
		Domain: q.Get("domain"), From: from, Hops: len(path) - 1, Path: path, To: to, Version: snap.Version,
	})
}

// walkParents climbs the predecessor tree from `to` until it meets `from`
// (or the tree root), returning the from→to path in travel order. ok is
// false when `to` is unreached or `from` does not lie on to's root path.
// The step bound makes a (theoretically impossible, but wire-adjacent)
// parent cycle terminate as "no route" instead of hanging the handler.
func walkParents(parents []uint32, from, to uint32) ([]uint32, bool) {
	path := []uint32{to}
	v := to
	for steps := 0; v != from; steps++ {
		p := parents[v]
		if p == core.NoParent || steps >= len(parents) {
			return nil, false
		}
		path = append(path, p)
		v = p
	}
	// Reverse into travel order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, true
}

func handleMutate(s *Service, w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if len(body) > maxBodyBytes {
		httpError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("mutation body over %d bytes", maxBodyBytes))
		return
	}
	// Validated against the version the batch will apply to: Apply holds
	// the writer lock, and decode-then-apply races only with other writers
	// (growth-only), so a decoded batch stays in range.
	b, err := DecodeBatch(body, s.Snapshot().Graph.NumVertices())
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	// The request context bounds the session-pool wait: a client that gives
	// up (or a server shutting down) stops queueing for a session instead of
	// pinning /mutate behind a wedged run.
	snap, err := s.ApplyCtx(r.Context(), b)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"version":  snap.Version,
		"vertices": snap.Graph.NumVertices(),
		"edges":    snap.Graph.NumEdges(),
		"added":    len(b.Adds),
		"removed":  len(b.Deletes),
		"full":     len(b.Deletes) > 0,
	})
}

// registerRequest is the JSON surface of POST /register.
type registerRequest struct {
	App    string `json:"app"`
	Domain string `json:"domain"`
	Root   int64  `json:"root"`
	Iters  int    `json:"iters"`
}

func handleRegister(s *Service, w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil || len(body) > maxBodyBytes {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad registration body"))
		return
	}
	var req registerRequest
	if err := json.Unmarshal(body, &req); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if req.Root < 0 || req.Root > int64(^uint32(0)) {
		httpError(w, http.StatusBadRequest, fmt.Errorf("root %d out of range", req.Root))
		return
	}
	if req.Iters <= 0 {
		req.Iters = 10
	}
	snap, err := s.RegisterCtx(r.Context(), req.App, req.Domain, graph.VertexID(req.Root), req.Iters)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"version":  snap.Version,
		"program":  ProgramID(req.App, req.Domain),
		"programs": len(snap.Programs),
	})
}

// statsOf flattens the current snapshot plus the service-level counters
// (cache, admission, session pool) for /stats.
func statsOf(s *Service) map[string]any {
	snap := s.Snapshot()
	programs := make([]map[string]any, 0, len(snap.Programs))
	ids := make([]string, 0, len(snap.Programs))
	for id := range snap.Programs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		p := snap.Programs[id]
		programs = append(programs, map[string]any{
			"id":         id,
			"sym":        p.NeedsSym,
			"iterations": p.Outcome.Iterations,
			"warm":       p.Warm,
			"routes":     p.Outcome.Parents != nil,
		})
	}
	cs := s.cache.Stats()
	as := s.adm.Stats()
	ps := s.PoolStats()
	out := map[string]any{
		"version":  snap.Version,
		"vertices": snap.Graph.NumVertices(),
		"edges":    snap.Graph.NumEdges(),
		"programs": programs,
		"mutations": map[string]any{
			"batches":       snap.Stats.Batches,
			"edges_added":   snap.Stats.EdgesAdded,
			"edges_removed": snap.Stats.EdgesRemoved,
			"incremental":   snap.Stats.Incremental,
			"full_rebuilds": snap.Stats.FullRebuilds,
		},
		"cache": map[string]any{
			"capacity":      cs.Capacity,
			"entries":       cs.Entries,
			"hits":          cs.Hits,
			"misses":        cs.Misses,
			"evictions":     cs.Evictions,
			"invalidations": cs.Invalidations,
		},
		"admission": map[string]any{
			"mutation_queue":      as.MutationQueue,
			"read_inflight":       as.ReadInflight,
			"throttled_mutations": as.ThrottledMutations,
			"throttled_reads":     as.ThrottledReads,
		},
		"sessions": map[string]any{
			"size":             ps.Size,
			"rebuilds":         ps.Rebuilds,
			"rebuild_failures": ps.RebuildFailures,
		},
	}
	if snap.Sym != nil {
		out["sym_edges"] = snap.Sym.NumEdges()
	}
	return out
}

func get(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return false
	}
	return true
}

func post(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return false
	}
	return true
}

// writeJSON encodes v in full before the header goes out, so a value JSON
// cannot carry answers 500 instead of an empty 200.
func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := encodeJSON(v)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	writeBytes(w, code, b)
}

// cachedTrue is the flag in a body writeMiss stores. Only the app name, a
// JSON string with its quotes escaped, precedes it, so the first match is
// the flag itself.
var cachedTrue = []byte(`"cached":true`)

// writeMiss answers a cacheable read the cache missed. body is encoded once
// with its cached flag set; the cache keeps those bytes for every later hit
// at this version, and this request gets a copy flagged "cached":false.
func writeMiss(s *Service, w http.ResponseWriter, key string, version uint64, body any) {
	hit, err := encodeJSON(body)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	s.cache.Put(key, version, hit)
	writeBytes(w, http.StatusOK, bytes.Replace(hit, cachedTrue, []byte(`"cached":false`), 1))
}

// encodeJSON is v as a response body: JSON and a newline, as json.Encoder
// writes it.
func encodeJSON(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	return append(b, '\n'), err
}

func writeBytes(w http.ResponseWriter, code int, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(b)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]any{"error": err.Error()})
}
