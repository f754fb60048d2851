package service

import (
	"bufio"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"slfe/internal/gen"
)

// readGoldenPrograms are the programs the golden service registers, as the
// query prefix every read names them by.
var readGoldenPrograms = []string{
	"app=pr&domain=f64", "app=sssp&domain=dist32", "app=sssp&domain=f64", "app=cc&domain=u32",
}

// readGoldenRequests is the fixed request sequence TestReadResponsesGolden
// replays, one "METHOD target [body]" per entry: /result on reached and
// unreached vertices, every /topk twice (miss, then hit) in both orders
// with k of 1, 16, past |V| and the default, /route miss then hit, 404s,
// and the same reads again after a /mutate that reaches vertex 62.
func readGoldenRequests() []string {
	var reqs []string
	reads := func(vertices ...string) {
		for _, prog := range readGoldenPrograms {
			for _, v := range vertices {
				reqs = append(reqs, "GET /result?"+prog+"&vertex="+v)
			}
			for _, q := range []string{"&k=1&order=asc", "&k=1&order=desc", "&k=16&order=asc", "&k=16&order=desc", "&k=1000&order=asc", "&k=1000", ""} {
				reqs = append(reqs, "GET /topk?"+prog+q, "GET /topk?"+prog+q)
			}
		}
		for _, to := range []string{"0", "3", "17", "40", "62"} {
			r := "GET /route?app=sssp&domain=dist32&from=0&to=" + to
			reqs = append(reqs, r, r)
		}
	}
	reads("0", "1", "17", "40", "62", "63")
	reqs = append(reqs,
		"GET /route?app=sssp&domain=dist32&from=3&to=0",
		"GET /topk?app=nope&domain=f64",
		"GET /result?app=sssp&domain=u32&vertex=0",
		"GET /route?app=sssp&domain=f64&from=0&to=1",
		`POST /mutate {"add_vertices":1,"add":[{"src":0,"dst":64,"weight":2},{"src":64,"dst":62,"weight":1}]}`,
	)
	reads("62", "64")
	return reqs
}

// goldenService hosts a fixed 64-vertex R-MAT graph with PageRank,
// shortest paths in both value domains and connected components registered.
func goldenService(t testing.TB) http.Handler {
	t.Helper()
	svc, err := New(gen.RMAT(64, 160, gen.DefaultRMAT, 8, 11), Config{Nodes: 1, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	for _, p := range []struct {
		app, domain string
		iters       int
	}{{"pr", "f64", 10}, {"sssp", "dist32", 0}, {"sssp", "f64", 0}, {"cc", "u32", 0}} {
		if _, err := svc.Register(p.app, p.domain, 0, p.iters); err != nil {
			t.Fatal(err)
		}
	}
	return Handler(svc)
}

// serve answers one "METHOD target [body]" request in-process.
func serve(h http.Handler, req string) *httptest.ResponseRecorder {
	method, rest, _ := strings.Cut(req, " ")
	target, body, _ := strings.Cut(rest, " ")
	var r io.Reader
	if body != "" {
		r = strings.NewReader(body)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, r))
	return rec
}

// TestReadResponsesGolden pins the exact status, Content-Type and body of
// every response in readGoldenRequests. testdata/read_golden.txt holds, per
// request, the request line, "status Content-Type" and the body (one line;
// the encoder's trailing newline is implied). The goldens were captured
// from the map-encoding read handlers; the only entries changed since are
// the /result bodies of unreached vertices (an sssp value of +Inf), which
// were empty 200s and now carry "value":null.
func TestReadResponsesGolden(t *testing.T) {
	h := goldenService(t)
	f, err := os.Open("testdata/read_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	line := func() string {
		if !sc.Scan() {
			t.Fatalf("golden file ends early: %v", sc.Err())
		}
		return sc.Text()
	}
	nulls := 0
	for _, req := range readGoldenRequests() {
		if got := line(); got != req {
			t.Fatalf("golden file out of step: request %q, file has %q", req, got)
		}
		head, body := line(), line()+"\n"
		rec := serve(h, req)
		got := strconv.Itoa(rec.Code) + " " + rec.Header().Get("Content-Type")
		if got != head || rec.Body.String() != body {
			t.Errorf("%s:\n got  %s\n      %q\n want %s\n      %q", req, got, rec.Body.String(), head, body)
		}
		if strings.Contains(body, `"value":null`) {
			nulls++
		}
	}
	if sc.Scan() {
		t.Fatalf("golden file has entries past the request list: %q", sc.Text())
	}
	if nulls == 0 {
		t.Fatal("no golden covers an unreached vertex")
	}
}

// TestResultUnreachedVertexIsNull: an unreached shortest-path vertex holds
// +Inf, which JSON cannot carry; /result answers it as "value":null with
// every other field present, never as an empty 200.
func TestResultUnreachedVertexIsNull(t *testing.T) {
	h := goldenService(t)
	for _, domain := range []string{"dist32", "f64"} {
		rec := serve(h, "GET /result?app=sssp&domain="+domain+"&vertex=62")
		want := `{"app":"sssp","domain":"` + domain + `","value":null,"version":5,"vertex":62,"warm":false}` + "\n"
		if rec.Code != http.StatusOK || rec.Body.String() != want {
			t.Fatalf("%s unreached /result: %d %q, want 200 %q", domain, rec.Code, rec.Body.String(), want)
		}
	}
	// Whatever else JSON cannot carry answers 500 with an error body.
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, math.Inf(1))
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), `"error"`) {
		t.Fatalf("unencodable body: %d %q, want 500 with an error", rec.Code, rec.Body.String())
	}
}

// fullSortTopK is the full-sort ranking /topk used before the bounded
// selection, kept as the oracle: finite values only, ties to the lower id.
func fullSortTopK(values []float64, k int, asc bool) []topKEntry {
	idx := make([]uint32, 0, len(values))
	for v, x := range values {
		if !math.IsInf(x, 0) && !math.IsNaN(x) {
			idx = append(idx, uint32(v))
		}
	}
	sort.Slice(idx, func(i, j int) bool {
		a, b := values[idx[i]], values[idx[j]]
		if a != b {
			if asc {
				return a < b
			}
			return a > b
		}
		return idx[i] < idx[j]
	})
	if len(idx) > k {
		idx = idx[:k]
	}
	out := make([]topKEntry, len(idx))
	for i, v := range idx {
		out[i] = topKEntry{Vertex: v, Value: values[v]}
	}
	return out
}

func TestTopKMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	specials := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), math.MaxUint32}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		values := make([]float64, n)
		for i := range values {
			switch r := rng.Intn(10); {
			case r < 3:
				values[i] = specials[rng.Intn(len(specials))]
			case r < 6:
				values[i] = float64(rng.Intn(8)) // ties
			default:
				values[i] = rng.NormFloat64()
			}
		}
		for _, k := range []int{1, 2, 16, n - 1, n, n + 5, 1000} {
			if k < 1 {
				continue
			}
			for _, asc := range []bool{false, true} {
				got, want := topK(values, k, asc), fullSortTopK(values, k, asc)
				if len(got) != len(want) {
					t.Fatalf("n=%d k=%d asc=%v: %d entries, want %d", n, k, asc, len(got), len(want))
				}
				for i := range want {
					if got[i].Vertex != want[i].Vertex || math.Float64bits(got[i].Value) != math.Float64bits(want[i].Value) {
						t.Fatalf("n=%d k=%d asc=%v: entry %d = %+v, want %+v", n, k, asc, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestCachedReadAllocBudget bounds the allocations of one cached /topk
// hit, one cached /route hit and one /result, counting the 9 the
// httptest recorder and request make themselves.
func TestCachedReadAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	h := goldenService(t)
	const budget = 30
	for _, req := range []string{
		"GET /topk?app=pr&domain=f64&k=16",
		"GET /route?app=sssp&domain=dist32&from=0&to=17",
		"GET /result?app=sssp&domain=dist32&vertex=17",
	} {
		if rec := serve(h, req); rec.Code != http.StatusOK { // warms the cache
			t.Fatalf("%s: status %d", req, rec.Code)
		}
		allocs := testing.AllocsPerRun(200, func() { serve(h, req) })
		t.Logf("%s: %.0f allocations per request", req, allocs)
		if allocs > budget {
			t.Errorf("%s: %.0f allocations per request, budget %d", req, allocs, budget)
		}
	}
}
