package service_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"slfe/internal/gen"
	"slfe/internal/graph"
	"slfe/internal/service"
)

func newTestServer(t *testing.T) (*service.Service, *httptest.Server) {
	t.Helper()
	svc, err := service.New(gen.Uniform(120, 500, 4, 19), service.Config{Nodes: 1, Threads: 2, RR: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(service.Handler(svc))
	t.Cleanup(func() { ts.Close(); svc.Close() })
	return svc, ts
}

func getJSON(t *testing.T, url string, wantCode int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func postJSON(t *testing.T, url, body string, wantCode int) map[string]any {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("POST %s: status %d, want %d", url, resp.StatusCode, wantCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestHTTPLifecycle(t *testing.T) {
	_, ts := newTestServer(t)

	health := getJSON(t, ts.URL+"/healthz", http.StatusOK)
	if health["status"] != "ok" {
		t.Fatalf("health: %v", health)
	}
	v0 := health["version"].(float64)

	reg := postJSON(t, ts.URL+"/register", `{"app":"sssp","domain":"f64","root":0}`, http.StatusOK)
	if reg["version"].(float64) != v0+1 {
		t.Fatalf("register did not bump version: %v", reg)
	}

	res := getJSON(t, ts.URL+"/result?app=sssp&domain=f64&vertex=0", http.StatusOK)
	if res["value"].(float64) != 0 {
		t.Fatalf("sssp root distance: %v", res)
	}

	mut := postJSON(t, ts.URL+"/mutate",
		`{"add_vertices":1,"add":[{"src":0,"dst":120,"weight":2.5},{"src":120,"dst":1}]}`,
		http.StatusOK)
	if mut["version"].(float64) != v0+2 {
		t.Fatalf("mutate did not bump version: %v", mut)
	}
	if mut["vertices"].(float64) != 121 {
		t.Fatalf("vertex growth lost: %v", mut)
	}

	res = getJSON(t, ts.URL+"/result?app=sssp&domain=f64&vertex=120", http.StatusOK)
	if res["value"].(float64) != 2.5 {
		t.Fatalf("new vertex distance: %v", res)
	}
	if res["warm"] != true {
		t.Fatalf("mutation result not marked warm: %v", res)
	}

	stats := getJSON(t, ts.URL+"/stats", http.StatusOK)
	if stats["version"].(float64) != v0+2 || stats["vertices"].(float64) != 121 {
		t.Fatalf("stats: %v", stats)
	}
}

func TestHTTPErrors(t *testing.T) {
	_, ts := newTestServer(t)
	postJSON(t, ts.URL+"/register", `{"app":"sssp","domain":"f64"}`, http.StatusOK)

	// Malformed and invalid mutations: decode-level 400s.
	postJSON(t, ts.URL+"/mutate", `{`, http.StatusBadRequest)
	postJSON(t, ts.URL+"/mutate", `{"add":[{"dst":3}]}`, http.StatusBadRequest)
	postJSON(t, ts.URL+"/mutate", `{"add":[{"src":0,"dst":99999}]}`, http.StatusBadRequest)
	postJSON(t, ts.URL+"/mutate", `{"unknown_field":1}`, http.StatusBadRequest)
	postJSON(t, ts.URL+"/mutate", `{}`, http.StatusBadRequest)

	// Reads of unknown programs / bad vertices.
	getJSON(t, ts.URL+"/result?app=pr&domain=f64&vertex=0", http.StatusNotFound)
	getJSON(t, ts.URL+"/result?app=sssp&domain=f64&vertex=banana", http.StatusBadRequest)
	getJSON(t, ts.URL+"/result?app=sssp&domain=f64&vertex=-1", http.StatusBadRequest)

	// Registration errors surface as 422.
	postJSON(t, ts.URL+"/register", `{"app":"sssp","domain":"f64"}`, http.StatusUnprocessableEntity)
	postJSON(t, ts.URL+"/register", `{"app":"nope","domain":"f64"}`, http.StatusUnprocessableEntity)

	// Method confusion.
	resp, err := http.Get(ts.URL + "/mutate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /mutate: %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/stats", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /stats: %d", resp.StatusCode)
	}
}

// newRouteServer serves a hand-built diamond so route/topk answers are
// checkable by eye: 0→1→2 (weight 1 each) beats the direct 0→2 (weight 5),
// and vertex 3 is unreachable.
func newRouteServer(t *testing.T, cfg service.Config) (*service.Service, *httptest.Server) {
	t.Helper()
	g := graph.MustBuild(4, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 1},
		{Src: 1, Dst: 2, Weight: 1},
		{Src: 0, Dst: 2, Weight: 5},
	})
	svc, err := service.New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Register("sssp", "dist32", 0, 0); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(service.Handler(svc))
	t.Cleanup(func() { ts.Close(); svc.Close() })
	return svc, ts
}

func TestHTTPRoute(t *testing.T) {
	_, ts := newRouteServer(t, service.Config{Nodes: 1, Threads: 1})

	res := getJSON(t, ts.URL+"/route?app=sssp&domain=dist32&from=0&to=2", http.StatusOK)
	if res["distance"].(float64) != 2 || res["hops"].(float64) != 2 {
		t.Fatalf("route 0→2: %v", res)
	}
	path := res["path"].([]any)
	want := []float64{0, 1, 2}
	if len(path) != len(want) {
		t.Fatalf("path: %v", path)
	}
	for i, v := range path {
		if v.(float64) != want[i] {
			t.Fatalf("path: %v, want %v", path, want)
		}
	}
	if res["cached"] != false {
		t.Fatalf("first route lookup claims cached: %v", res)
	}
	res = getJSON(t, ts.URL+"/route?app=sssp&domain=dist32&from=0&to=2", http.StatusOK)
	if res["cached"] != true {
		t.Fatalf("second route lookup missed the cache: %v", res)
	}

	// Unreached target and a from off to's root path: 404, not a hang.
	getJSON(t, ts.URL+"/route?app=sssp&domain=dist32&from=0&to=3", http.StatusNotFound)
	getJSON(t, ts.URL+"/route?app=sssp&domain=dist32&from=2&to=0", http.StatusNotFound)
	// Out-of-range and malformed endpoints.
	getJSON(t, ts.URL+"/route?app=sssp&domain=dist32&from=0&to=99", http.StatusBadRequest)
	getJSON(t, ts.URL+"/route?app=sssp&domain=dist32&from=x&to=1", http.StatusBadRequest)

	// A domain with no parent tree cannot answer routes.
	postJSON(t, ts.URL+"/register", `{"app":"sssp","domain":"f64","root":0}`, http.StatusOK)
	getJSON(t, ts.URL+"/route?app=sssp&domain=f64&from=0&to=2", http.StatusUnprocessableEntity)
}

func TestHTTPTopKAndCacheInvalidation(t *testing.T) {
	_, ts := newRouteServer(t, service.Config{Nodes: 1, Threads: 1})

	res := getJSON(t, ts.URL+"/topk?app=sssp&domain=dist32&k=2&order=asc", http.StatusOK)
	top := res["top"].([]any)
	if len(top) != 2 {
		t.Fatalf("topk: %v", top)
	}
	first := top[0].(map[string]any)
	second := top[1].(map[string]any)
	if first["vertex"].(float64) != 0 || first["value"].(float64) != 0 {
		t.Fatalf("topk[0]: %v", first)
	}
	if second["vertex"].(float64) != 1 || second["value"].(float64) != 1 {
		t.Fatalf("topk[1]: %v", second)
	}
	if res["cached"] != false {
		t.Fatalf("first topk claims cached: %v", res)
	}
	if res = getJSON(t, ts.URL+"/topk?app=sssp&domain=dist32&k=2&order=asc", http.StatusOK); res["cached"] != true {
		t.Fatalf("second topk missed the cache: %v", res)
	}

	// The unreachable vertex (+Inf) must never rank.
	res = getJSON(t, ts.URL+"/topk?app=sssp&domain=dist32&k=10&order=desc", http.StatusOK)
	if top := res["top"].([]any); len(top) != 3 {
		t.Fatalf("unreached vertex ranked: %v", top)
	}

	// A mutation bumps the version: cached rankings must not survive it.
	postJSON(t, ts.URL+"/mutate", `{"add":[{"src":0,"dst":3,"weight":1}]}`, http.StatusOK)
	res = getJSON(t, ts.URL+"/topk?app=sssp&domain=dist32&k=2&order=asc", http.StatusOK)
	if res["cached"] != true {
		// Apply invalidates eagerly, so this is a fresh (miss) computation.
		if res["cached"] != false {
			t.Fatalf("topk after mutate: %v", res)
		}
	} else {
		t.Fatalf("stale topk served after mutation: %v", res)
	}

	// Bad parameters.
	getJSON(t, ts.URL+"/topk?app=sssp&domain=dist32&k=0", http.StatusBadRequest)
	getJSON(t, ts.URL+"/topk?app=sssp&domain=dist32&k=100000", http.StatusBadRequest)
	getJSON(t, ts.URL+"/topk?app=sssp&domain=dist32&order=sideways", http.StatusBadRequest)
	getJSON(t, ts.URL+"/topk?app=nope&domain=f64", http.StatusNotFound)
}

// TestHTTPThrottling saturates the admission bounds directly and verifies
// both endpoint classes answer 429 with a Retry-After hint instead of
// queueing without bound — and recover once slots free up.
func TestHTTPThrottling(t *testing.T) {
	svc, ts := newRouteServer(t, service.Config{
		Nodes: 1, Threads: 1, MutationQueue: 1, ReadInflight: 1,
	})

	expect429 := func(do func() (*http.Response, error)) {
		t.Helper()
		resp, err := do()
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("saturated endpoint: status %d, want 429", resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("429 without a Retry-After hint")
		}
	}

	if !svc.Admission().AdmitRead() {
		t.Fatal("could not occupy the read slot")
	}
	expect429(func() (*http.Response, error) { return http.Get(ts.URL + "/result?app=sssp&domain=dist32&vertex=0") })
	svc.Admission().DoneRead()
	getJSON(t, ts.URL+"/result?app=sssp&domain=dist32&vertex=0", http.StatusOK)

	if !svc.Admission().AdmitMutation() {
		t.Fatal("could not occupy the mutation slot")
	}
	expect429(func() (*http.Response, error) {
		return http.Post(ts.URL+"/mutate", "application/json", strings.NewReader(`{"add":[{"src":0,"dst":1}]}`))
	})
	svc.Admission().DoneMutation()
	postJSON(t, ts.URL+"/mutate", `{"add":[{"src":0,"dst":1,"weight":1}]}`, http.StatusOK)

	// /healthz is never gated: it must answer even with both classes full.
	svc.Admission().AdmitRead()
	svc.Admission().AdmitMutation()
	getJSON(t, ts.URL+"/healthz", http.StatusOK)
	stats := getJSON(t, ts.URL+"/stats", http.StatusTooManyRequests)
	_ = stats
	svc.Admission().DoneRead()
	svc.Admission().DoneMutation()

	st := getJSON(t, ts.URL+"/stats", http.StatusOK)
	adm := st["admission"].(map[string]any)
	if adm["throttled_reads"].(float64) < 2 || adm["throttled_mutations"].(float64) < 1 {
		t.Fatalf("throttle counters not exported: %v", adm)
	}
}
