package main

import (
	"math"
	"regexp"
	"slices"
	"sort"
	"testing"
	"time"
)

// Deterministic tests only: nothing here asserts a wall-clock time.

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values are statistics.quantiles(xs, n=4) from Python 3.
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 3, 1, 4, 2}, [3]float64{1.5, 3.0, 4.5}},
		{[]float64{3, 1}, [3]float64{0.5, 2.0, 3.5}},
		{[]float64{1.0, 1.1, 0.9, 1.3, 1.05, 0.95, 1.2, 1.0, 1.02, 0.98}, [3]float64{0.9725, 1.01, 1.125}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.xs)
		for i, got := range []float64{q1, med, q3} {
			if math.Abs(got-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v)[%d] = %v, want %v", c.xs, i, got, c.want[i])
			}
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := spread([]float64{1, 2, 3, 4, 5}); got != 1 {
		t.Errorf("spread = %v, want (4.5-1.5)/3 = 1", got)
	}
}

func TestHighestPercentileWithTenSamplesBeyond(t *testing.T) {
	for n, want := range map[int]float64{0: 0, 19: 0, 20: 50, 49: 50, 50: 80, 99: 80, 100: 90, 199: 90, 200: 95, 999: 95, 1000: 99, 1 << 20: 99} {
		if got := highestPercentile(n); got != want {
			t.Errorf("highestPercentile(%d) = %v, want %v", n, got, want)
		}
	}
	xs := make([]float64, 60)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := tail(xs, 80); got != 48 { // nearest rank: ceil(0.8*60)
		t.Errorf("p80 of 1..60 = %v, want 48", got)
	}
	if got := tail(xs, 99); got != 48 { // 60 samples support no more than p80
		t.Errorf("p99 asked of 60 samples = %v, want the p80, 48", got)
	}
	if got := tail(xs[:10], 99); got != 5 { // too few for any tail: the median stands in
		t.Errorf("p99 asked of 10 samples = %v, want the median, 5", got)
	}
}

func TestChecksumIsBitExact(t *testing.T) {
	a := []float64{0, 1.5, math.Inf(1)}
	if checksum(a) != checksum([]float64{0, 1.5, math.Inf(1)}) {
		t.Error("equal arrays, different checksums")
	}
	if checksum(a) == checksum([]float64{math.Copysign(0, -1), 1.5, math.Inf(1)}) {
		t.Error("-0 and +0 differ in bits but not in checksum")
	}
}

func TestSpanSelfTime(t *testing.T) {
	u := time.Microsecond
	spans := []span{
		{ID: 1, Start: 0, End: 100 * u},
		{ID: 2, Parent: 1, Start: 10 * u, End: 30 * u},
		{ID: 3, Parent: 1, Start: 20 * u, End: 50 * u},  // overlaps span 2: counted once
		{ID: 4, Parent: 1, Start: 90 * u, End: 120 * u}, // outlives its parent: clipped
		{ID: 5, Parent: 3, Start: 25 * u, End: 45 * u},  // grandchild: only span 3's concern
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 50 * u, 2: 20 * u, 3: 10 * u, 4: 30 * u, 5: 20 * u} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
}

func TestRecorderNesting(t *testing.T) {
	var off *recorder
	off.start("ignored")() // a nil recorder is tracing off
	r := newRecorder("w")
	endA := r.start("layer.a")
	endB := r.start("other.b")
	side := r.startUnder(r.current(), "layer.side")
	side()
	endB()
	endC := r.start("layer.c")
	endC()
	endA()
	parents := map[string]int{}
	for _, s := range r.spans {
		parents[s.Name] = s.Parent
		if s.End < s.Start || s.Workload != "w" {
			t.Errorf("span %+v is malformed", s)
		}
	}
	want := map[string]int{"layer.a": 0, "other.b": 1, "layer.side": 2, "layer.c": 1}
	for name, p := range want {
		if parents[name] != p {
			t.Errorf("parent of %s = %d, want %d", name, parents[name], p)
		}
	}
	if layerOf("layer.side") != "layer" {
		t.Error("layerOf")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "run_s", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "qps", Better: "higher", Bound: 0.10}
	steady := func(m float64) []float64 { return []float64{m, m * 1.001, m * 0.999, m, m} }
	noisy := []float64{0.7, 1.0, 1.3, 0.8, 1.2}
	cases := []struct {
		ms     metricSpec
		a, b   []float64
		status string
	}{
		{lower, steady(1), steady(1.05), "ok"},
		{lower, steady(1), steady(1.2), "BREACH"},
		{lower, steady(1), steady(0.5), "ok"},
		{higher, steady(100), steady(80), "BREACH"},
		{higher, steady(100), steady(120), "ok"},
		{lower, steady(1), noisy, "unresolved"},
	}
	for _, c := range cases {
		if _, got := verdict(c.ms, c.a, c.b); got != c.status {
			t.Errorf("verdict(%s %s, median %v -> %v) = %s, want %s", c.ms.Name, c.ms.Better, median(c.a), median(c.b), got, c.status)
		}
	}
}

// TestSmoke runs every workload of BENCHMARK.json in both passes on the
// smoke profile (2^10 vertices, one repetition) and checks that each run
// names exactly the declared metrics and counts no failed operation.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"heap-1r", "slfc-1r", "tcp-2r", "serve-mix"}
	if got := sp.workloadNames(); !slices.Equal(got, want) {
		t.Fatalf("BENCHMARK.json workloads = %v, the benchmark implements %v", got, want)
	}
	for _, name := range want {
		for _, traced := range []bool{false, true} {
			e := &env{spec: sp, prof: smokeProfile, root: "..", workload: name, seed: 7, seconds: 0.001, threads: 2}
			rep, err := e.runWorkload(traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if rep.Failed != 0 || !rep.Correct || rep.Attempted < 1 {
				t.Errorf("%s traced=%v: attempted %d, failed %d: %v", name, traced, rep.Attempted, rep.Failed, rep.Notes)
			}
			var declared, emitted []string
			for _, ms := range sp.metrics(traced) {
				declared = append(declared, ms.Name)
				if got := rep.Metrics[ms.Name].Unit; got != ms.Unit {
					t.Errorf("%s: %s has unit %q, declared %q", name, ms.Name, got, ms.Unit)
				}
				if v := rep.Metrics[ms.Name].Value; !traced && !(v > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", name, ms.Name, v)
				}
			}
			for m := range rep.Metrics {
				emitted = append(emitted, m)
			}
			sort.Strings(declared)
			sort.Strings(emitted)
			if !slices.Equal(declared, emitted) {
				t.Errorf("%s traced=%v: emitted %v, declared %v", name, traced, emitted, declared)
			}
		}
	}
}

// TestSpecWithinContract checks BENCHMARK.json against the limits the
// driver refuses a file for.
func TestSpecWithinContract(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(sp.Workloads) < 2 || len(sp.Workloads) > 8 || len(sp.EndToEnd) < 1 || len(sp.EndToEnd) > 16 ||
		len(sp.PerLayer) < 1 || len(sp.PerLayer) > 128 || sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Error("a count is outside the contract's limits")
	}
	for _, w := range sp.Workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("why of %s has %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range sp.EndToEnd {
		check(m.Name)
		if !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %+v is outside the contract", m)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s in s, lower is better")
	}
	for _, m := range sp.PerLayer {
		check(m.Name)
		if !unit.MatchString(m.Unit) || m.Bound != 0 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v is outside the contract", m)
		}
	}
	if len(sp.Paths) != 1 || sp.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", sp.Paths)
	}
}
