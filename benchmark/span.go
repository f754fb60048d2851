package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// A span is one timed call into a layer, recorded from the benchmark's own
// code (spans inside the engine are ROADMAP item 4). Times are offsets from
// the recorder's epoch.
type span struct {
	ID       int
	Parent   int // 0: no parent
	Name     string
	Workload string
	Start    time.Duration
	End      time.Duration
}

// recorder is the in-memory span store of a traced run. A nil recorder
// records nothing, which is how end-to-end runs keep tracing off.
type recorder struct {
	mu       sync.Mutex
	epoch    time.Time
	workload string
	spans    []span
	stack    []int // open spans of the driving goroutine, innermost last
}

func newRecorder(workload string) *recorder {
	return &recorder{epoch: time.Now(), workload: workload}
}

// start opens a span under the driving goroutine's innermost open span and
// returns the function that closes it. Only the goroutine that drives the
// workload may call start; helpers on other goroutines use startUnder.
func (r *recorder) start(name string) func() {
	if r == nil {
		return func() {}
	}
	r.mu.Lock()
	parent := 0
	if len(r.stack) > 0 {
		parent = r.stack[len(r.stack)-1]
	}
	id := r.open(name, parent)
	r.stack = append(r.stack, id)
	r.mu.Unlock()
	return func() {
		r.mu.Lock()
		r.spans[id-1].End = time.Since(r.epoch)
		r.stack = r.stack[:len(r.stack)-1]
		r.mu.Unlock()
	}
}

// current is the driving goroutine's innermost open span (0: none).
func (r *recorder) current() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.stack) == 0 {
		return 0
	}
	return r.stack[len(r.stack)-1]
}

// startUnder opens a span with an explicit parent, for goroutines beside
// the driving one (the paced reader of serve-mix).
func (r *recorder) startUnder(parent int, name string) func() {
	if r == nil {
		return func() {}
	}
	r.mu.Lock()
	id := r.open(name, parent)
	r.mu.Unlock()
	return func() {
		r.mu.Lock()
		r.spans[id-1].End = time.Since(r.epoch)
		r.mu.Unlock()
	}
}

// open appends a span; the caller holds mu. IDs are 1-based indexes.
func (r *recorder) open(name string, parent int) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Workload: r.workload, Start: time.Since(r.epoch)})
	return id
}

// selfTimes returns, per span ID, the span's duration minus the part of it
// its direct children cover. Children may overlap one another (concurrent
// helpers), so their intervals are clipped to the parent and unioned.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := time.Duration(0)
		edge := s.Start // everything before edge is already counted
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// layerOf is the span-name prefix before the first dot: the repo package
// the timed call went into.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// writeChrome writes the spans in Chrome trace-event format (load the file
// in chrome://tracing or Perfetto).
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	self := selfTimes(spans)
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		events = append(events, event{
			Name: s.Name, Cat: layerOf(s.Name), Ph: "X",
			Ts: us(s.Start), Dur: us(s.End - s.Start), Pid: 1, Tid: 1,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "workload": s.Workload, "self_us": us(self[s.ID])},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printTable writes the per-span-name totals: calls, total and self time.
func (r *recorder) printTable(w io.Writer) {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	self := selfTimes(spans)
	type row struct {
		name        string
		calls       int
		total, self time.Duration
	}
	rows := map[string]*row{}
	for _, s := range spans {
		rw := rows[s.Name]
		if rw == nil {
			rw = &row{name: s.Name}
			rows[s.Name] = rw
		}
		rw.calls++
		rw.total += s.End - s.Start
		rw.self += self[s.ID]
	}
	sorted := make([]*row, 0, len(rows))
	for _, rw := range rows {
		sorted = append(sorted, rw)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].name < sorted[j].name })
	fmt.Fprintf(w, "%-28s %7s %12s %12s\n", "span", "calls", "total_ms", "self_ms")
	for _, rw := range sorted {
		fmt.Fprintf(w, "%-28s %7d %12.3f %12.3f\n", rw.name, rw.calls, ms(rw.total), ms(rw.self))
	}
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
