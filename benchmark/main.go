// Command benchmark is the repository's yardstick: four workloads, five
// end-to-end metrics every workload reports, and a traced pass that breaks
// the same work down per layer. See README.md for what is measured and why;
// BENCHMARK.json (one directory up) declares every name, unit and bound.
//
//	bash benchmark/run.sh --workload heap-1r --seed 1 --seconds 12 --trace 0
//	bash benchmark/run.sh -compare baseline/BENCH_13.a.json baseline/BENCH_13.b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload name from BENCHMARK.json, or all")
		seed     = flag.Int64("seed", 1, "seed every input is generated from")
		seconds  = flag.Float64("seconds", 0, "seconds of timed repetitions (default: run_seconds of BENCHMARK.json)")
		traced   = flag.Int("trace", 0, "1: run the traced pass and report the per-layer metrics")
		smoke    = flag.Bool("smoke", false, "tiny inputs, one repetition: checks plumbing, measures nothing")
		appendTo = flag.String("append", "", "append the full report as one JSON line to this file")
		compare  = flag.Bool("compare", false, "compare two report sets: -compare a.json b.json")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *traced != 0, *smoke, *appendTo, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, traced, smoke bool, appendTo string, compare bool, args []string) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	sp, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if compare {
		if len(args) != 2 {
			return errors.New("-compare takes two report files")
		}
		return compareFiles(os.Stdout, sp, args[0], args[1])
	}
	names := []string{workload}
	if workload == "all" {
		names = sp.workloadNames()
	} else if !sp.hasWorkload(workload) {
		return fmt.Errorf("unknown workload %q; BENCHMARK.json declares %s", workload, strings.Join(sp.workloadNames(), ", "))
	}
	if seconds <= 0 {
		seconds = float64(sp.RunSeconds)
	}
	prof := fullProfile
	if smoke {
		prof = smokeProfile
	}
	// The benchmark is one load-generating process and never runs more
	// ranks x threads than the host has processors, so GOMAXPROCS stays at
	// the processor count.
	for _, name := range names {
		env := &env{
			spec: sp, prof: prof, root: root, workload: name, seed: seed, seconds: seconds,
			threads: min(runtime.NumCPU(), 4),
		}
		rep, err := env.runWorkload(traced)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := rep.print(os.Stdout, os.Stderr); err != nil {
			return err
		}
		if appendTo != "" {
			if err := rep.appendTo(appendTo); err != nil {
				return err
			}
		}
	}
	return nil
}

// findRoot locates the checkout root, the directory holding BENCHMARK.json:
// the working directory under run.sh, its parent under `go run .` or
// `go test` inside benchmark/.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("BENCHMARK.json not found in . or ..; run from the checkout root or from benchmark/")
}

// ---- BENCHMARK.json -------------------------------------------------------

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

func (sp *spec) workloadNames() []string {
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	return names
}

func (sp *spec) hasWorkload(name string) bool {
	for _, w := range sp.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// metrics returns the declared metrics of one pass: per-layer for a traced
// run, end-to-end otherwise.
func (sp *spec) metrics(traced bool) []metricSpec {
	if traced {
		return sp.PerLayer
	}
	return sp.EndToEnd
}

// ---- report ---------------------------------------------------------------

// metricValue is one reported number. Where it is a median over
// repetitions, the sample count and the quartiles are beside it, and for a
// timing the median of the raw seconds, before speed normalisation.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	Raw   float64 `json:"raw,omitempty"`
}

// report is everything one run of one workload produced. Its last printed
// line is the driver's contract; the full form is what -append stores and
// -compare reads.
type report struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Traced    bool                   `json:"traced"`
	Smoke     bool                   `json:"smoke,omitempty"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Inputs    []graphInfo            `json:"inputs"`
	Host      hostInfo               `json:"host"`
	// SpeedFactor is the median speed factor of the timed repetitions
	// (see speedometer): how much slower than nominal the host ran.
	SpeedFactor float64  `json:"speed_factor,omitempty"`
	Notes       []string `json:"notes,omitempty"`
}

// print writes the full report (one JSON line) and then, last, the line the
// driver parses: exactly correct, attempted, failed and metrics.
func (r *report) print(stdout, stderr *os.File) error {
	full, err := json.Marshal(r)
	if err != nil {
		return err
	}
	for _, n := range r.Notes {
		fmt.Fprintln(stderr, "note:", n)
	}
	type bare struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]bare, len(r.Metrics))
	for name, m := range r.Metrics {
		metrics[name] = bare{m.Value, m.Unit}
	}
	last, err := json.Marshal(map[string]any{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n%s\n", full, last)
	return err
}

func (r *report) appendTo(path string) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---- host fingerprint -----------------------------------------------------

type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	LLCBytes   int64  `json:"llc_bytes"`
	Commit     string `json:"commit"`
}

func fingerprint(root string) hostInfo {
	return hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		LLCBytes:   llcBytes(),
		Commit:     commitOf(root),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown" where
// there is none).
func cpuModel() string {
	data, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(data), "\n") {
		if key, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// llcBytes is the size of cpu0's highest-level cache as sysfs reports it
// (0 where it does not).
func llcBytes() int64 {
	var best, bestLevel int64
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, dir := range dirs {
		var level, size int64
		var unit string
		lv, _ := os.ReadFile(filepath.Join(dir, "level"))
		sz, _ := os.ReadFile(filepath.Join(dir, "size"))
		fmt.Sscan(string(lv), &level)
		fmt.Sscanf(strings.TrimSpace(string(sz)), "%d%s", &size, &unit)
		switch unit {
		case "K":
			size <<= 10
		case "M":
			size <<= 20
		}
		if level > bestLevel {
			best, bestLevel = size, level
		}
	}
	return best
}

// commitOf resolves .git/HEAD by hand: the driver's checkout is not a git
// repository, and the benchmark starts no process to ask.
func commitOf(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		data, err := os.ReadFile(filepath.Join(root, ".git", name))
		if err != nil {
			return "unknown"
		}
		ref = strings.TrimSpace(string(data))
	}
	return ref
}
