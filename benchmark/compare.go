package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// A report set is a file of concatenated report objects (what -append
// writes): several runs of each workload at one commit.

func readReports(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var reps []report
	for dec := json.NewDecoder(f); ; {
		var r report
		if err := dec.Decode(&r); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		reps = append(reps, r)
	}
	if len(reps) == 0 {
		return nil, fmt.Errorf("%s holds no report", path)
	}
	return reps, nil
}

// seriesKey names one metric on one workload.
type seriesKey struct{ workload, metric string }

// series gathers, per workload and metric, the value each run of the set
// reported, and counts the set's failed operations.
func series(reps []report) (map[seriesKey][]float64, int) {
	out := map[seriesKey][]float64{}
	failed := 0
	for _, r := range reps {
		failed += r.Failed
		for name, m := range r.Metrics {
			k := seriesKey{r.Workload, name}
			out[k] = append(out[k], m.Value)
		}
	}
	return out, failed
}

// verdict judges one end-to-end pair: how much worse b's median is than a's
// as a share of a's, against the metric's bound. Where either set's own
// run-to-run spread exceeds the bound the pair is unresolved, not unchanged.
func verdict(ms metricSpec, a, b []float64) (worse float64, status string) {
	worse = worseBy(ms, a, b)
	switch {
	case worse > ms.Bound:
		return worse, "BREACH"
	case max(spread(a), spread(b)) > ms.Bound:
		return worse, "unresolved"
	}
	return worse, "ok"
}

// worseBy is how much worse b's median is than a's, as a share of a's, in
// the metric's own direction.
func worseBy(ms metricSpec, a, b []float64) float64 {
	ma := median(a)
	if ma == 0 {
		return 0
	}
	worse := (median(b) - ma) / ma
	if ms.Better == "higher" {
		worse = -worse
	}
	return worse
}

// compareFiles prints every metric x workload pair of two report sets and
// returns an error if an end-to-end pair breaches its bound or either set
// counted a failed operation.
func compareFiles(w io.Writer, sp *spec, pathA, pathB string) error {
	ra, err := readReports(pathA)
	if err != nil {
		return err
	}
	rb, err := readReports(pathB)
	if err != nil {
		return err
	}
	sa, failedA := series(ra)
	sb, failedB := series(rb)

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tn\tmedian a\tmedian b\tspread a\tspread b\tworse by\tbound\tstatus")
	breaches := 0
	row := func(wl string, ms metricSpec, bounded bool) {
		k := seriesKey{wl, ms.Name}
		a, b := sa[k], sb[k]
		if len(a) == 0 || len(b) == 0 {
			return
		}
		worse, status, bound := worseBy(ms, a, b), "", "-"
		if bounded {
			_, status = verdict(ms, a, b)
			bound = fmt.Sprintf("%.2f", ms.Bound)
			if status == "BREACH" {
				breaches++
			}
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d/%d\t%.6g\t%.6g\t%.3f\t%.3f\t%+.3f\t%s\t%s\n",
			wl, ms.Name, ms.Unit, len(a), len(b), median(a), median(b), spread(a), spread(b), worse, bound, status)
	}
	for _, wl := range sp.workloadNames() {
		for _, ms := range sp.EndToEnd {
			row(wl, ms, true)
		}
	}
	layers := append([]metricSpec(nil), sp.PerLayer...)
	sort.Slice(layers, func(i, j int) bool { return layers[i].Name < layers[j].Name })
	for _, wl := range sp.workloadNames() {
		for _, ms := range layers {
			row(wl, ms, false)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "failed operations: a %d, b %d (bound: 0)\n", failedA, failedB)
	switch {
	case failedA+failedB > 0:
		return errors.New("a set counted failed operations")
	case breaches > 0:
		return fmt.Errorf("%d end-to-end pairs breach their bound", breaches)
	}
	return nil
}
