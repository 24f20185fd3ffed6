package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// values collects one end-to-end metric's values on one workload over the
// runs of a set.
func (s *setFile) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if r.Workload == workload && r.Trace == 0 {
			if v, ok := r.Result.Metrics[metric]; ok {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

// spread is the distance between the first and third quartile as a share
// of the median: the driver's measure of run-to-run noise.
func spread(values []float64) float64 {
	q1, med, q3 := quartiles(values)
	return ratio(q3-q1, med)
}

// summarize prints, for every workload and end-to-end metric, the median,
// quartiles, spread and max/min ratio over the set's runs.
func (s *setFile) summarize(w io.Writer) {
	s.Env.print(w)
	fmt.Fprintf(w, "%-13s %-14s %3s %12s %12s %12s %8s %7s %8s\n", "workload", "metric", "n", "q1", "median", "q3", "spread", "bound", "max/min")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			v := s.values(wl.name, d.Name)
			if len(v) == 0 {
				continue
			}
			q1, med, q3 := quartiles(v)
			note := ""
			if d.Name != "setup_s" && spread(v) > d.Bound {
				note = "  spread wider than the bound"
			}
			fmt.Fprintf(w, "%-13s %-14s %3d %12.4f %12.4f %12.4f %8.4f %7.2f %8.4f%s\n", wl.name, d.Name, len(v),
				q1, med, q3, spread(v), d.Bound, ratio(slices.Max(v), slices.Min(v)), note)
		}
	}
	var failed, attempted int64
	for _, r := range s.Runs {
		failed += r.Result.Failed
		attempted += r.Result.Attempted
	}
	fmt.Fprintf(w, "failed_share %.6f (%d of %d)\n", ratio(float64(failed), float64(attempted)), failed, attempted)
}

func readSet(path string) (*setFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s setFile
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// verdict judges one (workload, metric) pair of a comparison: unresolved
// when either side's spread is wider than the bound, worse when b's
// median is worse than a's by more than the bound, ok otherwise. Failures
// are judged on their own: failed_share may rise by at most 0.001.
func verdict(d metricDef, a, b []float64) (rel float64, status string) {
	ma, mb := median(a), median(b)
	rel = ratio(mb, ma)
	worse := rel - 1
	if d.Better == "higher" {
		worse = 1 - rel
	}
	// setup_s is a few milliseconds; the driver, too, judges it by its
	// medians alone.
	wide := func(v []float64) bool { return d.Name != "setup_s" && len(v) >= 4 && spread(v) > d.Bound }
	switch {
	case wide(a), wide(b):
		return rel, "unresolved"
	case worse > d.Bound:
		return rel, "worse"
	}
	return rel, "ok"
}

// compareFiles prints one row per workload and end-to-end metric: both
// medians, the ratio with its base, the bound and the verdict. It returns
// an error when any row is worse or unresolved.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readSet(pathA)
	if err != nil {
		return err
	}
	b, err := readSet(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "a = %s (commit %s)\nb = %s (commit %s)\n", pathA, a.Env.Commit, pathB, b.Env.Commit)
	fmt.Fprintf(w, "%-13s %-14s %12s %12s %18s %6s  %s\n", "workload", "metric", "a median", "b median", "b/a (base a)", "bound", "verdict")
	bad := 0
	for _, wl := range workloads {
		for _, d := range endToEnd {
			va, vb := a.values(wl.name, d.Name), b.values(wl.name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			rel, status := verdict(d, va, vb)
			if status != "ok" {
				bad++
			}
			fmt.Fprintf(w, "%-13s %-14s %12.4f %12.4f %8.4f of %-8.4g %5.0f%%  %s\n", wl.name, d.Name,
				median(va), median(vb), rel, median(va), d.Bound*100, status)
		}
		fa, fb := a.failedShare(wl.name), b.failedShare(wl.name)
		status := "ok"
		if fb > fa+0.001 {
			status = "worse"
			bad++
		}
		fmt.Fprintf(w, "%-13s %-14s %12.6f %12.6f %18s %6s  %s\n", wl.name, "failed_share", fa, fb, "", "+0.001", status)
	}
	if bad > 0 {
		return fmt.Errorf("%d rows are worse or unresolved", bad)
	}
	return nil
}

func (s *setFile) failedShare(workload string) float64 {
	var failed, attempted int64
	for _, r := range s.Runs {
		if r.Workload == workload {
			failed += r.Result.Failed
			attempted += r.Result.Attempted
		}
	}
	return ratio(float64(failed), float64(attempted))
}
