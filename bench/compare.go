package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"

	"configerator/internal/stats"
)

// quartiles returns the first, second and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), so a spread
// computed here agrees with one computed by the driver.
func quartiles(xs []float64) (q [3]float64) {
	data := append([]float64(nil), xs...)
	sort.Float64s(data)
	n := len(data)
	if n == 1 {
		return [3]float64{data[0], data[0], data[0]}
	}
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4 // after clamping, as Python computes it
		q[i-1] = (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return q
}

// spread is the distance between the first and third quartile as a share of
// the median: the run-to-run noise a difference must exceed to mean anything.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q := quartiles(xs)
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / q[1]
}

func readSuite(path string) (*suiteFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f suiteFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func sum(xs []int) (n int) {
	for _, x := range xs {
		n += x
	}
	return n
}

// compareFiles prints one row per (workload, end-to-end metric): both
// medians, B's ratio to A with A as the base, the wider of the two spreads,
// the metric's bound and a verdict. "regressed": B's median is worse than
// A's by more than the bound. "unresolved": a spread is wider than the
// bound, so the runs cannot tell. It reports whether anything regressed.
func compareFiles(w io.Writer, spec *benchSpec, pathA, pathB string) (regressed bool, err error) {
	a, err := readSuite(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSuite(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A = %s (commit %s, %d runs per workload)\nB = %s (commit %s, %d runs per workload)\n",
		pathA, a.Stamp.GitCommit, a.Runs, pathB, b.Stamp.GitCommit, b.Runs)
	if a.Stamp.hardware() != b.Stamp.hardware() {
		fmt.Fprintf(w, "warning: measured on different set-ups; wall-clock rows do not compare\n  A: %s\n  B: %s\n",
			a.Stamp.hardware(), b.Stamp.hardware())
	}
	if a.Stamp.Seed != b.Stamp.Seed || a.Stamp.Seconds != b.Stamp.Seconds || a.Runs != b.Runs {
		fmt.Fprintf(w, "warning: different inputs (A: seed %d, %g s, %d runs; B: seed %d, %g s, %d runs); simulated clocks and counts will differ\n",
			a.Stamp.Seed, a.Stamp.Seconds, a.Runs, b.Stamp.Seed, b.Stamp.Seconds, b.Runs)
	}
	byName := map[string]suiteWorkload{}
	for _, wl := range b.Workloads {
		byName[wl.Name] = wl
	}
	tb := stats.NewTable("B against A, medians", "workload", "metric", "unit", "A", "B", "B/A", "spread", "bound", "verdict")
	counts := map[string]int{}
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			return false, fmt.Errorf("%s: workload %s missing", pathB, wa.Name)
		}
		for _, m := range spec.EndToEnd {
			va, vb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			if len(va) == 0 || len(vb) == 0 {
				return false, fmt.Errorf("%s: metric %s missing in one file", wa.Name, m.Name)
			}
			ma, mb := quartiles(va)[1], quartiles(vb)[1]
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			noise := spread(va)
			if s := spread(vb); s > noise {
				noise = s
			}
			verdict := "ok"
			switch {
			case slices.Equal(va, vb):
				verdict = "ok (identical)"
			case noise > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
				regressed = true
			}
			counts[verdict]++
			tb.AddRawRow(wa.Name, m.Name, m.Unit, fmt.Sprintf("%.6g", ma), fmt.Sprintf("%.6g", mb),
				fmt.Sprintf("%.4f", mb/ma), fmt.Sprintf("%.1f%%", 100*noise), fmt.Sprintf("%.0f%%", 100*m.Bound), verdict)
		}
		fa, fb := sum(wa.FailedOps), sum(wb.FailedOps)
		verdict := "ok"
		if float64(fb)/float64(fb+sum(wb.Ops)) > float64(fa)/float64(fa+sum(wa.Ops)) {
			verdict = "regressed"
			regressed = true
		}
		counts[verdict]++
		tb.AddRawRow(wa.Name, "failed_ops/ops", "count", fmt.Sprintf("%d/%d", fa, sum(wa.Ops)),
			fmt.Sprintf("%d/%d", fb, sum(wb.Ops)), "", "", "", verdict)
	}
	fmt.Fprint(w, tb.String())
	for _, v := range sortedKeys(counts) {
		fmt.Fprintf(w, "%d %s  ", counts[v], v)
	}
	fmt.Fprintln(w)
	return regressed, nil
}
