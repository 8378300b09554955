package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchDef is the part of BENCHMARK.json -compare reads.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Workload != "" {
			recs = append(recs, r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s holds no records", path)
	}
	return recs, nil
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) computes them (the
// "exclusive" method).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), median(s), q(3)
}

// compareFiles compares the end-to-end metrics of two record files,
// workload by workload. A difference is called only when the medians
// differ by more than the metric's bound in BENCHMARK.json and the parent's
// own spread is within that bound; otherwise the pair is unresolved.
func compareFiles(w io.Writer, parentPath, changePath string) error {
	blob, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var def benchDef
	if err := json.Unmarshal(blob, &def); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	parent, err := readRecords(parentPath)
	if err != nil {
		return err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return err
	}
	for _, r := range append(parent[1:], change...) {
		if !r.Host.sameMachine(parent[0].Host) {
			return fmt.Errorf("records come from different hosts (%+v vs %+v); they cannot be compared", parent[0].Host, r.Host)
		}
	}
	// The same workload and seed must have run the same inputs.
	inputs := make(map[string]string)
	for _, r := range append(append([]record(nil), parent...), change...) {
		key := fmt.Sprintf("%s/%d", r.Workload, r.Seed)
		if h, ok := inputs[key]; ok && h != r.Inputs.SHA256 {
			return fmt.Errorf("%s ran different inputs in the two files; they cannot be compared", key)
		}
		inputs[key] = r.Inputs.SHA256
	}
	values := func(recs []record, wl, name string) []float64 {
		var out []float64
		for _, r := range recs {
			if m, ok := r.Metrics[name]; ok && r.Workload == wl && !r.Trace {
				out = append(out, m.Value)
			}
		}
		return out
	}
	var wls []string
	seen := make(map[string]bool)
	for _, r := range parent {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			wls = append(wls, r.Workload)
		}
	}
	fmt.Fprintf(w, "%-18s %-22s %5s %-34s %5s %-34s %8s %6s  %s\n", "workload", "metric",
		"n", "parent median [q1, q3]", "n", "change median [q1, q3]", "delta", "bound", "verdict")
	worse := 0
	for _, wl := range wls {
		for _, m := range def.EndToEnd {
			a, b := values(parent, wl, m.Name), values(change, wl, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			a1, am, a3 := quartiles(a)
			b1, bm, b3 := quartiles(b)
			delta := (bm - am) / math.Abs(am)
			verdict := "unresolved"
			spread := (a3 - a1) / math.Abs(am)
			if math.Abs(delta) > m.Bound && spread <= m.Bound {
				if (delta > 0) == (m.Better == "higher") {
					verdict = "better"
				} else {
					verdict = "WORSE"
					worse++
				}
			}
			fmt.Fprintf(w, "%-18s %-22s %5d %-34s %5d %-34s %+7.1f%% %5.0f%%  %s\n", wl, m.Name,
				len(a), fmt.Sprintf("%.6g [%.6g, %.6g]", am, a1, a3),
				len(b), fmt.Sprintf("%.6g [%.6g, %.6g]", bm, b1, b3),
				100*delta, 100*m.Bound, verdict)
		}
	}
	if worse > 0 {
		fmt.Fprintf(w, "%d metric(s) worse by more than their bound\n", worse)
	}
	return nil
}
