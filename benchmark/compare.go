package main

// -compare: the A/A and before/after check (ROADMAP 1(b)). For every
// (workload, end-to-end metric) pairing it prints both sides' medians and
// quartiles and one verdict:
//
//	ok          B's median is no worse than A's by more than the bound
//	regressed   it is worse by more than the bound
//	unresolved  it is within the bound, but one side's own runs spread
//	            (Q3−Q1 over the median) wider than the bound, so the
//	            comparison cannot tell — unless every run of B reads better
//	            than every run of A, which is ok

import (
	"fmt"
	"io"
	"slices"
)

type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegressed  verdict = "regressed"
	verdictUnresolved verdict = "unresolved"
)

// judge compares two samples of one metric.
func judge(d metricDef, a, b []float64) (verdict, float64) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return verdictUnresolved, 0
	}
	worse := (mb - ma) / ma
	if d.better == "higher" {
		worse = -worse
	}
	if worse > d.bound {
		return verdictRegressed, worse
	}
	if spread(a) > d.bound || spread(b) > d.bound {
		allBetter := slices.Max(b) < slices.Min(a)
		if d.better == "higher" {
			allBetter = slices.Min(b) > slices.Max(a)
		}
		if !allBetter {
			return verdictUnresolved, worse
		}
	}
	return verdictOK, worse
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / m
}

// collect groups the end-to-end runs' values by workload and metric.
func collect(f runFile) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range f.Runs {
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v.Value)
		}
	}
	return out
}

func compareMain(args []string, w io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare needs two files: A.json B.json")
	}
	fa, err := readRunFile(args[0])
	if err != nil {
		return err
	}
	fb, err := readRunFile(args[1])
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A: %s %s GOMAXPROCS=%d nproc=%d commit=%s\n", args[0], fa.Env.GoVersion, fa.Env.GOMAXPROCS, fa.Env.NumCPU, fa.Env.Commit)
	fmt.Fprintf(w, "B: %s %s GOMAXPROCS=%d nproc=%d commit=%s\n", args[1], fb.Env.GoVersion, fb.Env.GOMAXPROCS, fb.Env.NumCPU, fb.Env.Commit)
	a, b := collect(fa), collect(fb)
	fmt.Fprintf(w, "%-12s %-12s %5s %12s %12s %12s %12s %12s %12s %8s %6s  %s\n",
		"workload", "metric", "n", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "worse", "bound", "verdict")
	counts := map[verdict]int{}
	for _, wl := range workloadTable {
		for _, d := range endToEnd {
			xa, xb := a[wl.name][d.name], b[wl.name][d.name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			v, worse := judge(d, xa, xb)
			counts[v]++
			a1, a3 := quartiles(xa)
			b1, b3 := quartiles(xb)
			fmt.Fprintf(w, "%-12s %-12s %2d/%-2d %12.5g %12.5g %12.5g %12.5g %12.5g %12.5g %+7.1f%% %5.0f%%  %s\n",
				wl.name, d.name, len(xa), len(xb), a1, median(xa), a3, b1, median(xb), b3, 100*worse, 100*d.bound, v)
		}
	}
	fmt.Fprintf(w, "%d ok, %d regressed, %d unresolved\n", counts[verdictOK], counts[verdictRegressed], counts[verdictUnresolved])
	if counts[verdictRegressed] > 0 {
		return fmt.Errorf("%d regressed", counts[verdictRegressed])
	}
	return nil
}
