// Command benchmark is the repository's benchmark: eight seeded workloads
// over the tag-free collector's layers, every result checked against a Go
// reference, end-to-end metrics with tracing off and per-layer metrics from
// a separate traced pass. BENCHMARK.json at the repository root names the
// workloads and metrics; README.md in this directory explains them.
//
//	go run ./benchmark                      every workload, once
//	go run ./benchmark -workload churn      one workload
//	go run ./benchmark -trace out.json      also the traced pass; spans to out.json
//	go run ./benchmark -runs 10 -out A.json ten runs of each, on seeds seed..seed+9
//	go run ./benchmark -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// runFile is what -out writes and -compare reads.
type runFile struct {
	Env  envStamp  `json:"env"`
	Runs []*result `json:"runs"`
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload (default: all, each in its own process)")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same programs")
		seconds = flag.Float64("seconds", 10, "how long the timed repeats of one run measure")
		trace   = flag.String("trace", "0", "0: end-to-end metrics; 1: the traced pass and per-layer metrics; a path: also write the spans there as Chrome trace-event JSON")
		runs    = flag.Int("runs", 1, "with no -workload: runs of each workload, on consecutive seeds")
		out     = flag.String("out", "", "write every run's full result (stamp, sizes, metrics) to this file, for -compare")
		compare = flag.Bool("compare", false, "compare two -out files: benchmark -compare A.json B.json")
	)
	flag.Parse()

	var err error
	switch {
	case *compare:
		err = compareMain(flag.Args(), os.Stdout)
	case *name != "":
		err = single(*name, *seed, *seconds, *trace, *out)
	default:
		err = all(*seed, *seconds, *trace, *runs, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// errWrong reports results that were printed but are not all correct.
var errWrong = fmt.Errorf("wrong values")

// single measures one workload in this process and prints its metrics; the
// last line of standard output is the result as one JSON object.
func single(name string, seed int64, seconds float64, trace, out string) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	cfg := config{seconds: seconds, scale: 1, minReps: 2, setups: 9, trace: trace != "0"}
	if trace != "0" && trace != "1" {
		cfg.traceOut = trace
	}
	res, err := measure(w, seed, cfg)
	if err != nil {
		return err
	}
	env := stampEnv()
	printResult(os.Stdout, env, res)
	if out != "" {
		if err := writeRunFile(out, runFile{Env: env, Runs: []*result{res}}); err != nil {
			return err
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return errWrong
	}
	return nil
}

// printResult writes the stamp and every metric by name with its unit.
func printResult(w io.Writer, env envStamp, r *result) {
	fmt.Fprintf(w, "# workload=%s seed=%d trace=%t %s %s/%s GOMAXPROCS=%d nproc=%d commit=%s\n",
		r.Workload, r.Seed, r.Trace, env.GoVersion, env.GOOS, env.GOARCH, env.GOMAXPROCS, env.NumCPU, env.Commit)
	var sizes []string
	for k := range r.Sizes {
		sizes = append(sizes, k)
	}
	sort.Strings(sizes)
	fmt.Fprintf(w, "# sizes:")
	for _, k := range sizes {
		fmt.Fprintf(w, " %s=%d", k, r.Sizes[k])
	}
	fmt.Fprintf(w, "\n# checked: attempted=%d failed=%d correct=%t\n", r.Attempted, r.Failed, r.Correct)
	for _, msg := range r.Wrong {
		fmt.Fprintf(w, "# WRONG: %s\n", msg)
	}
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%-36s %s %s\n", d.name, strconv.FormatFloat(r.Metrics[d.name].Value, 'g', -1, 64), d.unit)
	}
}

// all runs every workload, each in a process of its own so that peak_rss_mb
// is that workload's alone, and prints one combined result line.
func all(seed int64, seconds float64, trace string, runs int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := runFile{Env: stampEnv()}
	combined := map[string]metricValue{}
	attempted, failed, correct := 0, 0, true
	part, err := os.CreateTemp(".", "benchmark-run-*.json")
	if err != nil {
		return err
	}
	part.Close()
	defer os.Remove(part.Name())
	child := func(w workload, s int64, tr string) error {
		cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(s), "-seconds", fmt.Sprint(seconds), "-trace", tr, "-out", part.Name())
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := os.Truncate(part.Name(), 0); err != nil { // never read the previous child's result
			return err
		}
		runErr := cmd.Run()
		one, err := readRunFile(part.Name())
		if err != nil || len(one.Runs) != 1 {
			return fmt.Errorf("%s: no result (%v)", w.name, runErr)
		}
		res := one.Runs[0]
		file.Runs = append(file.Runs, res)
		attempted += res.Attempted
		failed += res.Failed
		correct = correct && res.Correct
		for k, v := range res.Metrics {
			combined[w.name+"/"+k] = v
		}
		return nil
	}
	for _, w := range workloadTable {
		for i := 0; i < runs; i++ {
			if err := child(w, seed+int64(i), "0"); err != nil {
				return err
			}
		}
		if trace != "0" {
			tr := trace
			if tr != "1" {
				tr = filepath.Join(filepath.Dir(trace), w.name+"."+filepath.Base(trace)) // one span file per workload
			}
			if err := child(w, seed, tr); err != nil {
				return err
			}
		}
	}
	if out != "" {
		if err := writeRunFile(out, file); err != nil {
			return err
		}
	}
	line, err := json.Marshal(map[string]any{"correct": correct, "attempted": attempted, "failed": failed, "metrics": combined})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !correct {
		return errWrong
	}
	return nil
}

func writeRunFile(path string, f runFile) error {
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readRunFile(path string) (runFile, error) {
	var f runFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}
