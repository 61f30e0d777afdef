// Command bench is the repository's end-to-end benchmark. It defines four
// workloads — simulate, store, serve and fleet — drives each layer only
// through its public functions, checks every output, and reports the
// end-to-end metrics (untraced) or the per-layer metrics (traced, from
// spans the benchmark records around its calls into each layer).
//
// One run of one workload; the last line of standard output is its JSON
// result:
//
//	go run . --workload simulate --seed 1 --seconds 20 --trace 0
//
// Repeated runs, each in its own process, written to a run set, and the
// comparison of two run sets:
//
//	go run . --workload all --seed 1 --runs 5 --trace 1 --spans spans --out runs.json
//	go run . --compare parent.json change.json
//
// See README.md for the workloads, metrics and bounds.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// env is what one workload run is given.
type env struct {
	def     definition
	seed    uint64
	seconds time.Duration
	// trace is nil in untraced runs.
	trace   *tracer
	workdir string
	// goldenApplies is set when the run's outputs must match golden.
	goldenApplies bool
}

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int
	problems          []string
	metrics, layers   map[string]float64
	outputs           map[string]string
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, layers: map[string]float64{}, outputs: map[string]string{}}
}

// fail counts one failed operation and says why.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// output records an output's hash. When golden hashes apply and one is
// known for it, a different hash means every operation produced wrong
// bytes.
func (o *outcome) output(name, sum string, checkGolden bool) {
	o.outputs[name] = sum
	if want, ok := golden[name]; checkGolden && ok && want != sum {
		o.problems = append(o.problems, fmt.Sprintf("%s: hash %s, golden %s", name, sum, want))
		o.failed = o.attempted
	}
}

var workloads = map[string]func(context.Context, *env) (*outcome, error){
	"simulate": runSimulate,
	"store":    runStore,
	"serve":    runServe,
	"fleet":    runFleet,
}

// runOne runs one workload in this process. An error means the run is
// invalid and reports no numbers.
func runOne(ctx context.Context, name string, e *env) (*Run, error) {
	w, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	out, err := w(ctx, e)
	if err != nil {
		return nil, err
	}
	for _, m := range e2eMetrics {
		if v, ok := out.metrics[m.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: no value for %s", name, m.Name)
		}
	}
	r := &Run{
		Workload: name, Seed: e.seed, Traced: e.trace != nil,
		Attempted: out.attempted, Failed: out.failed,
		Correct: out.failed == 0 && len(out.problems) == 0,
		Metrics: out.metrics, Outputs: out.outputs,
	}
	if e.trace != nil {
		// Layers the workload does not exercise report 0.
		r.Layers = map[string]float64{}
		for _, d := range layerMetrics {
			v := out.layers[d.Name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			r.Layers[d.Name] = v
		}
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", name, p)
	}
	return r, nil
}

// timeLimit returns the error that rejects a closed-loop run still short
// of its n operations, done of them made, once the operations have taken
// longer than TimeoutFactor × its seconds since start; nil until then.
func (e *env) timeLimit(start time.Time, done, n int) error {
	if limit := time.Duration(e.def.TimeoutFactor * float64(e.seconds)); done < n && time.Since(start) > limit {
		return fmt.Errorf("run rejected: %d of %d operations done after %v", done, n, limit)
	}
	return nil
}

// setupRepeated runs setup n times, tearing each state down before the
// next setup starts, and returns the last state with every setup's time in
// seconds: one setup is too short and noisy to compare.
func setupRepeated[T any](n int, setup func() (T, func(), error)) (T, []float64, func(), error) {
	var (
		state    T
		teardown = func() {}
		secs     []float64
	)
	for i := 0; i < max(n, 1); i++ {
		teardown()
		t0 := time.Now()
		s, td, err := setup()
		if err != nil {
			return state, nil, nil, fmt.Errorf("setup: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		state, teardown = s, td
	}
	return state, secs, teardown, nil
}

// meter samples the process's resident set size every 50 ms during a
// run's measured phase. The median sample is steadier than the peak,
// which rides on when the garbage collector happens to run.
type meter struct {
	stop, done chan struct{}
	samples    []float64
}

func startMeter() *meter {
	m := &meter{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			if mb, err := rssMB(); err == nil {
				m.samples = append(m.samples, mb)
			}
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// finish stops the meter and returns its RSS samples, in MB.
func (m *meter) finish() []float64 {
	close(m.stop)
	<-m.done
	return m.samples
}

// rssMB reads the resident set size from /proc/self/statm.
func rssMB() (float64, error) {
	buf, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(string(buf))
	if len(fields) < 2 {
		return 0, fmt.Errorf("statm: %q", buf)
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0, err
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}

// subSeed derives an independent seed for stream i (SplitMix64).
func subSeed(seed, i uint64) uint64 {
	z := seed ^ (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func ms(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func msSince(t time.Time) float64 { return ms(time.Since(t)) }
func mean(xs []float64) (m float64) {
	for _, x := range xs {
		m += x / float64(len(xs))
	}
	return m
}

func host() Host {
	return Host{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}
}

// resultLine is the one-line JSON result of a single run: the end-to-end
// metrics, or the per-layer metrics of a traced run.
func resultLine(r *Run) ([]byte, error) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metric{}
	if r.Traced {
		for _, d := range layerMetrics {
			metrics[d.Name] = metric{r.Layers[d.Name], d.Unit}
		}
	} else {
		for _, d := range e2eMetrics {
			metrics[d.Name] = metric{r.Metrics[d.Name], d.Unit}
		}
	}
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
}

// printRun writes every metric of a run by name with its unit.
func printRun(w io.Writer, r *Run) {
	fmt.Fprintf(w, "%s seed %d: attempted %d, failed %d, correct %v\n", r.Workload, r.Seed, r.Attempted, r.Failed, r.Correct)
	for _, d := range e2eMetrics {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", d.Name, r.Metrics[d.Name], d.Unit)
	}
	for _, d := range layerMetrics {
		if r.Layers != nil && slices.Contains(d.Workloads, r.Workload) {
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", d.Name, r.Layers[d.Name], d.Unit)
		}
	}
}

func main() {
	if req := os.Getenv(childEnv); req != "" {
		os.Exit(childMain(req))
	}
	var (
		workload = flag.String("workload", "", "simulate, store, serve, fleet, or all")
		seed     = flag.Uint64("seed", 1, "seed every input is generated from")
		seconds  = flag.Float64("seconds", 0, "measuring time of one run (0: the definition's)")
		trace    = flag.Int("trace", 0, "1 for a traced run, which reports the per-layer metrics")
		runs     = flag.Int("runs", 0, "runs per workload, each in its own process; with --trace 1 each untraced run is paired with a traced one")
		outPath  = flag.String("out", "", "write the run set to this file")
		spans    = flag.String("spans", "", "with --trace 1, write spans to DIR/<workload>.spans.json")
		workdir  = flag.String("workdir", ".bench_build/work", "directory for the files runs write")
		compare  = flag.Bool("compare", false, "compare two run sets: --compare A.json B.json")
		record   = flag.String("record", "", "write this run's record to FILE (used by --runs)")
	)
	flag.Parse()
	if *compare {
		os.Exit(runCompare(flag.Args()))
	}
	def := fullDefinition
	runtime.GOMAXPROCS(def.GOMAXPROCS)
	if *seconds <= 0 {
		*seconds = float64(def.Seconds)
	}
	if *trace != 0 && *trace != 1 {
		fatalf("--trace takes 0 or 1")
	}
	if *workload == "all" || *runs > 0 || *outPath != "" {
		names := []string{*workload}
		if *workload == "all" {
			names = workloadNames
		}
		args := []string{"--seed", strconv.FormatUint(*seed, 10), "--seconds", strconv.FormatFloat(*seconds, 'g', -1, 64),
			"--workdir", *workdir}
		if *spans != "" {
			args = append(args, "--spans", *spans)
		}
		os.Exit(runSet(names, max(*runs, 1), *trace == 1, args, *workdir, *outPath, def))
	}
	if _, ok := workloads[*workload]; !ok {
		fatalf("--workload must be simulate, store, serve, fleet or all")
	}

	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fatalf("%v", err)
	}
	dir, err := os.MkdirTemp(*workdir, *workload+"-*")
	if err != nil {
		fatalf("%v", err)
	}
	e := &env{
		def: def, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), workdir: dir,
		goldenApplies: *seed == 1 && *seconds == float64(def.Seconds),
	}
	if *trace == 1 {
		e.trace = newTracer()
	}
	r, err := runOne(context.Background(), *workload, e)
	os.RemoveAll(dir)
	if err != nil {
		fatalf("%s: %v", *workload, err)
	}
	printRun(os.Stderr, r)
	if *spans != "" && e.trace != nil {
		if err := writeSpans(*spans, *workload, e.trace.snapshot(), r.Layers); err != nil {
			fatalf("%v", err)
		}
	}
	if *record != "" {
		if err := writeJSON(*record, r); err != nil {
			fatalf("%v", err)
		}
	}
	line, err := resultLine(r)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

// runSet runs every workload n times, each run in its own process, and
// writes and prints the run set. It returns the exit code.
func runSet(names []string, n int, traced bool, args []string, workdir, outPath string, def definition) int {
	exe, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	modes := []string{"0"}
	if traced {
		modes = append(modes, "1")
	}
	set := &RunSet{Schema: runSetSchema, Host: host(), Definition: def.hash()}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		fatalf("%v", err)
	}
	rec := filepath.Join(workdir, fmt.Sprintf("record-%d.json", os.Getpid()))
	defer os.Remove(rec)
	for _, name := range names {
		for i := 0; i < n; i++ {
			for _, mode := range modes {
				cmd := exec.Command(exe, append([]string{"--workload", name, "--trace", mode, "--record", rec}, args...)...)
				cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
				if err := cmd.Run(); err != nil {
					fatalf("%s run %d (trace %s): %v", name, i+1, mode, err)
				}
				var r Run
				if err := readJSON(rec, &r); err != nil {
					fatalf("%v", err)
				}
				set.Runs = append(set.Runs, r)
			}
		}
	}
	set.summarizeRuns()
	printSet(os.Stdout, set)
	if outPath != "" {
		if err := writeJSON(outPath, set); err != nil {
			fatalf("%v", err)
		}
	}
	for _, r := range set.Runs {
		if !r.Correct {
			return 1
		}
	}
	return 0
}

// printSet writes each workload's metric summaries, per-layer medians and
// tracing overhead.
func printSet(w io.Writer, set *RunSet) {
	for _, name := range set.workloads() {
		fmt.Fprintf(w, "%s\n  %-36s %12s %12s %12s %3s %8s\n", name, "metric", "median", "q1", "q3", "n", "spread")
		for _, m := range e2eMetrics {
			if s, ok := set.Baseline[name][m.Name]; ok {
				fmt.Fprintf(w, "  %-36s %12.4f %12.4f %12.4f %3d %7.2f%%  %s\n", m.Name, s.Median, s.Q1, s.Q3, s.N, 100*s.Spread, m.Unit)
			}
		}
		layers := set.LayerBaseline[name]
		keys := make([]string, 0, len(layers))
		for k := range layers {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if layers[k].Median != 0 {
				fmt.Fprintf(w, "  %-36s %12.4f %12.4f %12.4f %3d\n", k, layers[k].Median, layers[k].Q1, layers[k].Q3, layers[k].N)
			}
		}
		for _, m := range e2eMetrics {
			if v, ok := set.TraceOverhead[name][m.Name]; ok {
				fmt.Fprintf(w, "  tracing overhead on %-20s %+7.2f%%\n", m.Name, 100*v)
			}
		}
	}
}

// runCompare implements --compare A.json B.json.
func runCompare(args []string) int {
	if len(args) != 2 {
		fatalf("--compare takes two run set files")
	}
	var a, b RunSet
	if err := readJSON(args[0], &a); err != nil {
		fatalf("%v", err)
	}
	if err := readJSON(args[1], &b); err != nil {
		fatalf("%v", err)
	}
	rows, problems, err := compareSets(&a, &b, e2eMetrics)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if !renderCompare(os.Stdout, rows, problems) {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(buf, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}
