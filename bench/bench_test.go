package main

import (
	"context"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// workload starts its load generator process.
func TestMain(m *testing.M) {
	if req := os.Getenv(childEnv); req != "" {
		os.Exit(childMain(req))
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the part of ../BENCHMARK.json the benchmark must agree
// with.
type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	var b benchmarkJSON
	if err := readJSON("../BENCHMARK.json", &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// TestDeclarationsMatchBenchmarkJSON checks that BENCHMARK.json declares
// exactly the workloads and metrics the benchmark defines, and runs it for
// the definition's own length, which the golden hashes and op counts are
// for.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if b.RunSeconds != fullDefinition.Seconds {
		t.Errorf("BENCHMARK.json run_seconds %d, definition %d", b.RunSeconds, fullDefinition.Seconds)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark defines %v", names, workloadNames)
	}
	want := make([]metricDef, len(e2eMetrics))
	for i, m := range e2eMetrics {
		want[i] = m
		want[i].Floor = 0 // not part of BENCHMARK.json
	}
	if !slices.Equal(b.EndToEnd, want) {
		t.Errorf("BENCHMARK.json end_to_end %+v, benchmark defines %+v", b.EndToEnd, want)
	}
	var layers []metricDef
	for _, l := range layerMetrics {
		layers = append(layers, l.metricDef)
	}
	if !slices.Equal(b.PerLayer, layers) {
		t.Errorf("BENCHMARK.json per_layer %+v, benchmark defines %+v", b.PerLayer, layers)
	}
	for _, m := range append(want, layers...) {
		if !metricName.MatchString(m.Name) {
			t.Errorf("metric name %q", m.Name)
		}
	}
}

// TestSmoke runs every workload at smoke scale, untraced and traced, and
// checks that each run emits exactly the declared metrics with no failed
// operation.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := readBenchmarkJSON(t)
	declared := map[bool][]metricDef{false: b.EndToEnd, true: b.PerLayer}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			e := &env{def: smokeDefinition, seed: 1, seconds: 500 * time.Millisecond, workdir: t.TempDir()}
			if traced {
				e.trace = newTracer()
			}
			r, err := runOne(context.Background(), name, e)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", name, traced, err)
			}
			if r.Failed != 0 || !r.Correct || r.Attempted == 0 {
				t.Errorf("%s (traced %v): attempted %d, failed %d, correct %v", name, traced, r.Attempted, r.Failed, r.Correct)
			}
			line, err := resultLine(r)
			if err != nil {
				t.Fatal(err)
			}
			var res struct {
				Metrics map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal(line, &res); err != nil {
				t.Fatal(err)
			}
			if len(res.Metrics) != len(declared[traced]) {
				t.Errorf("%s (traced %v): %d metrics, %d declared", name, traced, len(res.Metrics), len(declared[traced]))
			}
			for _, d := range declared[traced] {
				got, ok := res.Metrics[d.Name]
				if !ok || got.Unit != d.Unit {
					t.Errorf("%s (traced %v): metric %s = %+v, declared unit %s", name, traced, d.Name, got, d.Unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.Name, got.Value)
				}
			}
			if traced {
				for _, l := range layerMetrics {
					if !slices.Contains(l.Workloads, name) && r.Layers[l.Name] != 0 {
						t.Errorf("%s: %s = %v from a layer it does not exercise", name, l.Name, r.Layers[l.Name])
					}
				}
			}
		}
	}
}

// BenchmarkSpan measures what tracing adds per call into a layer: one
// start and one end.
func BenchmarkSpan(b *testing.B) {
	tr := newTracer()
	for i := 0; i < b.N; i++ {
		if i%4096 == 0 {
			tr.spans = tr.spans[:0]
		}
		tr.end(tr.start("span", i, 0), 1)
	}
}
