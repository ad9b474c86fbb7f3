package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

func TestBenchmarkFile(t *testing.T) {
	b := loadBenchmarkFile(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u, better string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("metric name %q is malformed or repeated", n)
		}
		seen[n] = true
		if !unit.MatchString(u) {
			t.Errorf("%s: malformed unit %q", n, u)
		}
		if better != "" && better != "lower" && better != "higher" {
			t.Errorf("%s: better is %q", n, better)
		}
	}
	if len(b.EndToEnd) < 1 || len(b.EndToEnd) > 16 || len(b.PerLayer) < 1 || len(b.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics; want 1-16 and 1-128", len(b.EndToEnd), len(b.PerLayer))
	}
	setup := false
	for _, m := range b.EndToEnd {
		check(m.Name, m.Unit, m.Better)
		if m.Better == "" || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: better %q, bound %v", m.Name, m.Better, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in s, lower better")
	}
	for _, m := range b.PerLayer {
		check(m.Name, m.Unit, m.Better)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		check(w.Name, "count", "")
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why %q), the benchmark has %q", i, w.Name, w.Why, workloads[i].name)
		}
	}
	if b.RunSeconds < 2 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
}

// toy scales a workload down for the self-test: 200 objects, and
// cadences short enough that replans and snapshots happen in a
// one-second window.
func toy(w workload) workload {
	w.n = 200
	w.replanEvery, w.snapshotEvery = 0.5, 0.5
	return w
}

// TestToyRuns runs every workload at toy scale, plain and traced, and
// checks the summary carries every metric BENCHMARK.json names, in its
// unit, with a finite value, and that the oracle saw no violation.
func TestToyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs live systems for about a minute")
	}
	b := loadBenchmarkFile(t)
	t.Setenv("TMPDIR", t.TempDir())
	ph := phases{setups: 3, warmup: 500 * time.Millisecond, open: time.Second, sat: time.Second, grace: time.Second}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			w, traced := toy(w), traced
			t.Run(w.name+map[bool]string{false: "/plain", true: "/traced"}[traced], func(t *testing.T) {
				r, err := newRunner(w, 1, ph, traced)
				if err != nil {
					t.Fatal(err)
				}
				defer r.shutdown()
				rep, err := r.measure(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Attempted == 0 {
					t.Fatalf("correct %v, attempted %d, first violation %q", rep.Correct, rep.Attempted, rep.FirstViolation)
				}
				want := map[string]string{}
				if traced {
					for _, m := range b.PerLayer {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range b.EndToEnd {
						want[m.Name] = m.Unit
					}
				}
				got := rep.summary()
				if len(got) != len(want) {
					t.Errorf("summary has %d metrics, BENCHMARK.json names %d", len(got), len(want))
				}
				for n, u := range want {
					v, ok := got[n]
					if !ok || v.Unit != u || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("%s: got %+v (present %v), want unit %s and a finite value", n, v, ok, u)
					}
				}
				var out bytes.Buffer
				if err := rep.print(&out); err != nil {
					t.Fatal(err)
				}
				if !traced {
					return
				}
				path := filepath.Join(t.TempDir(), "out", "toy.trace.json")
				if err := r.tr.writeChrome(path); err != nil {
					t.Fatal(err)
				}
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				var doc struct {
					TraceEvents []map[string]any `json:"traceEvents"`
				}
				if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) == 0 {
					t.Fatalf("trace file: %d events, %v", len(doc.TraceEvents), err)
				}
			})
		}
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	for i := 1; i <= 100_000; i++ {
		h.record(time.Duration(i) * time.Microsecond)
	}
	for _, q := range []float64{0.5, 0.99, 0.999} {
		want := q * 100_000 * 1e3
		if got := h.quantile(q); math.Abs(got-want)/want > 0.02 {
			t.Errorf("q%v = %v ns, want %v within 2%%", q, got, want)
		}
	}
	if got := h.beyond(0.99); got != 1000 {
		t.Errorf("beyond(0.99) = %d, want 1000", got)
	}
	var empty hist
	if !math.IsNaN(empty.quantile(0.5)) {
		t.Error("an empty histogram has no median")
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer(8, 0)
	tr.on.Store(true)
	tr.record(spanStep, 0, 0, 0, 0, 100)
	tr.record(spanSource, 0, 0, 0, 10, 30)
	tr.record(spanAppend, 0, 0, 0, 20, 50)
	tr.record(spanSource, 0, 0, 0, 90, 120)  // runs past the step's end
	tr.record(spanSource, 0, 0, 0, 150, 160) // outside any step
	steps := tr.finished(spanStep, 0, 1000)
	children := tr.children(0, 1000)
	if p := tr.parents(steps, children); p[3] != -1 || p[0] != steps[0] || p[2] != steps[0] {
		t.Errorf("parents = %v", p)
	}
	if self, total := tr.selfTime(steps, children); self != 50 || total != 100 {
		t.Errorf("self %d of %d, want 50 of 100", self, total)
	}
}
