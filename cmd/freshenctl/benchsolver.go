package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"freshen/internal/freshness"
	"freshen/internal/solver"
	"freshen/internal/workload"
)

// benchCase is one measured configuration in BENCH_solver.json. Each
// case carries what it takes to reproduce it: GOMAXPROCS, the CPU, N
// and the command line.
type benchCase struct {
	Policy         string  `json:"policy"`
	Workload       string  `json:"workload"`
	N              int     `json:"n"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	CPU            string  `json:"cpu"`
	Command        string  `json:"command"`
	EngineNsOp     int64   `json:"engine_ns_op"`
	ReferenceNsOp  int64   `json:"reference_ns_op,omitempty"`
	Speedup        float64 `json:"speedup,omitempty"`
	EngineAllocsOp uint64  `json:"engine_allocs_op"`
	EngineIters    int     `json:"engine_iterations"`
}

// benchReport is the BENCH_solver.json document.
type benchReport struct {
	GoVersion string      `json:"go_version"`
	NumCPU    int         `json:"num_cpu"`
	Cases     []benchCase `json:"cases"`
}

// The two workloads bench-solver times at every N.
const (
	// workloadTable3 is the paper's Table 3 shape, re-solved on one
	// warm engine whose element hints carry across reps.
	workloadTable3 = "table3"
	// workloadTiedCold is a mirror's boot catalog under the uniform
	// prior (unit sizes, λ = 1, p = 1/N, B = N/100), solved on a fresh
	// engine as every core.MakePlan does: one tied funding cutoff holds
	// the whole catalog. The engine runs alone: the reference's O(n²)
	// residual top-up took 12 s on the N=10⁴ tied catalog (one core of
	// a 2-vCPU Xeon).
	workloadTiedCold = "tied-cold"
)

// cmdBenchSolver times the solve engine against the frozen pre-engine
// reference on Table-3-style workloads (Zipf access, gamma change
// rates, Pareto sizes) and on the cold uniform-prior catalog, at
// GOMAXPROCS 1 and at every CPU, and writes the measurements to a JSON
// file.
func cmdBenchSolver(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("bench-solver", flag.ContinueOnError)
	out := fs.String("out", "BENCH_solver.json", "output JSON path")
	quick := fs.Bool("quick", false, "skip the N=1e6 cases")
	seed := fs.Int64("seed", 1, "workload seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Fail on an unwritable output path before spending minutes
	// benchmarking, not after.
	probe, err := os.OpenFile(*out, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	probe.Close()

	sizes := []int{10_000, 100_000, 1_000_000}
	if *quick {
		sizes = sizes[:2]
	}
	policies := []struct {
		name string
		pol  freshness.Policy
	}{
		{"fixed-order", freshness.FixedOrder{}},
		{"poisson-order", freshness.PoissonOrder{}},
	}
	procs := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		procs = append(procs, n)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	env := benchCase{
		CPU:     cpuModel(),
		Command: strings.Join(append([]string{"freshenctl", "bench-solver"}, args...), " "),
	}

	report := benchReport{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU()}
	fmt.Fprintf(w, "%s, %s\n", env.CPU, report.GoVersion)
	fmt.Fprintf(w, "%-10s %-14s %8s %5s %14s %14s %9s %10s %7s\n",
		"workload", "policy", "n", "procs", "engine", "reference", "speedup", "allocs/op", "sweeps")
	record := func(c benchCase) {
		report.Cases = append(report.Cases, c)
		ref, speedup := "-", "-"
		if c.ReferenceNsOp > 0 {
			ref, speedup = time.Duration(c.ReferenceNsOp).String(), fmt.Sprintf("%.2fx", c.Speedup)
		}
		fmt.Fprintf(w, "%-10s %-14s %8d %5d %14s %14s %9s %10d %7d\n",
			c.Workload, c.Policy, c.N, c.GOMAXPROCS, time.Duration(c.EngineNsOp),
			ref, speedup, c.EngineAllocsOp, c.EngineIters)
	}
	for _, gmp := range procs {
		runtime.GOMAXPROCS(gmp)
		env.GOMAXPROCS = gmp
		for _, n := range sizes {
			elems, bandwidth, err := benchWorkload(n, *seed)
			if err != nil {
				return err
			}
			for _, pc := range policies {
				p := solver.Problem{Elements: elems, Bandwidth: bandwidth, Policy: pc.pol}
				c, err := runBenchCase(p, false, true, env)
				if err != nil {
					return err
				}
				c.Policy, c.Workload = pc.name, workloadTable3
				record(c)
			}
			tied, bandwidth := tiedWorkload(n)
			c, err := runBenchCase(solver.Problem{Elements: tied, Bandwidth: bandwidth}, true, false, env)
			if err != nil {
				return err
			}
			c.Policy, c.Workload = "fixed-order", workloadTiedCold
			record(c)
		}
	}

	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", *out)
	return nil
}

// cpuModel names the processor from /proc/cpuinfo, falling back to
// the architecture where that file is absent.
func cpuModel() string {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}

// benchWorkload scales the paper's Table 3 shape (Zipf θ=1, gamma
// change rates, Pareto-1.1 sizes, budget = half the updates) to n
// elements.
func benchWorkload(n int, seed int64) ([]freshness.Element, float64, error) {
	spec := workload.TableThree()
	spec.NumObjects = n
	spec.UpdatesPerPeriod = 2 * float64(n)
	spec.SyncsPerPeriod = 0.5 * float64(n)
	spec.Sizes = workload.SizePareto
	spec.ParetoShape = 1.1
	spec.Seed = seed
	elems, err := workload.Generate(spec)
	if err != nil {
		return nil, 0, err
	}
	return elems, spec.SyncsPerPeriod, nil
}

// tiedWorkload is the cold uniform-prior catalog a mirror plans at
// boot: n unit-size elements with λ = 1 and p = 1/n, and a budget of
// one refresh per period for every 100 objects.
func tiedWorkload(n int) ([]freshness.Element, float64) {
	elems := make([]freshness.Element, n)
	for i := range elems {
		elems[i] = freshness.Element{ID: i, Lambda: 1, AccessProb: 1 / float64(n), Size: 1}
	}
	return elems, float64(n) / 100
}

// runBenchCase measures one configuration: min-of-reps wall clock
// for the engine and, with reference set, the reference, and the
// engine's allocation count from the runtime's malloc counter. A warm
// case re-solves on one engine, so element hints carry across reps; a
// cold case takes a fresh engine per solve, as core.MakePlan does. The
// case's policy and workload are the caller's to fill in.
func runBenchCase(p solver.Problem, cold, reference bool, c benchCase) (benchCase, error) {
	c.N = len(p.Elements)
	reps := 5
	if c.N >= 1_000_000 {
		reps = 2
	}
	eng := solver.NewEngine()
	// Warm-up solve: grows the engine's buffers and faults in the data.
	sol, err := eng.WaterFill(p)
	if err != nil {
		return benchCase{}, err
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	engNs := int64(1<<63 - 1)
	for r := 0; r < reps; r++ {
		start := time.Now()
		if cold {
			eng = solver.NewEngine()
		}
		if _, err := eng.WaterFill(p); err != nil {
			return benchCase{}, err
		}
		if d := time.Since(start).Nanoseconds(); d < engNs {
			engNs = d
		}
	}
	runtime.ReadMemStats(&ms1)
	c.EngineNsOp = engNs
	c.EngineAllocsOp = (ms1.Mallocs - ms0.Mallocs) / uint64(reps)
	c.EngineIters = sol.Iterations
	if !reference {
		return c, nil
	}

	refNs := int64(1<<63 - 1)
	for r := 0; r < reps; r++ {
		start := time.Now()
		if _, err := solver.ReferenceWaterFill(p); err != nil {
			return benchCase{}, err
		}
		if d := time.Since(start).Nanoseconds(); d < refNs {
			refNs = d
		}
	}
	c.ReferenceNsOp = refNs
	c.Speedup = float64(refNs) / float64(engNs)
	return c, nil
}
