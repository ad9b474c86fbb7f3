// Command bench is the repository's benchmark. It runs one workload
// against a live system built from the daemon's own constructors, with
// an in-process origin and reader on loopback, checks every read
// against an oracle, and prints the end-to-end metrics (or, with
// -trace 1, the per-layer metrics) as JSON. See README.md.
//
// Usage, from this directory:
//
//	go run . -workload read-zipf -seed 1 -seconds 16 -trace 0
//
// The last line of standard output is the summary object
// {"correct", "attempted", "failed", "metrics"}; the lines before it
// are the full report. A run with an oracle violation exits 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"freshen/internal/stats"
)

func main() {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: read-zipf | refresh-rtt | catalog-50k | fleet-router")
	seed := fs.Int64("seed", 1, "seed for the inputs: change rates, update times, reads")
	seconds := fs.Int("seconds", 16, "measured seconds: five eighths open loop, three eighths saturation")
	trace := fs.Int("trace", 0, "1 wraps the layers, prints per-layer metrics and writes out/<workload>-<seed>.trace.json")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	w, err := findWorkload(*name)
	if err == nil && fs.NArg() > 0 {
		err = fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if err == nil && (*seconds < 2 || *trace < 0 || *trace > 1) {
		err = fmt.Errorf("need -seconds >= 2 and -trace 0 or 1, got %d and %d", *seconds, *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	r, err := newRunner(w, *seed, phasesFor(w, *seconds), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	rep, err := r.measure(context.Background())
	if err == nil && r.tr != nil {
		rep.TraceFile = filepath.Join("out", fmt.Sprintf("%s-%d.trace.json", w.name, *seed))
		err = r.tr.writeChrome(rep.TraceFile)
	}
	// Teardown is an abrupt exit: a graceful stop waits on the final
	// snapshot, which queues behind whatever Step is in flight. Only
	// the state directory is removed first.
	r.removeState()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !rep.Correct {
		fmt.Fprintln(os.Stderr, "bench: oracle violation:", rep.FirstViolation)
		os.Exit(1)
	}
	os.Exit(0)
}

// report is the full result of one run.
type report struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Traced     bool   `json:"traced"`
	N          int    `json:"n"`
	Shards     int    `json:"shards"`
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Fsync      string `json:"fsync"`
	Phases     struct {
		Setups   int     `json:"setups"`
		WarmupS  float64 `json:"warmup_s"`
		OpenS    float64 `json:"open_s"`
		SatS     float64 `json:"sat_s"`
		ReadRate float64 `json:"open_reads_per_s"`
	} `json:"phases"`

	Correct        bool   `json:"correct"`
	Violations     int64  `json:"oracle_violations"`
	FirstViolation string `json:"first_violation,omitempty"`
	Attempted      int    `json:"attempted"`
	Failed         int    `json:"failed"`

	EndToEnd []metric `json:"end_to_end"`
	Diag     []metric `json:"diag"`
	Layers   []metric `json:"layers,omitempty"`

	TraceFile    string `json:"trace_file,omitempty"`
	TraceDropped int64  `json:"trace_spans_dropped,omitempty"`
}

type summaryValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last output line: the end-to-end metrics of a plain
// run, or the per-layer metrics every workload reports of a traced one.
func (rep *report) summary() map[string]summaryValue {
	out := make(map[string]summaryValue)
	list := rep.EndToEnd
	if rep.Traced {
		list = rep.Layers
	}
	for _, m := range list {
		if m.scope == "" {
			out[m.Name] = summaryValue{m.Value, m.Unit}
		}
	}
	return out
}

func (rep *report) print(f io.Writer) error {
	full, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	last, err := json.Marshal(struct {
		Correct   bool                    `json:"correct"`
		Attempted int                     `json:"attempted"`
		Failed    int                     `json:"failed"`
		Metrics   map[string]summaryValue `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, rep.summary()})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n%s\n", full, last)
	return err
}

// runner holds one run's inputs and the system it measures.
type runner struct {
	w        workload
	seed     int64
	ph       phases
	tr       *tracer
	zipf     *stats.Zipf
	org      *origin
	sys      *system
	reader   *reader
	warm     schedule
	open     schedule
	satRng   *stats.RNG
	probeRng *stats.RNG
}

// newRunner draws every input from the seed before anything is timed:
// the origin's change rates and update times, and the read sequences.
func newRunner(w workload, seed int64, ph phases, traced bool) (*runner, error) {
	rng := stats.NewRNG(seed)
	zipf, err := stats.NewZipf(w.n, zipfTheta)
	if err != nil {
		return nil, err
	}
	r := &runner{w: w, seed: seed, ph: ph, zipf: zipf}
	r.org, err = newOrigin(w, rng.Split())
	if err != nil {
		return nil, err
	}
	r.warm = newSchedule(rng.Split(), zipf, w.readRate, ph.warmup)
	r.open = newSchedule(rng.Split(), zipf, w.readRate, ph.open)
	r.satRng = rng.Split()
	r.probeRng = rng.Split()
	if traced {
		r.tr = newTracer(spanCapacity(w, ph), len(r.open.due))
	}
	return r, nil
}

// spanCapacity bounds the spans recorded from the warm-up's start to
// the open window's end: two per read, a step every period/100, and
// up to five source or persist calls per budgeted refresh.
func spanCapacity(w workload, ph phases) int {
	secs := (ph.warmup + ph.open + ph.grace).Seconds()
	perSec := 2*w.readRate + 100*float64(max(w.shards, 1)) + 5*w.budget/period.Seconds()
	return int(perSec*secs*1.2) + 4096
}

// measure runs the set-ups, the warm-up and both windows, and reports.
func (r *runner) measure(ctx context.Context) (*report, error) {
	w, ph := r.w, r.ph
	rep := &report{
		Workload: w.name, Seed: r.seed, Traced: r.tr != nil, N: w.n, Shards: w.shards,
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Fsync: "one fsynced journal append per refresh outcome (persist.Store.Append), as the daemon runs",
	}
	rep.Phases.Setups = ph.setups
	rep.Phases.WarmupS = ph.warmup.Seconds()
	rep.Phases.OpenS = ph.open.Seconds()
	rep.Phases.SatS = ph.sat.Seconds()
	rep.Phases.ReadRate = w.readRate

	// Set-up, repeated; the origin clock stays frozen throughout, and
	// the last system built is the one measured.
	setups := make([]float64, ph.setups)
	for i := range setups {
		start := time.Now()
		s, err := build(ctx, w, r.org, r.tr)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setups[i] = time.Since(start).Seconds()
		if i < ph.setups-1 {
			s.close()
		} else {
			r.sys = s
		}
	}
	r.org.start()
	var err error
	if r.reader, err = newReader(r.sys.front, w.n, r.org.src, r.tr); err != nil {
		return nil, err
	}
	var tracedFrom int64
	if r.tr != nil {
		tracedFrom = r.tr.now()
		r.tr.on.Store(true)
	}
	r.sys.run(r.tr)
	if err := r.sys.awaitReady(ctx); err != nil {
		return nil, err
	}

	if _, err := r.reader.openLoop(r.warm, time.Now(), ph.warmup, ph.grace, false); err != nil {
		return nil, err
	}

	// The open-loop window. Counters are read when the window ends, not
	// when its last straggler finishes.
	st0, rt0 := r.sys.sample(), sampleRuntime()
	reallocs0 := r.reallocations()
	openStart := time.Now()
	type openOut struct {
		res *openResult
		err error
	}
	done := make(chan openOut, 1)
	go func() {
		res, err := r.reader.openLoop(r.open, openStart, ph.open, ph.grace, r.tr != nil)
		done <- openOut{res, err}
	}()
	type probeOut struct {
		h   *hist
		err error
	}
	probed := make(chan probeOut, 1)
	go func() {
		h, err := r.reader.probe(r.probeRng, openStart, ph.open, ph.grace)
		probed <- probeOut{h, err}
	}()
	time.Sleep(time.Until(openStart.Add(ph.open)))
	st1, rt1 := r.sys.sample(), sampleRuntime()
	reallocs1 := r.reallocations()
	var stepInflight int64
	if r.tr != nil {
		if s := r.tr.stepStart.Load(); s > 0 {
			stepInflight = r.tr.at(st1.wall) - max(s, r.tr.at(openStart))
		}
	}
	out := <-done
	if out.err != nil {
		return nil, out.err
	}
	open := out.res
	po := <-probed
	if po.err != nil {
		return nil, po.err
	}
	if r.tr != nil {
		r.tr.on.Store(false)
		rep.TraceDropped = r.tr.dropped.Load()
	}

	sat, err := r.reader.closedLoop(r.satRng, r.zipf, ph.sat, ph.grace)
	if err != nil {
		return nil, err
	}
	satRPS, ceilingRPS := sat.rates()

	openPeriods := st1.wall.Sub(st0.wall).Seconds() / period.Seconds()
	d := st1.sum.minus(st0.sum)
	rep.Violations = r.reader.violations.Load()
	rep.FirstViolation = r.reader.first
	rep.Correct = rep.Violations == 0
	rep.Attempted = open.scheduled + sat.ok + sat.failed
	rep.Failed = open.failed() + sat.failed
	p50, probeP50 := open.lat.quantile(0.5), po.h.quantile(0.5)
	rep.EndToEnd = []metric{
		{Name: "setup_s", Value: median(setups), Unit: "s", Samples: len(setups)},
		metric{Name: "read_p50_rel", Unit: "ratio", Samples: int(open.lat.n),
			Note: "median read latency over the bare probe's at the same moments"}.value(p50 / probeP50),
		ratioMetric("read_ok_frac", float64(open.ok), float64(open.scheduled), open.scheduled),
		metric{Name: "read_sat_rel", Unit: "ratio", Samples: sat.ok,
			Note: "saturated reads/s over the bare server's in interleaved bins"}.value(satRPS / ceilingRPS),
		ratioMetric("served_pf", float64(open.fresh), float64(open.ok), open.ok),
		ratioMetric("refresh_done_frac", float64(d.fetches), w.budget*openPeriods, d.fetches),
	}
	rep.Diag = []metric{
		quantileMetric("diag.read_p50_ms", "ms", &open.lat, 0.5, 1e6),
		quantileMetric("diag.probe_p50_ms", "ms", po.h, 0.5, 1e6),
		{Name: "diag.read_sat_rps", Value: satRPS, Unit: "req/s", Samples: sat.ok,
			Note: fmt.Sprintf("over the system's %d bins of %v", (len(sat.bins)+1)/2, satBin)},
		{Name: "diag.ceiling_rps", Value: ceilingRPS, Unit: "req/s", Samples: len(sat.bins) / 2,
			Note: "the same for the bare server in the interleaved bins"},
		quantileMetric("diag.read_p90_ms", "ms", &open.lat, 0.9, 1e6),
		quantileMetric("diag.read_p99_ms", "ms", &open.lat, 0.99, 1e6),
		quantileMetric("diag.read_p999_ms", "ms", &open.lat, 0.999, 1e6),
		quantileMetric("gen.late_p50_ms", "ms", &open.late, 0.5, 1e6),
		quantileMetric("gen.late_p99_ms", "ms", &open.late, 0.99, 1e6),
		countMetric("gen.conns", int(r.reader.dials.Load())),
		{Name: "diag.setup_s", Value: setups[len(setups)-1], Unit: "s", Samples: 1, Note: "the measured (last) set-up"},
	}
	if r.tr != nil {
		rep.Layers, err = r.layerMetrics(layerWindow{
			from: r.tr.at(openStart), to: r.tr.at(st1.wall), tracedFrom: tracedFrom,
			st0: st0, st1: st1, rt0: rt0, rt1: rt1,
			open: open, sch: r.open,
			reallocs: reallocs1 - reallocs0, stepInflight: stepInflight,
		})
		if err != nil {
			return nil, err
		}
	}
	r.sys.quiesce()
	rep.EndToEnd = append(rep.EndToEnd, metric{Name: "heap_live_mb", Value: float64(heapLiveAfterGC()) / 1e6, Unit: "MB",
		Samples: heapSamples, Note: "smallest live heap over forced collections after the refresh loops stop"})
	return rep, nil
}

// reallocations is the fleet's budget-leveling count (0 for a single
// mirror).
func (r *runner) reallocations() int {
	if r.sys.fl == nil {
		return 0
	}
	return r.sys.fl.Status().Reallocations
}

// removeState deletes the measured system's state directory.
func (r *runner) removeState() {
	if r.sys != nil {
		os.RemoveAll(r.sys.dir)
	}
}

// shutdown stops everything the run started; the command exits
// instead, tests call this.
func (r *runner) shutdown() {
	if r.sys != nil {
		r.sys.close()
	}
	if r.reader != nil {
		r.reader.close()
	}
	r.org.close()
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
