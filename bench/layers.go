package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"freshen/internal/core"
	"freshen/internal/fleet"
	"freshen/internal/stats"
)

// metric is one reported number. samples is the count it was computed
// from; beyond, for a tail percentile, how many samples lie above it.
// scope is "" for a metric every workload reports, or the topology
// ("single", "fleet") a layer-specific metric exists on.
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	Beyond  *uint64 `json:"beyond,omitempty"`
	Note    string  `json:"note,omitempty"`
	scope   string
}

// tailSupport is the fewest samples a reported percentile needs above
// it before it is trusted.
const tailSupport = 10

// value sanitizes a measurement: NaN (no samples) reports as 0 with a
// note, since JSON has no NaN.
func (m metric) value(v float64) metric {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		m.Note = "no samples"
		v = 0
	}
	m.Value = v
	return m
}

// quantileMetric reports h's q-quantile scaled by div (ns per unit),
// with its sample count and, for a tail quantile, the support above it.
func quantileMetric(name, unit string, h *hist, q, div float64) metric {
	m := metric{Name: name, Unit: unit, Samples: int(h.n)}.value(h.quantile(q) / div)
	if q > 0.5 {
		b := h.beyond(q)
		m.Beyond = &b
		if b < tailSupport && m.Note == "" {
			m.Note = "fewer than 10 samples beyond this percentile"
		}
	}
	return m
}

func countMetric(name string, n int) metric {
	return metric{Name: name, Value: float64(n), Unit: "count", Samples: n}
}

func ratioMetric(name string, num, den float64, samples int) metric {
	return metric{Name: name, Unit: "ratio", Samples: samples}.value(num / den)
}

// rtSample is a reading of process-wide runtime counters.
type rtSample struct {
	wall                  time.Time
	cpu                   time.Duration // user + system, from getrusage
	allocBytes, allocObjs uint64
	gcCycles              uint64
	gcCPU, totalCPU       float64
	heapLive              uint64
	pauses                *metrics.Float64Histogram
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/live:bytes",
	"/sched/pauses/total/gc:seconds",
}

func sampleRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return rtSample{
		wall:       time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: s[0].Value.Uint64(),
		allocObjs:  s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		gcCPU:      s[3].Value.Float64(),
		totalCPU:   s[4].Value.Float64(),
		heapLive:   s[5].Value.Uint64(),
		pauses:     s[6].Value.Float64Histogram(),
	}
}

// heapSamples is how many forced collections heapLiveAfterGC takes
// the smallest live heap of.
const heapSamples = 3

// heapLiveAfterGC forces collections 100ms apart and returns the
// smallest live heap they leave.
func heapLiveAfterGC() uint64 {
	least := uint64(math.MaxUint64)
	for i := range heapSamples {
		if i > 0 {
			time.Sleep(100 * time.Millisecond)
		}
		runtime.GC()
		least = min(least, sampleRuntime().heapLive)
	}
	return least
}

// pauseQuantile is the q-quantile of the GC pauses between two
// samples, interpolated inside the runtime's histogram bucket.
func pauseQuantile(a, b *metrics.Float64Histogram, q float64) (float64, int) {
	var n uint64
	counts := make([]uint64, len(b.Counts))
	for i := range counts {
		counts[i] = b.Counts[i] - a.Counts[i]
		n += counts[i]
	}
	if n == 0 {
		return math.NaN(), 0
	}
	rank := q * float64(n-1)
	var cum uint64
	for i, c := range counts {
		if c == 0 || float64(cum+c) <= rank {
			cum += c
			continue
		}
		lo, hi := b.Buckets[i], b.Buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = 0
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		return lo + (hi-lo)*(rank-float64(cum)+0.5)/float64(c), int(n)
	}
	return math.NaN(), int(n)
}

// runtimeMetrics are the process-wide per-layer numbers over [a, b].
func runtimeMetrics(a, b rtSample) []metric {
	secs := b.wall.Sub(a.wall).Seconds()
	pause, pauses := pauseQuantile(a.pauses, b.pauses, 0.99)
	return []metric{
		metric{Name: "runtime.gc.alloc_mb_per_s", Unit: "MB/s", Samples: int(b.allocObjs - a.allocObjs)}.value(float64(b.allocBytes-a.allocBytes) / 1e6 / secs),
		countMetric("runtime.gc.cycles", int(b.gcCycles-a.gcCycles)),
		metric{Name: "runtime.gc.cpu_frac", Unit: "ratio", Samples: int(b.gcCycles - a.gcCycles)}.value((b.gcCPU - a.gcCPU) / (b.totalCPU - a.totalCPU)),
		metric{Name: "runtime.gc.pause_p99_ms", Unit: "ms", Samples: pauses}.value(pause * 1e3),
		metric{Name: "runtime.cpu.busy_frac", Unit: "ratio", Samples: 1}.value(
			(b.cpu - a.cpu).Seconds() / (secs * float64(runtime.GOMAXPROCS(0)))),
	}
}

// spanHist collects the durations of the given spans.
func spanHist(tr *tracer, idx []int) (h hist, busy int64, errs, notModified int) {
	for _, i := range idx {
		s := &tr.spans[i]
		d := s.end - s.start
		h.record(time.Duration(d))
		busy += d
		if s.flags&flagErr != 0 {
			errs++
		}
		if s.flags&flagNotModified != 0 {
			notModified++
		}
	}
	return h, busy, errs, notModified
}

// medianOf runs f count times and returns the median duration in ms.
func medianOf(count int, f func() error) (float64, error) {
	ds := make([]float64, count)
	for i := range ds {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds[i] = float64(time.Since(start)) / 1e6
	}
	sort.Float64s(ds)
	return ds[count/2], nil
}

// layerWindow is what the traced run measured around its open-loop
// window, for the per-layer metrics.
type layerWindow struct {
	// from and to bound the open-loop window in tracer time; tracedFrom
	// is where recording began (the warm-up's start).
	from, to, tracedFrom int64
	st0, st1             statusSample
	rt0, rt1             rtSample
	open                 *openResult
	sch                  schedule
	reallocs             int
	// stepInflight is how long the Step running at the window's end
	// had been running inside the window.
	stepInflight int64
}

// layerMetrics computes every per-layer metric of a traced run. The
// post-window measurements (replan, solve, router hop, allocation)
// run here, after both windows.
func (r *runner) layerMetrics(lw layerWindow) ([]metric, error) {
	tr, sys := r.tr, r.sys
	windowNs := float64(lw.to - lw.from)
	pipelines := float64(len(sys.sources))
	d := lw.st1.sum.minus(lw.st0.sum)

	var out []metric
	// gen and net: the reader and the loopback HTTP stack around the
	// front handler.
	out = append(out,
		quantileMetric("gen.late_p99_ms", "ms", &lw.open.late, 0.99, 1e6),
		quantileMetric("diag.read_p90_ms", "ms", &lw.open.lat, 0.9, 1e6),
		quantileMetric("diag.read_p99_ms", "ms", &lw.open.lat, 0.99, 1e6),
		quantileMetric("diag.read_p999_ms", "ms", &lw.open.lat, 0.999, 1e6),
	)
	allocs, reads, err := r.reader.allocsPerRead(r.satRng, r.zipf, time.Second)
	if err != nil {
		return nil, err
	}
	var front, overhead hist
	for i := range lw.sch.due {
		f := tr.front[i].Load()
		if f <= 0 {
			continue
		}
		front.record(time.Duration(f))
		if c := lw.open.client[i]; c > 0 {
			overhead.record(time.Duration(max(c-f, 0)))
		}
	}
	out = append(out,
		quantileMetric("net.overhead_p50_us", "us", &overhead, 0.5, 1e3),
		metric{Name: "net.allocs_per_read", Unit: "allocs/read", Samples: reads}.value(allocs),
		quantileMetric("front.p50_us", "us", &front, 0.5, 1e3),
		quantileMetric("front.p99_us", "us", &front, 0.99, 1e3),
		countMetric("front.reads", len(tr.finished(spanFront, lw.from, lw.to))),
		countMetric("front.shed", int(d.shed)),
	)

	// The refresh pipeline's outcomes, from Status.
	out = append(out,
		countMetric("httpmirror.step.refreshes", d.fetches),
		countMetric("httpmirror.step.transfers", d.transfers),
		ratioMetric("httpmirror.step.changed_frac", float64(d.transfers), float64(d.fetches), d.fetches),
		countMetric("httpmirror.step.failures", d.refreshFailures),
		countMetric("httpmirror.step.skipped", d.skipped),
		metric{Name: "httpmirror.step.lag_periods", Unit: "periods", Samples: len(lw.st1.nows)}.value(lw.st0.lagGrowth(lw.st1)),
	)

	source := tr.finished(spanSource, lw.from, lw.to)
	sh, sbusy, serrs, notModified := spanHist(tr, source)
	out = append(out,
		countMetric("httpmirror.source.calls", len(source)),
		quantileMetric("httpmirror.source.p50_ms", "ms", &sh, 0.5, 1e6),
		quantileMetric("httpmirror.source.p99_ms", "ms", &sh, 0.99, 1e6),
		ratioMetric("httpmirror.source.busy_frac", float64(sbusy), windowNs*pipelines, len(source)),
		countMetric("httpmirror.source.retries", int(d.retries)),
		countMetric("httpmirror.source.failures", serrs),
		countMetric("httpmirror.source.not_modified", notModified),
	)

	appends := tr.finished(spanAppend, lw.from, lw.to)
	jh, jbusy, _, _ := spanHist(tr, appends)
	// Snapshots come every few periods, so their latency is taken over
	// everything traced (warm-up and window) to have more than one.
	commits := tr.finished(spanCommit, lw.tracedFrom, lw.to)
	ch, _, _, _ := spanHist(tr, commits)
	out = append(out,
		countMetric("persist.journal.appends", len(appends)),
		quantileMetric("persist.journal.p50_us", "us", &jh, 0.5, 1e3),
		quantileMetric("persist.journal.p99_us", "us", &jh, 0.99, 1e3),
		ratioMetric("persist.journal.busy_frac", float64(jbusy), windowNs*pipelines, len(appends)),
		countMetric("persist.snapshot.commits", len(commits)),
		quantileMetric("persist.snapshot.p50_ms", "ms", &ch, 0.5, 1e6),
		metric{Name: "persist.snapshot.max_ms", Unit: "ms", Samples: len(commits)}.value(float64(ch.max)/1e6),
		metric{Name: "persist.snapshot.bytes", Unit: "bytes", Samples: len(sys.sources)}.value(float64(sys.snapshotBytes())),
		countMetric("persist.errors", d.persistErrors),
	)

	// Replan and solve, timed on the (first) live mirror. Their
	// difference is learn plus iterator rebuild. A single mirror's step
	// loop is stopped first so ForceReplan does not queue behind a
	// backlogged Step; a fleet shard's Steps stay short.
	if sys.fl == nil {
		sys.stopLoop()
	}
	m := sys.mirrors()[0]
	replan, err := medianOf(3, m.ForceReplan)
	if err != nil {
		return nil, err
	}
	solve, err := medianOf(3, func() error {
		cfg := sys.planCfg
		cfg.Bandwidth = m.Budget()
		_, err := core.MakePlan(m.Elements(), cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	out = append(out,
		metric{Name: "core.replan.ms", Unit: "ms", Samples: 3}.value(replan),
		metric{Name: "solver.solve.ms", Unit: "ms", Samples: 3}.value(solve),
	)
	out = append(out, runtimeMetrics(lw.rt0, lw.rt1)...)

	if sys.fl == nil {
		out = append(out, r.stepMetrics(lw)...)
	} else {
		fm, err := r.fleetMetrics(lw)
		if err != nil {
			return nil, err
		}
		out = append(out, fm...)
	}
	return out, nil
}

// stepMetrics times Mirror.Step from the spans driveSteps records;
// they exist only where the benchmark runs the step loop itself.
func (r *runner) stepMetrics(lw layerWindow) []metric {
	tr := r.tr
	steps := tr.finished(spanStep, lw.from, lw.to)
	h, _, _, _ := spanHist(tr, steps)
	// Busy time is step time inside the window, including a step that
	// began before it and one still running at its end.
	busy := lw.stepInflight
	for _, i := range tr.finished(spanStep, 0, lw.to) {
		busy += max(0, min(tr.spans[i].end, lw.to)-max(tr.spans[i].start, lw.from))
	}
	self, total := tr.selfTime(steps, tr.children(lw.from, lw.to))
	out := []metric{
		countMetric("httpmirror.step.calls", len(steps)),
		ratioMetric("httpmirror.step.busy_frac", float64(busy), float64(lw.to-lw.from), len(steps)),
		quantileMetric("httpmirror.step.p99_ms", "ms", &h, 0.99, 1e6),
		metric{Name: "httpmirror.step.max_ms", Unit: "ms", Samples: len(steps)}.value(float64(h.max) / 1e6),
		ratioMetric("httpmirror.step.self_frac", float64(self), float64(total), len(steps)),
	}
	for i := range out {
		out[i].scope = "single"
	}
	return out
}

// fleetMetrics measures the router hop and the fleet allocator, after
// both windows.
func (r *runner) fleetMetrics(lw layerWindow) ([]metric, error) {
	fl := r.sys.fl
	place := fl.Placement()
	const hopReads = 2000
	router, err := directP50(stats.NewRNG(r.seed), r.zipf, hopReads, func(id int) string {
		return r.sys.front + r.reader.paths[id]
	})
	if err != nil {
		return nil, err
	}
	direct, err := directP50(stats.NewRNG(r.seed), r.zipf, hopReads, func(id int) string {
		return fl.Shard(place.ShardOf(id)).URL() + r.reader.paths[place.Local(id)]
	})
	if err != nil {
		return nil, err
	}
	mirrors := r.sys.mirrors()
	healthy := make([]bool, len(mirrors))
	traffic := make([]float64, len(mirrors))
	for i := range mirrors {
		healthy[i] = true
		traffic[i] = float64(len(place.Globals(i)))
	}
	alloc, err := medianOf(5, func() error {
		_, err := fleet.Allocate(mirrors, healthy, traffic, r.w.budget, nil, 0)
		return err
	})
	if err != nil {
		return nil, err
	}
	out := []metric{
		metric{Name: "fleet.router.hop_p50_us", Unit: "us", Samples: hopReads}.value((router - direct) / 1e3),
		metric{Name: "fleet.alloc.ms", Unit: "ms", Samples: 5}.value(alloc),
		countMetric("fleet.reallocations", lw.reallocs),
	}
	for i := range out {
		out[i].scope = "fleet"
	}
	return out, nil
}
