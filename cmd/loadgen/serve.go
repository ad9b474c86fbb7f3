package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"freshen/internal/stats"
)

// The serve-benchmark mode (-serve-out): instead of the gentle
// open-loop demo traffic, loadgen runs a closed-loop benchmark against
// the mirror's lock-free read path. A pool of paced workers drives
// Zipf-distributed GET /object/{id} traffic through a ramp of target
// request rates while the mirror's refresh pipeline, breaker, and
// snapshot machinery run concurrently; each stage's latency quantiles,
// error rate, and stall count decide whether that rate was sustained.
// The result is BENCH_serve.json — the serving-path counterpart of
// BENCH_obs.json and BENCH_solver.json.

// serveReport is the document -serve-out writes.
type serveReport struct {
	Mirror           string  `json:"mirror"`
	Objects          int     `json:"objects"`
	Theta            float64 `json:"theta"`
	Workers          int     `json:"workers"`
	StageSeconds     float64 `json:"stage_seconds"`
	StallThresholdMs float64 `json:"stall_threshold_ms"`
	SustainFrac      float64 `json:"sustain_frac"`
	MaxErrRate       float64 `json:"max_err_rate"`

	// PastKnee records whether the ramp was allowed to continue past
	// the first unsustained stage (-past-knee), which is how the shed
	// columns below get non-trivial values: beyond the knee the mirror
	// is expected to 503 the excess, not to queue it.
	PastKnee bool `json:"past_knee"`

	Stages []stageResult `json:"stages"`

	// Mirror-side counters sampled from /status after the ramp
	// (-status-url); MirrorMode is empty when sampling was disabled or
	// failed. ModeTransitions counts degradation-mode changes over the
	// mirror's lifetime, so a clean overload run should leave it at
	// whatever the chaos script expects, not silently grow it.
	MirrorMode             string `json:"mirror_mode,omitempty"`
	MirrorModeTransitions  uint64 `json:"mirror_mode_transitions"`
	MirrorShedRequests     uint64 `json:"mirror_shed_requests"`
	MirrorAdmittedRequests uint64 `json:"mirror_admitted_requests"`

	// MaxSustainedRPS is the highest achieved rate among stages that
	// met the sustain criteria. When no stage qualified (the ramp
	// started past the knee, or the environment is too noisy for the
	// 95% pacing bar) it falls back to the highest achieved rate, so a
	// live, serving mirror never reports zero: zero means requests
	// failed, not that a target was missed.
	MaxSustainedRPS float64 `json:"max_sustained_rps"`

	// Allocations per operation on the serving path, measured by `go
	// test -bench` and passed through by scripts/bench_serve.sh so the
	// closed-loop numbers and the micro-benchmark travel together.
	// -1 means not measured (loadgen run without the script).
	AccessAllocsPerOp  float64 `json:"access_allocs_per_op"`
	HandlerAllocsPerOp float64 `json:"handler_allocs_per_op"`
}

// stageResult is one rung of the ramp.
type stageResult struct {
	TargetRPS   float64 `json:"target_rps"`
	AchievedRPS float64 `json:"achieved_rps"`
	Requests    int     `json:"requests"`
	Errors      int     `json:"errors"`
	// Shed counts 503 responses — load the mirror's admission control
	// turned away on purpose. Shed requests are not errors: past the
	// knee a healthy mirror sheds, and the benchmark's job is to show
	// the shed fraction rising while the admitted tail stays bounded.
	Shed     int     `json:"shed"`
	ShedRate float64 `json:"shed_rate"`
	// Stalls counts requests slower than the stall threshold — the
	// tail the lock-free read path exists to keep empty (a mutex read path
	// stalls whenever a reader parks behind a commit).
	Stalls int     `json:"stalls"`
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	MaxMs  float64 `json:"max_ms"`
	// Admitted quantiles cover only non-shed responses: the latency
	// the mirror delivered to traffic it accepted. Past the knee the
	// overall quantiles are dominated by fast 503s, so these are the
	// columns the degradation-envelope check reads.
	AdmittedRPS   float64 `json:"admitted_rps"`
	AdmittedP50Ms float64 `json:"admitted_p50_ms"`
	AdmittedP99Ms float64 `json:"admitted_p99_ms"`
	// Sustained: admitted rate >= sustain_frac * target with an error
	// rate (over admitted traffic, 503s excluded) at or under
	// max_err_rate.
	Sustained bool `json:"sustained"`
}

// parseStages turns the -stages flag ("500,1000,2000") into the ramp.
func parseStages(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	targets := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("stage %q is not a number", p)
		}
		if v <= 0 {
			return nil, fmt.Errorf("stage %q must be a positive RPS target", p)
		}
		targets = append(targets, v)
	}
	return targets, nil
}

// serveWorker is one closed-loop client: it paces itself to target/W
// requests per second, issuing the next request on schedule (or
// immediately, when the previous one ran long — a closed loop never
// queues a burst to catch up; falling behind shows up as a missed
// target instead).
type serveWorker struct {
	latenciesMs []float64
	admittedMs  []float64
	errors      int
	shed        int
	stalls      int
}

func (w *serveWorker) run(cfg config, client *http.Client, seed int64, interval, duration time.Duration) {
	zipf, err := stats.NewZipf(cfg.n, cfg.theta)
	if err != nil {
		// Validated in runServe before any worker starts.
		panic(err)
	}
	rng := stats.NewRNG(seed)
	stall := cfg.stallThreshold.Seconds() * 1000
	deadline := time.Now().Add(duration)
	next := time.Now()
	for time.Now().Before(deadline) {
		id := zipf.Sample(rng) - 1
		start := time.Now()
		admitted := false
		resp, err := client.Get(fmt.Sprintf("%s/object/%d", cfg.mirror, id))
		if err != nil {
			w.errors++
		} else {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			switch {
			case resp.StatusCode == http.StatusServiceUnavailable:
				// Admission control turned the request away; count it
				// as shed, not as an error, and keep its (fast) latency
				// out of the admitted digest.
				w.shed++
			case resp.StatusCode != http.StatusOK:
				w.errors++
				admitted = true
			default:
				admitted = true
			}
		}
		ms := time.Since(start).Seconds() * 1000
		w.latenciesMs = append(w.latenciesMs, ms)
		if admitted {
			w.admittedMs = append(w.admittedMs, ms)
		}
		if ms > stall {
			w.stalls++
		}
		next = next.Add(interval)
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		} else {
			next = time.Now()
		}
	}
}

// runServeStage drives one rung of the ramp with cfg.workers concurrent
// closed-loop clients and digests their merged samples.
func runServeStage(cfg config, client *http.Client, target float64) stageResult {
	interval := time.Duration(float64(time.Second) * float64(cfg.workers) / target)
	workers := make([]serveWorker, cfg.workers)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range workers {
		wg.Add(1)
		go func(w *serveWorker, seed int64) {
			defer wg.Done()
			w.run(cfg, client, seed, interval, cfg.stageDuration)
		}(&workers[i], cfg.seed+int64(i)+int64(target))
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	res := stageResult{TargetRPS: target}
	var ms, admittedMs []float64
	for i := range workers {
		ms = append(ms, workers[i].latenciesMs...)
		admittedMs = append(admittedMs, workers[i].admittedMs...)
		res.Errors += workers[i].errors
		res.Shed += workers[i].shed
		res.Stalls += workers[i].stalls
	}
	res.Requests = len(ms)
	if elapsed > 0 {
		res.AchievedRPS = float64(res.Requests) / elapsed
		res.AdmittedRPS = float64(res.Requests-res.Shed) / elapsed
	}
	if res.Requests > 0 {
		res.ShedRate = float64(res.Shed) / float64(res.Requests)
	}
	if len(ms) > 0 {
		sort.Float64s(ms)
		res.P50Ms = stats.Quantile(ms, 0.50)
		res.P99Ms = stats.Quantile(ms, 0.99)
		res.P999Ms = stats.Quantile(ms, 0.999)
		res.MaxMs = ms[len(ms)-1]
	}
	if len(admittedMs) > 0 {
		sort.Float64s(admittedMs)
		res.AdmittedP50Ms = stats.Quantile(admittedMs, 0.50)
		res.AdmittedP99Ms = stats.Quantile(admittedMs, 0.99)
	}
	// Sustained is judged on admitted traffic: shed 503s are the
	// mirror declining load, not failing it, so they count against
	// the achieved rate but not the error rate.
	errRate := 0.0
	if admitted := res.Requests - res.Shed; admitted > 0 {
		errRate = float64(res.Errors) / float64(admitted)
	}
	res.Sustained = res.Requests > 0 &&
		res.AdmittedRPS >= cfg.sustainFrac*target &&
		errRate <= cfg.maxErrRate
	return res
}

// mirrorStatus is the slice of the mirror's /status document the serve
// benchmark records: the degradation mode and admission counters.
type mirrorStatus struct {
	Mode            string `json:"mode"`
	ModeTransitions uint64 `json:"mode_transitions"`
	Admitted        uint64 `json:"admitted_requests"`
	Shed            uint64 `json:"shed_requests"`
}

// sampleStatus fetches -status-url once; errors are logged, not fatal,
// so a mirror without the endpoint still produces a report.
func sampleStatus(client *http.Client, url string) (mirrorStatus, bool) {
	var st mirrorStatus
	resp, err := client.Get(url)
	if err != nil {
		log.Printf("loadgen: sampling %s: %v", url, err)
		return st, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Printf("loadgen: sampling %s: HTTP %d", url, resp.StatusCode)
		return st, false
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		log.Printf("loadgen: decoding %s: %v", url, err)
		return st, false
	}
	return st, true
}

// runServe is the -serve-out entry point: warmup, then the stage ramp,
// stopping at the first unsustained stage (beyond the knee, a closed
// loop measures its own queueing, not the server), then the report.
func runServe(cfg config) error {
	if cfg.workers <= 0 {
		return fmt.Errorf("workers must be positive, got %d", cfg.workers)
	}
	if cfg.stageDuration <= 0 {
		return fmt.Errorf("stage-duration must be positive, got %v", cfg.stageDuration)
	}
	if cfg.stallThreshold <= 0 {
		return fmt.Errorf("stall threshold must be positive, got %v", cfg.stallThreshold)
	}
	if cfg.sustainFrac <= 0 || cfg.sustainFrac > 1 {
		return fmt.Errorf("sustain-frac must be in (0, 1], got %v", cfg.sustainFrac)
	}
	if cfg.maxErrRate < 0 || cfg.maxErrRate > 1 {
		return fmt.Errorf("max-err-rate must be in [0, 1], got %v", cfg.maxErrRate)
	}
	targets, err := parseStages(cfg.stages)
	if err != nil {
		return err
	}
	if _, err := stats.NewZipf(cfg.n, cfg.theta); err != nil {
		return err
	}

	// One shared transport with enough idle connections that the pool
	// never churns sockets mid-stage; the default of 2 per host would
	// turn every stage into a connection-setup benchmark.
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConns = cfg.workers * 2
	transport.MaxIdleConnsPerHost = cfg.workers * 2
	client := &http.Client{Transport: transport, Timeout: 10 * time.Second}

	if cfg.warmup > 0 {
		warm := cfg
		warm.stageDuration = cfg.warmup
		runServeStage(warm, client, targets[0])
	}

	report := serveReport{
		Mirror:             cfg.mirror,
		Objects:            cfg.n,
		Theta:              cfg.theta,
		Workers:            cfg.workers,
		StageSeconds:       cfg.stageDuration.Seconds(),
		StallThresholdMs:   cfg.stallThreshold.Seconds() * 1000,
		SustainFrac:        cfg.sustainFrac,
		MaxErrRate:         cfg.maxErrRate,
		PastKnee:           cfg.pastKnee,
		AccessAllocsPerOp:  cfg.accessAllocs,
		HandlerAllocsPerOp: cfg.handlerAllocs,
	}
	best := 0.0
	for _, target := range targets {
		res := runServeStage(cfg, client, target)
		report.Stages = append(report.Stages, res)
		log.Printf("loadgen: stage %.0f rps -> achieved %.0f (admitted %.0f), p50 %.3fms p99 %.3fms p99.9 %.3fms (admitted p99 %.3fms), %d errors, %d shed, %d stalls, sustained=%v",
			target, res.AchievedRPS, res.AdmittedRPS, res.P50Ms, res.P99Ms, res.P999Ms, res.AdmittedP99Ms, res.Errors, res.Shed, res.Stalls, res.Sustained)
		if res.AchievedRPS > best {
			best = res.AchievedRPS
		}
		if res.Sustained {
			if res.AchievedRPS > report.MaxSustainedRPS {
				report.MaxSustainedRPS = res.AchievedRPS
			}
		} else if cfg.pastKnee {
			log.Printf("loadgen: stage %.0f rps not sustained; continuing past the knee", target)
		} else {
			log.Printf("loadgen: stage %.0f rps not sustained; stopping the ramp", target)
			break
		}
	}
	if report.MaxSustainedRPS == 0 {
		report.MaxSustainedRPS = best
	}
	if cfg.statusURL != "" {
		if st, ok := sampleStatus(client, cfg.statusURL); ok {
			report.MirrorMode = st.Mode
			report.MirrorModeTransitions = st.ModeTransitions
			report.MirrorShedRequests = st.Shed
			report.MirrorAdmittedRequests = st.Admitted
		}
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(cfg.serveOut, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", cfg.serveOut, err)
	}
	log.Printf("loadgen: wrote %s (max sustained %.0f rps over %d stages)",
		cfg.serveOut, report.MaxSustainedRPS, len(report.Stages))
	return nil
}
