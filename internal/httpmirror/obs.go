package httpmirror

import (
	"io"
	"net/http"
	"sync"
	"time"

	"freshen/internal/obs"
)

// mirrorMetrics is the mirror's registry-backed instrumentation. All
// methods are nil-receiver safe so the hot paths stay branchless when
// observability is off (Config.Metrics == nil).
//
// Two kinds of series coexist. Event counters (refreshes, transfers,
// breaker trips, …) count what THIS process did and reset on restart —
// standard Prometheus counter semantics; the restored lifetime totals
// stay on /status and in the snapshot. State gauges are either set
// from the installed plan's own numbers when a plan is installed (PF,
// average freshness, λ-mean, bandwidth) or read live at scrape time
// through GaugeFunc closures (clock, breaker state, quarantine size —
// one mutex acquisition per scrape).
type mirrorMetrics struct {
	refreshSeconds *obs.HistogramVec // outcome: success|failure
	refreshes      *obs.CounterVec   // outcome: success|failure|skipped
	transfers      *obs.Counter
	notModified    *obs.Counter
	serveRequests  *obs.CounterVec  // route, code
	objectRequests *obs.CodeCounter // serveRequests' /object children
	breakerTrips   *obs.Counter
	quarEvents     *obs.Counter
	recoveries     *obs.Counter
	replans        *obs.Counter
	persistErrors  *obs.Counter
	exploreProbes  *obs.Counter
	canceled       *obs.Counter
	estPolls       *obs.Counter
	estChanges     *obs.Counter

	pf            *obs.Gauge
	avgFreshness  *obs.Gauge
	bandwidthUsed *obs.Gauge
	lambdaMean    *obs.Gauge
	exploreBW     *obs.Gauge
	confidence    *obs.Histogram
}

// instrumentMirror registers the mirror's series on reg and wires the
// scrape-time gauges to m. Called from New before any concurrency, and
// before recovery, which seeds the estimator counters with the
// restored totals and replays journaled polls through them.
func instrumentMirror(m *Mirror, reg *obs.Registry) *mirrorMetrics {
	mm := &mirrorMetrics{
		refreshSeconds: reg.HistogramVec("freshen_refresh_duration_seconds",
			"Wall-clock time of one refresh attempt (HEAD, conditional GET, retries).",
			obs.LatencyBuckets(), "outcome"),
		refreshes: reg.CounterVec("freshen_refreshes_total",
			"Refresh attempts by outcome; skipped means the breaker was open.", "outcome"),
		transfers: reg.Counter("freshen_transfers_total",
			"Refreshes that found a changed object and transferred its body."),
		notModified: reg.Counter("freshen_source_not_modified_total",
			"Conditional refresh polls the upstream answered 304 for — no body transferred."),
		serveRequests: reg.CounterVec("freshen_serve_requests_total",
			"HTTP requests served, by route and status code.", "route", "code"),
		breakerTrips: reg.Counter("freshen_breaker_trips_total",
			"Circuit breaker closed-to-open transitions."),
		quarEvents: reg.Counter("freshen_quarantine_events_total",
			"Elements placed in quarantine."),
		recoveries: reg.Counter("freshen_recoveries_total",
			"Elements released from quarantine after a successful probe."),
		replans: reg.Counter("freshen_replans_total",
			"Schedule recomputations (cadence, fault-driven, and forced)."),
		persistErrors: reg.Counter("freshen_persist_write_failures_total",
			"Journal appends or snapshot commits the mirror absorbed as failed."),
		exploreProbes: reg.Counter("freshen_explore_probes_total",
			"Refreshes funded purely by the explore slice (elements the exploit plan left unfunded)."),
		canceled: reg.Counter("freshen_serve_canceled_total",
			"Admitted object reads whose client disconnected before the response; their limiter slots were released immediately."),
		estPolls: reg.Counter("freshen_estimator_polls_total",
			"Change polls recorded by the estimator (restored and replayed polls included)."),
		estChanges: reg.Counter("freshen_estimator_changes_total",
			"Polls that observed a changed object."),

		pf: reg.Gauge("freshen_pf",
			"Perceived freshness Σ pᵢ·F(fᵢ,λᵢ) of the current plan, on the knowledge it was solved on; set at each plan install."),
		avgFreshness: reg.Gauge("freshen_avg_freshness",
			"Unweighted mean freshness of the current plan over the elements it schedules; set at each plan install."),
		bandwidthUsed: reg.Gauge("freshen_planned_bandwidth_used",
			"Bandwidth Σ sᵢ·fᵢ the current plan consumes."),
		lambdaMean: reg.Gauge("freshen_lambda_mean",
			"Mean estimated change rate across the catalog, as the current plan was solved on."),
		exploreBW: reg.Gauge("freshen_explore_bandwidth",
			"Bandwidth the current plan dedicates to uncertainty-driven probing."),
		confidence: reg.Histogram("freshen_estimator_confidence",
			"Per-element estimator confidence (1 - uncertainty) observed at each cadence replan.",
			[]float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99}),
	}
	mm.objectRequests = mm.serveRequests.Codes("/object", serveCodes...)
	// The access total lives in the read path's striped counters; the
	// scrape sums the stripes instead of forcing every Access through
	// one shared counter cache line. Same family name and TYPE as the
	// plain counter it replaces, and like every event counter it
	// counts what this process did (restored lifetime totals stay on
	// /status).
	reg.CounterFunc("freshen_accesses_total",
		"Client object accesses served from the local copies.", func() float64 {
			return float64(m.acc.total())
		})
	// Scrape-time state gauges: each closure takes m.mu briefly. The
	// registry never calls them while the mirror holds its own locks,
	// so the lock order is always scrape → m.mu.
	reg.GaugeFunc("freshen_objects",
		"Objects in the mirrored catalog.", func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(len(m.views))
		})
	reg.GaugeFunc("freshen_clock_periods",
		"The mirror's period clock.", func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return m.now
		})
	reg.GaugeFunc("freshen_schedule_staleness_periods",
		"Periods elapsed since the schedule was last recomputed.", func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return m.now - m.pl.lastReplan
		})
	reg.GaugeFunc("freshen_breaker_state",
		"Circuit breaker state: 0 closed, 1 open, 2 half-open.", func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(m.brk.state)
		})
	reg.GaugeFunc("freshen_quarantine_size",
		"Elements currently quarantined.", func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(m.quarantined)
		})
	reg.GaugeFunc("freshen_last_snapshot_age_periods",
		"Periods since the last durable snapshot; -1 when none exists.", func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			if m.lastSnapshotAt < 0 {
				return -1
			}
			return m.now - m.lastSnapshotAt
		})
	reg.GaugeFunc("freshen_upstream_retries",
		"Upstream requests retried after a transient failure.", func() float64 {
			return float64(m.cfg.Upstream.Retries())
		})
	reg.GaugeFunc("freshen_upstream_failures",
		"Upstream requests that failed after exhausting retries.", func() float64 {
			return float64(m.cfg.Upstream.Failures())
		})
	// Overload and degradation series. The limiter's counters are pure
	// atomics; the mode word is published for lock-free reads; the
	// machine's own counters take m.mu like the other state gauges.
	reg.CounterFunc("freshen_shed_requests_total",
		"Object reads shed by admission control (503 + Retry-After).", func() float64 {
			return float64(m.limiter.Shed())
		})
	reg.CounterFunc("freshen_admitted_requests_total",
		"Object reads admitted past the concurrency limiter.", func() float64 {
			return float64(m.limiter.Admitted())
		})
	reg.GaugeFunc("freshen_inflight_requests",
		"Object reads currently admitted and in flight.", func() float64 {
			return float64(m.limiter.Inflight())
		})
	reg.GaugeFunc("freshen_inflight_limit",
		"Current adaptive concurrency limit (-1 when shedding is disabled).", func() float64 {
			return float64(m.limiter.Limit())
		})
	reg.GaugeFunc("freshen_mode",
		"Degradation mode bitmask: 0 full, +1 source-degraded, +2 persist-degraded.", func() float64 {
			return float64(m.modeWord.Load())
		})
	reg.CounterFunc("freshen_mode_transitions_total",
		"Degradation mode changes since this process started.", func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(m.machine.Transitions())
		})
	reg.GaugeFunc("freshen_consecutive_persist_failures",
		"Persist failures since the last successful fsync.", func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(m.machine.ConsecutivePersistFailures())
		})
	reg.CounterFunc("freshen_journal_skipped_total",
		"Journal appends withheld while persist-degraded.", func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(m.journalSkipped)
		})
	return mm
}

func (mm *mirrorMetrics) observeRefresh(elapsed time.Duration, err error) {
	if mm == nil {
		return
	}
	outcome := "success"
	if err != nil {
		outcome = "failure"
	}
	mm.refreshSeconds.With(outcome).Observe(elapsed.Seconds())
	mm.refreshes.With(outcome).Inc()
}

func (mm *mirrorMetrics) countSkipped() {
	if mm != nil {
		mm.refreshes.With("skipped").Inc()
	}
}

func (mm *mirrorMetrics) countTransfer() {
	if mm != nil {
		mm.transfers.Inc()
	}
}

func (mm *mirrorMetrics) countNotModified() {
	if mm != nil {
		mm.notModified.Inc()
	}
}

func (mm *mirrorMetrics) countBreakerTrip() {
	if mm != nil {
		mm.breakerTrips.Inc()
	}
}

func (mm *mirrorMetrics) countQuarantine() {
	if mm != nil {
		mm.quarEvents.Inc()
	}
}

func (mm *mirrorMetrics) countRecovery() {
	if mm != nil {
		mm.recoveries.Inc()
	}
}

func (mm *mirrorMetrics) countReplan() {
	if mm != nil {
		mm.replans.Inc()
	}
}

func (mm *mirrorMetrics) countPersistError() {
	if mm != nil {
		mm.persistErrors.Inc()
	}
}

func (mm *mirrorMetrics) countExploreProbe() {
	if mm != nil {
		mm.exploreProbes.Inc()
	}
}

func (mm *mirrorMetrics) countCanceled() {
	if mm != nil {
		mm.canceled.Inc()
	}
}

// countPoll counts one poll the estimator observed.
func (mm *mirrorMetrics) countPoll(changed bool) {
	if mm == nil {
		return
	}
	mm.estPolls.Inc()
	if changed {
		mm.estChanges.Inc()
	}
}

// seedPolls adds the poll and change totals a recovered estimator was
// built on, so the estimator counters, unlike the event counters,
// always cover the knowledge the estimates rest on.
func (mm *mirrorMetrics) seedPolls(polls, changes int) {
	if mm != nil {
		mm.estPolls.Add(float64(polls))
		mm.estChanges.Add(float64(changes))
	}
}

// setPlan sets the plan gauges from an installed plan's own numbers,
// so no gauge costs a pass over the catalog.
func (mm *mirrorMetrics) setPlan(s solved) {
	if mm == nil {
		return
	}
	mm.pf.Set(s.plan.Perceived)
	mm.avgFreshness.Set(s.plan.AvgFreshness)
	mm.bandwidthUsed.Set(s.plan.BandwidthUsed)
	mm.lambdaMean.Set(s.lambdaMean)
	mm.exploreBW.Set(s.exploreBW)
}

// observeConfidence records each element's confidence (1 - uncertainty)
// so the histogram tracks how much of the catalog the estimator has
// pinned down. Called once per cadence replan, off the hot path.
func (mm *mirrorMetrics) observeConfidence(uncertainty []float64) {
	if mm == nil {
		return
	}
	for _, u := range uncertainty {
		mm.confidence.Observe(1 - u)
	}
}

// statusWriter captures the response code for the serve-path counters.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// WriteString writes a view's body through the wrapped writer's own
// WriteString, which net/http's response and httptest's recorder both
// have, so serving a string body copies it into no byte slice.
func (w *statusWriter) WriteString(s string) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return io.WriteString(w.ResponseWriter, s)
}

// swPool recycles statusWriter wrappers so the serve counters cost the
// hot path no allocation.
var swPool = sync.Pool{New: func() any { return new(statusWriter) }}

// wrapStatus takes a pooled statusWriter around w.
func wrapStatus(w http.ResponseWriter) *statusWriter {
	sw := swPool.Get().(*statusWriter)
	sw.ResponseWriter, sw.code = w, 0
	return sw
}

// done recycles the wrapper and returns the code written: 200 when
// the handler wrote no explicit code (a body, a HEAD, a canceled
// client), as net/http would send.
func (w *statusWriter) done() int {
	code := w.code
	w.ResponseWriter = nil
	swPool.Put(w)
	if code == 0 {
		return http.StatusOK
	}
	return code
}

// serveCodes are the serve counters' hot codes: 200, and 304, which a
// downstream mirror's conditional polls answer at steady state.
var serveCodes = []int{http.StatusOK, http.StatusNotModified}

// countObject counts one /object request; ServeObject calls it for
// every front, the mirror's own Handler and a fleet router alike.
func (mm *mirrorMetrics) countObject(code int) {
	if mm != nil {
		mm.objectRequests.Inc(code)
	}
}

// countRequests wraps a non-object mirror route with its request
// counter. route is the normalized pattern, not the raw path, so the
// label set stays bounded.
func (mm *mirrorMetrics) countRequests(route string, h http.Handler) http.Handler {
	if mm == nil {
		return h
	}
	c := mm.serveRequests.Codes(route, serveCodes...)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := wrapStatus(w)
		h.ServeHTTP(sw, r)
		c.Inc(sw.done())
	})
}
