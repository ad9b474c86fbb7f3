package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"freshen/internal/httpmirror"
	"freshen/internal/obs"
	"freshen/internal/resilience"
)

// fleetMetrics is the router-level instrumentation. Per-shard series
// (solver, estimator, serve path) stay on each shard's own listener;
// the fleet registry carries only what exists one level up: health,
// slices, router traffic, dead-shard rejects.
type fleetMetrics struct {
	requests    *obs.CounterVec
	deadRejects *obs.Counter
	reallocs    *obs.Counter
	certFails   *obs.Counter
	sliceGauges []func(Allocation)
	// objects counts routed reads; its 200/304/503 children are
	// resolved once, so the routed read stays allocation-free.
	objects *obs.CodeCounter
}

func instrumentFleet(f *Fleet, reg *obs.Registry) *fleetMetrics {
	if reg == nil {
		return nil
	}
	reg.GaugeFunc("fleet_shards",
		"Configured shard count.",
		func() float64 { return float64(f.cfg.Shards) })
	reg.GaugeFunc("fleet_healthy_shards",
		"Shards currently passing readiness probes.",
		func() float64 { _, n := f.healthySnapshot(); return float64(n) })
	reg.GaugeFunc("fleet_budget_total",
		"Global refresh budget per period.",
		func() float64 { return f.cfg.Budget })
	reg.GaugeFunc("fleet_perceived_freshness",
		"Pooled optimal perceived freshness of the latest budget leveling.",
		func() float64 { a, _ := f.Allocation(); return a.Perceived })
	slices := reg.GaugeVec("fleet_shard_budget",
		"Budget slice currently assigned to each shard.", "shard")
	reg.GaugeFunc("fleet_allocation_conserved",
		"1 when the latest leveling's slices sum to the global budget and certify optimal, else 0.",
		func() float64 {
			if _, err := f.Allocation(); err != nil {
				return 0
			}
			return 1
		})
	m := &fleetMetrics{
		requests: reg.CounterVec("fleet_router_requests_total",
			"Requests the router handled, by route and status code.", "route", "code"),
		deadRejects: reg.Counter("fleet_router_dead_shard_rejects_total",
			"Object reads answered 503 because the owning shard is down."),
		reallocs: reg.Counter("fleet_reallocations_total",
			"Budget levelings performed."),
		certFails: reg.Counter("fleet_allocation_failures_total",
			"Budget levelings that failed solving, certification, or conservation."),
	}
	m.objects = m.requests.Codes("/object", http.StatusOK, http.StatusNotModified, http.StatusServiceUnavailable)
	m.slicesHook(f, slices)
	return m
}

// slicesHook keeps the per-shard slice gauges in step with the latest
// allocation via a GaugeFunc-per-shard (labels are fixed up front).
func (m *fleetMetrics) slicesHook(f *Fleet, v *obs.GaugeVec) {
	for i := 0; i < f.cfg.Shards; i++ {
		g := v.With(strconv.Itoa(i))
		idx := i
		// The vec gauge is a plain gauge; refresh it lazily when the
		// allocation changes instead of on scrape. countRealloc calls
		// back here.
		m.sliceGauges = append(m.sliceGauges, func(a Allocation) {
			if idx < len(a.Slices) {
				g.Set(a.Slices[idx])
			}
		})
	}
}

func (m *fleetMetrics) countRealloc(err error) {
	if m == nil {
		return
	}
	m.reallocs.Inc()
	if err != nil {
		m.certFails.Inc()
	}
}

func (m *fleetMetrics) setSlices(a Allocation) {
	if m == nil {
		return
	}
	for _, set := range m.sliceGauges {
		set(a)
	}
}

func (m *fleetMetrics) countRequest(route string, code int) {
	if m == nil {
		return
	}
	m.requests.With(route, strconv.Itoa(code)).Inc()
}

// countObject counts one routed object read by the code it answered.
func (m *fleetMetrics) countObject(code int) {
	if m != nil {
		m.objects.Inc(code)
	}
}

func (m *fleetMetrics) countDeadReject() {
	if m != nil {
		m.deadRejects.Inc()
	}
}

// FleetStatus is the router's /status document. The top-level mode
// and mode_transitions fields keep the single-mirror status contract,
// so a dashboard samples them without caring whether it watches one
// mirror or a fleet.
type FleetStatus struct {
	Mode            string  `json:"mode"`
	ModeTransitions int     `json:"mode_transitions"`
	Shards          int     `json:"shards"`
	HealthyShards   int     `json:"healthy_shards"`
	Objects         int     `json:"objects"`
	Budget          float64 `json:"budget"`
	Perceived       float64 `json:"planned_perceived_freshness"`
	Reallocations   int     `json:"reallocations"`
	AllocFailures   int     `json:"allocation_failures"`
	AllocationOK    bool    `json:"allocation_ok"`

	ShardStatus []ShardStatus `json:"shard_status"`
}

// ShardStatus is one shard's row in the fleet status.
type ShardStatus struct {
	Shard   int                `json:"shard"`
	URL     string             `json:"url"`
	Healthy bool               `json:"healthy"`
	Running bool               `json:"running"`
	Kills   int                `json:"kills"`
	Objects int                `json:"objects"`
	Slice   float64            `json:"budget_slice"`
	Weight  float64            `json:"traffic_weight"`
	Status  *httpmirror.Status `json:"status,omitempty"`
}

// Status assembles the fleet status document.
func (f *Fleet) Status() FleetStatus {
	healthy, n := f.healthySnapshot()
	alloc, allocErr := f.Allocation()
	f.mu.Lock()
	reallocs, certFails := f.reallocs, f.certFails
	f.mu.Unlock()
	st := FleetStatus{
		Mode:          f.fleetMode().String(),
		Shards:        len(f.shards),
		HealthyShards: n,
		Objects:       f.place.NumObjects(),
		Budget:        f.cfg.Budget,
		Perceived:     alloc.Perceived,
		Reallocations: reallocs,
		AllocFailures: certFails,
		AllocationOK:  allocErr == nil,
	}
	for i, sh := range f.shards {
		row := ShardStatus{
			Shard:   i,
			URL:     sh.URL(),
			Healthy: healthy[i],
			Running: sh.Running(),
			Kills:   sh.Kills(),
			Objects: len(f.place.Globals(i)),
		}
		if i < len(alloc.Slices) {
			row.Slice = alloc.Slices[i]
			row.Weight = alloc.Weights[i]
		}
		if m := sh.Mirror(); m != nil {
			s := m.Status()
			row.Status = &s
			st.ModeTransitions += s.ModeTransitions
		}
		st.ShardStatus = append(st.ShardStatus, row)
	}
	return st
}

// Handler is the fleet router: the one address clients talk to.
//
//	GET  /object/{gid}   — served in-process by the owning shard
//	                       (placement map) through its ServeObject,
//	                       exactly as the shard's own listener would
//	                       (HEAD and X-If-Version included). A dead
//	                       shard's keyspace 503s immediately with a
//	                       jittered Retry-After — never a hang, never
//	                       a mis-route.
//	GET  /status         — fleet-wide aggregate (single-mirror
//	                       top-level mode/mode_transitions).
//	GET  /healthz        — liveness (always 200 while the router runs).
//	GET  /readyz         — 200 when ≥1 shard is healthy.
//	GET  /metrics        — fleet-level series (with Config.Metrics).
func (f *Fleet) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/object/", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			f.m.countObject(http.StatusMethodNotAllowed)
			return
		}
		gid, err := strconv.Atoi(strings.TrimPrefix(r.URL.Path, "/object/"))
		if err != nil {
			http.Error(w, "bad object id", http.StatusBadRequest)
			f.m.countObject(http.StatusBadRequest)
			return
		}
		f.routeObject(w, r, gid)
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(f.Status()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		f.m.countRequest("/status", http.StatusOK)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
		f.m.countRequest("/healthz", http.StatusOK)
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		_, n := f.healthySnapshot()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if n == 0 {
			w.Header()["Retry-After"] = resilience.RetryAfterHeader()
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "unavailable")
			f.m.countRequest("/readyz", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
		f.m.countRequest("/readyz", http.StatusOK)
	})
	if f.cfg.Metrics != nil {
		mux.Handle("/metrics", f.cfg.Metrics.Handler())
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Hot-path dispatch, as on the mirror: a GET or HEAD of a
		// well-formed /object/{gid} skips the mux's path cleaning and
		// goes straight to the owner; everything else takes the mux.
		if r.Method == http.MethodGet || r.Method == http.MethodHead {
			if rest, ok := strings.CutPrefix(r.URL.Path, "/object/"); ok {
				if gid, err := strconv.Atoi(rest); err == nil {
					f.routeObject(w, r, gid)
					return
				}
			}
		}
		mux.ServeHTTP(w, r)
	})
}

// routeObject serves one object read from its owning shard's mirror,
// in-process: placement lookup, two atomic loads, and the shard's own
// ServeObject — no lock, no allocation, no second HTTP round trip.
// Every header the shard sets (version, degradation mode and
// staleness, its own shed Retry-After) reaches the client as the
// shard wrote it.
func (f *Fleet) routeObject(w http.ResponseWriter, r *http.Request, gid int) {
	shard := f.place.ShardOf(gid)
	if shard < 0 {
		http.Error(w, "no such object", http.StatusNotFound)
		f.m.countObject(http.StatusNotFound)
		return
	}
	// A dead or unhealthy owner answers now — a 503 with a jittered
	// retry hint. The object exists and exactly one shard may serve
	// it, so there is nowhere to fail over to; the honest answer is
	// "retry shortly", and the supervisor is already re-leveling the
	// survivors' budgets.
	m := f.shards[shard].Mirror()
	if m == nil || !f.healthy[shard].Load() {
		f.rejectDeadShard(w)
		return
	}
	f.m.countObject(m.ServeObject(w, r, f.place.Local(gid)))
}

// rejectDeadShard answers for an unreachable owner.
func (f *Fleet) rejectDeadShard(w http.ResponseWriter) {
	w.Header()["Retry-After"] = resilience.RetryAfterHeader()
	http.Error(w, "shard unavailable", http.StatusServiceUnavailable)
	f.m.countDeadReject()
	f.m.countObject(http.StatusServiceUnavailable)
}
