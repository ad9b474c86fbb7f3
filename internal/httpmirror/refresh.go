package httpmirror

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"freshen/internal/persist"
)

// This file is the refresh pipeline. Step drains the due events and
// probes the quarantined objects; attempt performs one refresh of
// either kind; applyLocked turns its outcome into state. Journal
// replay applies each recorded outcome through the same applyLocked,
// so a recovered mirror holds the state the live run built (see
// DESIGN.md §9).

// Step advances the mirror clock to now (in periods), performing every
// refresh that came due, probing quarantined elements, and re-planning
// on cadence. A quarantine or recovery also re-plans, but never in
// place of the cadence's, and a Step solves at most once. Every solve
// reads what the mirror knows at that instant. It returns the number
// of refreshes performed.
//
// Step aggregates per-element outcomes: a failing refresh feeds the
// breaker and the element's quarantine counter but never aborts the
// batch. The only errors Step returns are a clock moving backwards and
// internal planning failures.
func (m *Mirror) Step(now float64) (int, error) {
	m.stepMu.Lock()
	defer m.stepMu.Unlock()

	m.mu.Lock()
	if now < m.now {
		m.mu.Unlock()
		return 0, fmt.Errorf("httpmirror: clock moved backwards (%v < %v)", now, m.now)
	}
	// Drain every due event up front; network I/O happens unlocked.
	type dueEvent struct {
		element int
		at      float64
	}
	var due []dueEvent
	for {
		ev, ok := m.pl.iter.Peek()
		if !ok || m.pl.iterBase+ev.Time > now {
			break
		}
		m.pl.iter.Next()
		due = append(due, dueEvent{element: ev.Element, at: m.pl.iterBase + ev.Time})
	}
	m.mu.Unlock()

	refreshes := 0
	healthChanged := false
	for _, ev := range due {
		res, changed := m.attempt(ev.element, ev.at, false)
		if res == refreshed {
			refreshes++
		}
		healthChanged = healthChanged || changed
	}
	if m.probeQuarantined(now) {
		healthChanged = true
	}

	m.mu.Lock()
	if now > m.now {
		m.now = now
		// Publish the clock for the lock-free staleness computation in
		// the degraded read path.
		m.clockBits.Store(math.Float64bits(m.now))
	}
	// Snapshot on the period clock. While persist-degraded the
	// machine's exponential backoff gates attempts — each one is the
	// fsync probe that would clear the mode, but a dead disk must not
	// eat a timeout every cadence tick.
	snapshotDue := m.store != nil && now-m.lastSnapshot >= m.cfg.SnapshotEvery && m.machine.SnapshotDue(now)
	m.mu.Unlock()

	// From here on Step holds stepMu alone: the passes below only read
	// state under the two-lock rule (see Mirror) and take m.mu just to
	// install what they computed. The cadence runs on its own clock: a
	// health replan must not reset it, or steady quarantine and recovery
	// traffic would keep the cadence from ever coming due.
	cadenceDue := now-m.pl.lastCadence >= m.cfg.ReplanEvery
	if cadenceDue || healthChanged {
		if err := m.replan(m.cfg.Plan.Bandwidth, cadenceDue); err != nil {
			return refreshes, err
		}
	}
	if snapshotDue {
		// A failing state disk is counted (surfaced via /readyz), not
		// allowed to stop the refresh pipeline.
		m.commitSnapshot(m.exportState())
	}
	return refreshes, nil
}

// result is what one attempt came to.
type result uint8

const (
	// skipped: nothing was polled. A due event of an object quarantined
	// since it was scheduled is dropped; otherwise the breaker refused.
	skipped result = iota
	// failed: the poll failed.
	failed
	// refreshed: the copy is verified as of the attempt's time.
	refreshed
)

// attempt refreshes object id at period-clock time at: a due refresh,
// or, with probe set, a quarantined object's recovery probe. It takes
// m.mu once to admit the refresh, polls without it, and takes it once
// to commit the outcome through applyLocked, and, with a store, once
// more to record how the journal append went. It reports what the
// attempt came to and whether the quarantine set changed (the caller
// then replans, so the freed budget water-fills across the healthy
// objects). The caller holds stepMu.
//
// A failed refresh commits no view and no observation: the estimator
// only ever sees successful polls, with elapsed time measured from the
// last successful one.
func (m *Mirror) attempt(id int, at float64, probe bool) (result, bool) {
	m.mu.Lock()
	if !probe && m.quarantined > 0 && m.health[id].quarantined {
		// Replanning already zeroed its frequency; a leftover event
		// from the pre-quarantine iterator is dropped.
		m.mu.Unlock()
		return skipped, false
	}
	if !m.brk.allow(at) {
		// Breaker open: skip the refresh, keep serving the stale copy.
		// A skipped due refresh is counted, not fed to the estimator,
		// so an outage is never mistaken for "no change observed".
		if !probe {
			m.skippedRefreshes++
			m.metrics.countSkipped()
		}
		m.mu.Unlock()
		return skipped, false
	}
	cond := m.condSrc
	stored := m.views[id].Load().version
	m.mu.Unlock()

	start := time.Now()
	body, ver, notModified, err := m.poll(id, stored, cond)
	m.metrics.observeRefresh(time.Since(start), err)

	res, rec := failed, persist.Record{Kind: persist.KindFailure, Element: id, At: at}
	m.mu.Lock()
	if err == nil {
		res = refreshed
		rec.Kind, rec.Changed, rec.Version = persist.KindRefresh, !notModified && ver != stored, ver
		if elapsed := at - math.Float64frombits(m.verified[id].Load()); elapsed > 0 {
			rec.Elapsed = elapsed // else the copy's first poll: no observation
		}
		m.verified[id].Store(math.Float64bits(at))
		if rec.Changed {
			// Commit the new body/version pair to readers: one pointer
			// store for this object alone. A reader holding the previous
			// view finishes on it, internally consistent.
			m.views[id].Store(&copyView{body: body, version: ver})
			m.metrics.countTransfer()
		}
		if notModified {
			m.notModified++
			m.metrics.countNotModified()
		} else if cond != nil && ver == stored {
			// A 200 carrying the version already held: the origin
			// ignores the condition, and paying a transfer per poll
			// would silently double bandwidth. Revert to HEAD-then-GET
			// for good.
			m.condSrc = nil
			m.log.Warn("upstream ignores conditional fetches; reverting to HEAD-then-GET",
				"element", id, "version", ver)
		}
		if !probe && m.pl.exploreProbe(id) {
			// This element is funded only by the explore slice: the
			// refresh is an uncertainty probe, not an exploit poll.
			m.exploreProbes++
			m.metrics.countExploreProbe()
		}
	}
	changed := m.applyLocked(rec)
	if changed && err != nil {
		m.log.Info("element quarantined", "element", id, "at", at,
			"consecutive_failures", m.health[id].consecFails, "error", err)
	}
	journal := m.journalAdmitsLocked()
	m.mu.Unlock()
	if journal {
		m.appendJournal(rec)
	}
	return res, changed
}

// poll asks the upstream whether object id moved past the stored
// version, and fetches the body only when it did. Through cond, a
// ConditionalSource, that is one version-conditional GET: an unchanged
// object answers 304 with no body and a changed one arrives as a full
// 200. With cond nil, a HEAD reveals the version and a GET follows only
// on a change. Either way the poll is a change observation, and an
// unchanged object costs no body transfer.
func (m *Mirror) poll(id, stored int, cond ConditionalSource) (body []byte, ver int, notModified bool, err error) {
	ctx := context.Background()
	if cond != nil {
		body, ver, notModified, err = cond.FetchIfNewer(ctx, id, stored)
		if err != nil {
			return nil, 0, false, fmt.Errorf("httpmirror: polling %d: %w", id, err)
		}
		return body, ver, notModified, nil
	}
	if ver, err = m.cfg.Upstream.Version(ctx, id); err != nil {
		return nil, 0, false, fmt.Errorf("httpmirror: polling %d: %w", id, err)
	}
	if ver != stored {
		if body, ver, err = m.cfg.Upstream.Fetch(ctx, id); err != nil {
			return nil, 0, false, fmt.Errorf("httpmirror: refreshing %d: %w", id, err)
		}
	}
	return body, ver, false, nil
}

// applyLocked turns one refresh outcome into state, and is the only
// code that does: a live attempt calls it with the record it is about
// to journal, and recovery with each replayed record, so replay
// rebuilds what the live run built. It feeds the estimator and the
// refresh counters, the breaker, the object's fault state with its
// quarantine and recovery transitions, and the mode machine's signals.
// A record's version is not applied: the live attempt stores the view,
// and a recovered mirror's seed fetches every view afresh. It reports
// whether the quarantine set changed. It logs breaker trips and
// recoveries; attempt logs a quarantine, with the refresh error behind
// it, which a record does not carry. Callers hold m.mu (or are New).
func (m *Mirror) applyLocked(r persist.Record) bool {
	id, ok := r.Element, r.Kind == persist.KindRefresh
	if ok {
		m.fetches++
		if r.Changed {
			m.transfers++
		}
		if r.Elapsed > 0 {
			// Out of reach for a record attempt built or Validate passed;
			// the poll is then counted but not observed, on both paths.
			if err := m.est.Observe(id, r.Elapsed, r.Changed); err != nil {
				m.log.Warn("estimator refused a poll", "element", id, "elapsed", r.Elapsed, "error", err)
			} else {
				m.metrics.countPoll(r.Changed)
			}
		}
	} else {
		m.refreshFailures++
	}

	// Every journaled refresh passed allow when it ran, so the call is a
	// no-op live and repeats the open → half-open step on replay: a
	// failed half-open probe re-opens the breaker either way.
	m.brk.allow(r.At)
	trips := m.brk.trips
	m.brk.record(ok, r.At)
	if m.brk.trips > trips {
		m.metrics.countBreakerTrip()
		m.log.Warn("breaker opened", "at", r.At, "trips", m.brk.trips)
	}

	changed := false
	h := m.health[id]
	switch {
	case ok:
		// A success ends the failure run and the fault state with it.
		delete(m.health, id)
		if h.quarantined {
			m.quarantined--
			m.recoveries++
			m.metrics.countRecovery()
			m.log.Info("element recovered", "element", id, "at", r.At,
				"quarantined_for", r.At-h.quarantinedAt)
			changed = true
		}
	case h.quarantined:
		// Only probes refresh a quarantined object.
		h.consecFails++
		h.lastProbe = r.At
		m.health[id] = h
	default:
		h.consecFails++
		if q := m.cfg.Fault.QuarantineAfter; q > 0 && h.consecFails >= q {
			h.quarantined, h.quarantinedAt, h.lastProbe = true, r.At, r.At
			m.quarantined++
			m.quarantineEvents++
			m.metrics.countQuarantine()
			changed = true
		}
		m.health[id] = h
	}

	m.machine.SetBreakerOpen(m.brk.state != BreakerClosed)
	m.machine.SetQuarantineFrac(float64(m.quarantined) / float64(len(m.views)))
	if m.upHealth != nil {
		// In a hierarchical chain the upstream tier's own degradation
		// compounds into ours: serving from a source-degraded regional
		// mirror means serving stale, breaker state notwithstanding.
		m.machine.SetUpstreamDegraded(m.upHealth.UpstreamDegraded())
	}
	m.publishModeLocked()
	return changed
}

// quarantinedIDs lists the quarantined objects in ascending id order.
// It walks the fault state only while something is quarantined. The
// caller holds either lock (see Mirror).
func (m *Mirror) quarantinedIDs() []int {
	ids := make([]int, 0, m.quarantined)
	if m.quarantined > 0 {
		for id, h := range m.health {
			if h.quarantined {
				ids = append(ids, id)
			}
		}
		slices.Sort(ids)
	}
	return ids
}

// probeQuarantined attempts a recovery probe at now, in ascending id
// order, for each quarantined element whose probe cadence has elapsed,
// until the breaker refuses one. It reports whether any element
// recovered. The caller holds stepMu (see Mirror).
func (m *Mirror) probeQuarantined(now float64) bool {
	changed := false
	for _, id := range m.quarantinedIDs() {
		if now-m.health[id].lastProbe < m.cfg.Fault.ProbeEvery {
			continue
		}
		res, c := m.attempt(id, now, true)
		if res == skipped {
			break
		}
		changed = changed || c
	}
	return changed
}
