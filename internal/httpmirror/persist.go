package httpmirror

import (
	"fmt"
	"time"

	"freshen/internal/estimate"
	"freshen/internal/persist"
)

// applyRecovery folds the store's salvaged state into a freshly built
// mirror: the snapshot restores the estimator state, access counts,
// breaker/quarantine state, clock, and counters; each journal
// record written after that snapshot advances the clock to its time
// and goes through applyLocked, the commit live refreshes use. The
// first plan is solved on the result (see seedAndPlan). Called from
// New, before seeding, with no concurrency yet.
func (m *Mirror) applyRecovery(rec persist.RecoveryResult) {
	n := len(m.views)
	m.recoveryStatus = "cold-start"
	if rec.SnapshotErr != nil {
		m.recoveryStatus = fmt.Sprintf("cold-start (snapshot discarded: %v)", rec.SnapshotErr)
		m.log.Warn("persisted snapshot discarded; recovering from journal only", "error", rec.SnapshotErr)
	}
	if s := rec.Snapshot; s != nil {
		if len(s.Elements) != n {
			// The catalog changed shape under the state dir. Per-element
			// state can't be mapped safely, so none of it is loaded —
			// but loudly, via the readiness report, never silently.
			m.recoveryStatus = fmt.Sprintf("cold-start (state discarded: snapshot has %d elements, catalog has %d)", len(s.Elements), n)
			return
		}
		m.now = s.Now
		m.lastSnapshotAt = s.Now
		for i := range s.Elements {
			e := &s.Elements[i]
			m.acc.elems[i].Store(uint64(e.Accesses))
			if e.ConsecFails > 0 || e.Quarantined {
				m.health[i] = elemHealth{
					consecFails:   e.ConsecFails,
					quarantined:   e.Quarantined,
					quarantinedAt: e.QuarantinedAt,
					lastProbe:     e.LastProbe,
				}
			}
			if e.Quarantined {
				m.quarantined++
			}
		}
		// Status first, estimator second: restoreEstimatorLocked appends
		// its discard note to the status, and the note must survive.
		m.recoveryStatus = "recovered"
		m.restoreEstimatorLocked(s)
		m.brk.state = BreakerState(s.Breaker.State)
		m.brk.fails = s.Breaker.Fails
		m.brk.openedAt = s.Breaker.OpenedAt
		m.brk.trips = s.Breaker.Trips
		m.accessBase = s.Counters.Accesses
		m.fetches = s.Counters.Fetches
		m.transfers = s.Counters.Transfers
		m.pl.replans = s.Counters.Replans
		m.refreshFailures = s.Counters.RefreshFailures
		m.skippedRefreshes = s.Counters.SkippedRefreshes
		m.quarantineEvents = s.Counters.QuarantineEvents
		m.recoveries = s.Counters.Recoveries
	}
	for _, r := range rec.Records {
		if r.Element >= n {
			// A record beyond the catalog means the journal belongs to
			// a different world; stop replaying rather than guess.
			m.recoveryStatus = fmt.Sprintf("%s (journal replay stopped: record targets element %d of %d)", m.recoveryStatus, r.Element, n)
			break
		}
		m.now = max(m.now, r.At)
		m.applyLocked(r)
		m.replayed++
	}
	if rec.Snapshot == nil && m.replayed > 0 {
		m.recoveryStatus = "recovered (journal only)"
		if rec.SnapshotErr != nil {
			// Keep the discard reason visible: "journal only" on its own
			// reads like a pre-first-snapshot crash, not a rejected file.
			m.recoveryStatus = fmt.Sprintf("recovered (journal only; snapshot discarded: %v)", rec.SnapshotErr)
		}
	}
	m.recovered = rec.Snapshot != nil || m.replayed > 0
}

// restoreEstimatorLocked restores the online estimator in place from
// a recovered snapshot's per-element state, so convergence resumes
// exactly where the crash interrupted it, and seeds the estimator
// counters with the restored totals.
//
// Rejections are loud, like the catalog-mismatch path: Restore
// re-validates every λ̂ and Fisher-information field (NaN, negative,
// infinite — belt and braces on top of persist's snapshot Validate
// gate), and estimator state that fails it is discarded with a warning
// and a readiness-visible status note, never loaded; the estimator then
// starts from the prior and re-learns from the journal and live polls.
func (m *Mirror) restoreEstimatorLocked(s *persist.Snapshot) {
	polls, changes := 0, 0
	err := m.est.Restore(func(i int) estimate.ElementState {
		e := &s.Elements[i]
		polls += e.Polls
		changes += e.Changes
		return estimate.ElementState{
			Lambda:     e.EstLambda,
			Info:       e.EstInfo,
			Polls:      e.Polls,
			Changes:    e.Changes,
			SumElapsed: e.SumElapsed,
		}
	})
	if err != nil {
		m.recoveryStatus = fmt.Sprintf("%s (estimator state discarded: %v)", m.recoveryStatus, err)
		m.log.Warn("persisted estimator state discarded; re-learning from the prior", "error", err)
		return
	}
	m.metrics.seedPolls(polls, changes)
}

// exportState builds the durable image of the mirror's current state.
// The caller holds stepMu and not m.mu: m.mu is taken only to read the
// scalar state, and the per-element records are built off it under the
// two-lock rule (see Mirror).
func (m *Mirror) exportState() *persist.Snapshot {
	m.mu.Lock()
	m.lastSnapshot = m.now
	s := &persist.Snapshot{
		Version: persist.FormatVersion,
		Now:     m.now,
		Breaker: persist.BreakerSnap{
			State:    int(m.brk.state),
			Fails:    m.brk.fails,
			OpenedAt: m.brk.openedAt,
			Trips:    m.brk.trips,
		},
		Counters: persist.Counters{
			Accesses:         m.totalAccessesLocked(),
			Fetches:          m.fetches,
			Transfers:        m.transfers,
			Replans:          m.pl.replans,
			RefreshFailures:  m.refreshFailures,
			SkippedRefreshes: m.skippedRefreshes,
			QuarantineEvents: m.quarantineEvents,
			Recoveries:       m.recoveries,
		},
	}
	m.mu.Unlock()
	s.Elements = make([]persist.ElementState, len(m.pl.sizes))
	for i := range s.Elements {
		// An unpolled element's estimator state is zero (and costs the
		// snapshot nothing): it restores at the prior.
		ee := m.est.State(i)
		s.Elements[i] = persist.ElementState{
			Accesses:   int(m.acc.elems[i].Load()),
			EstLambda:  ee.Lambda,
			EstInfo:    ee.Info,
			Polls:      ee.Polls,
			Changes:    ee.Changes,
			SumElapsed: ee.SumElapsed,
		}
	}
	for id, h := range m.health {
		es := &s.Elements[id]
		es.ConsecFails, es.Quarantined, es.QuarantinedAt, es.LastProbe = h.consecFails, h.quarantined, h.quarantinedAt, h.lastProbe
	}
	return s
}

// commitSnapshot durably installs a snapshot built by exportState.
// Callers hold stepMu but not m.mu: the fsyncs in
// Commit must never block Access. Outcomes feed the mode machine — a
// failure grows the persist-degraded backoff, a success is the fsync
// proof that clears the mode.
func (m *Mirror) commitSnapshot(snap *persist.Snapshot) error {
	err := m.store.Commit(snap)
	m.mu.Lock()
	if err != nil {
		m.persistErrors++
		m.metrics.countPersistError()
		m.machine.PersistFailed(snap.Now)
		m.publishModeLocked()
		m.mu.Unlock()
		m.log.Warn("snapshot failed", "now", snap.Now, "error", err)
		return err
	}
	m.snapshots++
	m.lastSnapshotAt = snap.Now
	m.ready = true
	m.machine.PersistSucceeded()
	m.publishModeLocked()
	m.mu.Unlock()
	m.log.Debug("snapshot committed", "now", snap.Now, "elements", len(snap.Elements))
	return nil
}

// FlushSnapshot writes a snapshot of the current state immediately —
// the graceful-shutdown hook. It serializes against the refresh
// pipeline, so an in-flight Step completes before the state is
// captured. A mirror without persistence flushes trivially.
func (m *Mirror) FlushSnapshot() error {
	if m.store == nil {
		return nil
	}
	m.stepMu.Lock()
	defer m.stepMu.Unlock()
	return m.commitSnapshot(m.exportState())
}

// journalAdmitsLocked reports whether a record committed now goes to
// the journal. While persist-degraded, appends are withheld entirely —
// every one would eat an fsync timeout against a dead disk at refresh
// rate — and counted as skipped; the snapshot backoff probes own
// re-entry into full mode. Callers hold m.mu.
func (m *Mirror) journalAdmitsLocked() bool {
	if m.store == nil {
		return false
	}
	if !m.machine.JournalEnabled() {
		m.journalSkipped++
		return false
	}
	return true
}

// appendJournal journals one record journalAdmitsLocked admitted,
// counting (never propagating) the failure: a sick state disk costs
// durability of recent observations, not availability of the mirror.
// The per-record warn is rate-limited to one line per interval with a
// suppressed count. The caller holds stepMu and not m.mu.
func (m *Mirror) appendJournal(r persist.Record) {
	err := m.store.Append(r)
	m.mu.Lock()
	if err == nil {
		// A successful fsynced append is disk-health evidence too: it
		// resets the consecutive-failure run.
		m.machine.PersistSucceeded()
		m.publishModeLocked()
		m.mu.Unlock()
		return
	}
	m.persistErrors++
	m.metrics.countPersistError()
	m.machine.PersistFailed(r.At)
	m.publishModeLocked()
	m.mu.Unlock()
	if emit, suppressed := m.journalWarn.Allow(time.Now()); emit {
		m.log.Warn("journal append failed",
			"element", r.Element, "error", err, "suppressed_since_last", suppressed)
	}
}

// Readiness is the mirror's readiness report, served by /readyz. A
// mirror is ready once its learned state is durable or was recovered:
// with persistence enabled, that means after boot recovery or after
// the first snapshot lands; without it, immediately.
type Readiness struct {
	Ready              bool    `json:"ready"`
	PersistenceEnabled bool    `json:"persistence_enabled"`
	Recovered          bool    `json:"recovered"`
	RecoveryStatus     string  `json:"recovery_status"`
	JournalReplayed    int     `json:"journal_records_replayed"`
	Snapshots          int     `json:"snapshots"`
	LastSnapshotAge    float64 `json:"last_snapshot_age_periods"`
	PersistErrors      int     `json:"persist_errors"`
	BreakerState       string  `json:"breaker_state"`
	Quarantined        int     `json:"quarantined"`

	// Degradation: a degraded mirror stays ready — it serves — but
	// reports which envelope it is serving in and how far the persist
	// axis is from healthy.
	Mode                       string `json:"mode"`
	ConsecutivePersistFailures int    `json:"consecutive_persist_failures"`
}

// Readiness reports whether the mirror should receive traffic and the
// durability state behind that answer.
func (m *Mirror) Readiness() Readiness {
	m.mu.Lock()
	defer m.mu.Unlock()
	age := -1.0
	if m.lastSnapshotAt >= 0 {
		age = m.now - m.lastSnapshotAt
	}
	return Readiness{
		Ready:              m.ready,
		PersistenceEnabled: m.store != nil,
		Recovered:          m.recovered,
		RecoveryStatus:     m.recoveryStatus,
		JournalReplayed:    m.replayed,
		Snapshots:          m.snapshots,
		LastSnapshotAge:    age,
		PersistErrors:      m.persistErrors,
		BreakerState:       m.brk.state.String(),
		Quarantined:        m.quarantined,

		Mode:                       m.machine.Mode().String(),
		ConsecutivePersistFailures: m.machine.ConsecutivePersistFailures(),
	}
}
