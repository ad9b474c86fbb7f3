package httpmirror

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"freshen/internal/core"
	"freshen/internal/estimate"
	"freshen/internal/freshness"
	"freshen/internal/persist"
)

// newPersistMirror builds a mirror over src with persistence in dir.
// mod, when non-nil, adjusts the config before New.
func newPersistMirror(t *testing.T, url string, httpClient *http.Client, dir string, attempts int, snapshotEvery float64, mod func(*Config)) (*Mirror, *persist.Store) {
	t.Helper()
	store, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	client := NewSourceClient(url, httpClient)
	client.SetRetryPolicy(fastRetry(attempts))
	cfg := Config{
		Upstream:      client,
		Plan:          core.Config{Bandwidth: 16},
		ReplanEvery:   2,
		Persist:       store,
		SnapshotEvery: snapshotEvery,
		Seed:          5,
	}
	if mod != nil {
		mod(&cfg)
	}
	m, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, store
}

// TestMirrorSnapshotAndRecover round-trips a mirror through a flush
// and a restart: estimates, counters, and health state must all
// survive byte-exactly, and the recovered mirror's first plan must be
// bit for bit the plan the crashed mirror solves on the same knowledge.
func TestMirrorSnapshotAndRecover(t *testing.T) {
	f := newFaultySource(t, []float64{3, 1, 0.5, 2})
	dir := t.TempDir()
	m1, _ := newPersistMirror(t, f.srv.URL, f.srv.Client(), dir, 1, 1000, nil)

	// Accumulate observations, an access profile, and a quarantined
	// element (object 0 — funded by the plan, so it is actually
	// refreshed — breaks for long enough to trip quarantine).
	for step := 1; step <= 40; step++ {
		tm := 0.25 * float64(step)
		f.src.Advance(tm)
		if step == 20 {
			f.brokenID.Store(0)
		}
		if _, err := m1.Step(tm); err != nil {
			t.Fatal(err)
		}
		m1.Access(step % 3) // skewed profile: objects 0-2 only
	}
	if m1.Status().Quarantined != 1 {
		t.Fatalf("setup: quarantined = %d, want 1", m1.Status().Quarantined)
	}
	if err := m1.ForceReplan(); err != nil {
		t.Fatal(err)
	}
	if err := m1.FlushSnapshot(); err != nil {
		t.Fatal(err)
	}
	preEst, err := m1.estimatesSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	pre := m1.Status()

	// Heal the upstream before restart: New re-seeds bodies, and the
	// recovered quarantine state must come from the snapshot, not from
	// fresh failures.
	f.brokenID.Store(-1)
	m2, _ := newPersistMirror(t, f.srv.URL, f.srv.Client(), dir, 1, 1000, nil)
	rd := m2.Readiness()
	if !rd.Ready || !rd.Recovered || rd.RecoveryStatus != "recovered" {
		t.Fatalf("readiness after recovery = %+v", rd)
	}
	postEst, err := m2.estimatesSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := range preEst {
		if preEst[i] != postEst[i] {
			t.Errorf("element %d: recovered estimate %v != pre-crash %v", i, postEst[i], preEst[i])
		}
	}
	post := m2.Status()
	if post.Quarantined != pre.Quarantined || post.QuarantineEvents != pre.QuarantineEvents {
		t.Errorf("quarantine state lost: pre %d/%d, post %d/%d",
			pre.Quarantined, pre.QuarantineEvents, post.Quarantined, post.QuarantineEvents)
	}
	if post.Transfers != pre.Transfers || post.RefreshFailures != pre.RefreshFailures {
		t.Errorf("counters lost: pre transfers=%d failures=%d, post transfers=%d failures=%d",
			pre.Transfers, pre.RefreshFailures, post.Transfers, post.RefreshFailures)
	}
	if post.Accesses != pre.Accesses {
		t.Errorf("access log lost: pre %d, post %d", pre.Accesses, post.Accesses)
	}
	// The first plan is solved on the recovered knowledge, so it is the
	// plan the crashed mirror solved on the same knowledge.
	prePlan, postPlan := m1.Plan(), m2.Plan()
	prePlan.Elapsed, postPlan.Elapsed = 0, 0 // wall time of each solve
	if !reflect.DeepEqual(postPlan, prePlan) {
		t.Errorf("recovered plan %+v != pre-crash %+v", postPlan, prePlan)
	}
	// A recovered mirror keeps stepping from its restored clock.
	f.src.Advance(11)
	if _, err := m2.Step(11); err != nil {
		t.Fatal(err)
	}
}

// TestKillRestartRecovery is the kill-and-restart chaos test: a
// mirror runs under injected upstream faults, is hard-stopped
// mid-period (no flush, no close — the crash), and a second mirror
// recovers from the state directory. Recovered λ estimates must match
// the pre-crash estimator exactly (every observation was journaled
// before the refresh returned), and the recovered plan must be closer
// to the true-rate optimum than a cold start's — the "re-converges
// faster" guarantee, measured at the restart boundary.
func TestKillRestartRecovery(t *testing.T) {
	// Equal change rates: what the crashed mirror has learned — and
	// the cold start lacks — is the skewed access profile, which the
	// plan is built around. (Per-element λ learning has its own
	// plan-driven-sampling biases that would muddy the comparison.)
	trueLambdas := []float64{1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5}
	src, err := NewSimulatedSource(trueLambdas, nil, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic chaos: every 5th request fails while enabled.
	// Single-attempt clients see ~20% refresh failures; three-attempt
	// clients always recover (two consecutive counts can't both be
	// multiples of five).
	var calls atomic.Int64
	var faultsOn atomic.Bool
	inner := src.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if faultsOn.Load() && calls.Add(1)%5 == 0 {
			http.Error(w, "injected", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)

	// Tight bandwidth so the allocation genuinely matters, and health
	// machinery disabled so the warm-vs-cold plan comparison measures
	// estimation quality, not which elements happened to quarantine.
	chaosCfg := func(cfg *Config) {
		cfg.Plan = core.Config{Bandwidth: 6}
		cfg.Fault = FaultPolicy{QuarantineAfter: -1, BreakerThreshold: -1}
	}
	dir := t.TempDir()
	m1, _ := newPersistMirror(t, srv.URL, srv.Client(), dir, 1, 3, chaosCfg)
	faultsOn.Store(true)
	// Drive 20 periods under faults with a geometrically skewed access
	// pattern; snapshots land on the 3-period cadence, journal records
	// in between. accCount is the ground-truth profile the warm boot
	// should know and the cold boot cannot.
	var accCount [8]int
	access := func(m *Mirror, step int) {
		for id, every := range []int{1, 2, 4, 8, 16, 32} {
			if step%every == 0 {
				m.Access(id)
				accCount[id]++
			}
		}
	}
	for step := 1; step <= 80; step++ {
		tm := 0.25 * float64(step)
		src.Advance(tm)
		if _, err := m1.Step(tm); err != nil {
			t.Fatal(err)
		}
		access(m1, step)
	}
	// Hard stop mid-period at t=20.4: no FlushSnapshot, no Close.
	src.Advance(20.4)
	if _, err := m1.Step(20.4); err != nil {
		t.Fatal(err)
	}
	preEst, err := m1.estimatesSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	pre := m1.Status()
	if pre.RefreshFailures == 0 {
		t.Fatal("chaos injected no refresh failures; the test is not exercising the fault path")
	}
	if m1.Readiness().Snapshots == 0 {
		t.Fatal("no snapshot landed before the crash")
	}

	// What the restart finds on disk: New releases the store's copy
	// once it has applied it.
	probe, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := probe.Recovery()
	probe.Close()
	if rec.Snapshot == nil {
		t.Fatal("no snapshot recovered")
	}
	// Restart from disk — still under injected faults; the recovery
	// client retries so seeding survives them.
	m2, _ := newPersistMirror(t, srv.URL, srv.Client(), dir, 3, 3, chaosCfg)
	rd := m2.Readiness()
	if !rd.Ready || !rd.Recovered {
		t.Fatalf("recovered mirror not ready: %+v", rd)
	}
	if rd.JournalReplayed != len(rec.Records) {
		t.Errorf("replayed %d of %d journal records", rd.JournalReplayed, len(rec.Records))
	}

	// Every pre-crash observation was fsynced before the refresh
	// committed, so the recovered estimator is exact, not approximate.
	postEst, err := m2.estimatesSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	const tol = 1e-12
	for i := range preEst {
		if diff := math.Abs(postEst[i] - preEst[i]); diff > tol*math.Max(1, preEst[i]) {
			t.Errorf("element %d: recovered λ̂ %v differs from pre-crash %v by %v", i, postEst[i], preEst[i], diff)
		}
	}
	if got := m2.Status(); got.Fetches < pre.Fetches {
		t.Errorf("fetch counter went backwards: %d < %d", got.Fetches, pre.Fetches)
	}

	// Cold start for comparison: same source, no state dir.
	coldClient := NewSourceClient(srv.URL, srv.Client())
	coldClient.SetRetryPolicy(fastRetry(3))
	m3, err := New(context.Background(), Config{
		Upstream:    coldClient,
		Plan:        core.Config{Bandwidth: 6},
		ReplanEvery: 2,
		Seed:        5,
		Fault:       FaultPolicy{QuarantineAfter: -1, BreakerThreshold: -1},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Re-convergence: evaluate each boot plan under the TRUE workload
	// (real change rates, real access skew) and compare to the
	// true-workload optimum. The warm plan must be strictly closer —
	// it resumes the profile the crashed mirror spent 20 periods
	// learning, while the cold plan assumes a uniform one.
	n := len(trueLambdas)
	totalAcc := 0
	for _, c := range accCount {
		totalAcc += c
	}
	trueElems := make([]freshness.Element, n)
	for i, l := range trueLambdas {
		trueElems[i] = freshness.Element{ID: i, Lambda: l, AccessProb: float64(accCount[i]) / float64(totalAcc), Size: 1}
	}
	optPlan, err := core.MakePlan(trueElems, core.Config{Bandwidth: 6})
	if err != nil {
		t.Fatal(err)
	}
	pol := freshness.FixedOrder{}
	realized := func(m *Mirror) float64 {
		pf, err := freshness.Perceived(pol, trueElems, m.Plan().Freqs)
		if err != nil {
			t.Fatal(err)
		}
		return pf
	}
	warmGap := optPlan.Perceived - realized(m2)
	coldGap := optPlan.Perceived - realized(m3)
	if !(warmGap < coldGap) {
		t.Errorf("warm start no closer to optimum: warm gap %v, cold gap %v", warmGap, coldGap)
	}
	t.Logf("PF gap to true-rate optimum: warm %.5f vs cold %.5f (optimum %.5f)", warmGap, coldGap, optPlan.Perceived)
}

// TestRecoveryBootPlanFitsNewBudget: a mirror restarted at a lower
// budget than it ran at solves its first plan at the new budget, so its
// first period already refreshes within it.
func TestRecoveryBootPlanFitsNewBudget(t *testing.T) {
	f := newFaultySource(t, []float64{3, 1, 0.5, 2})
	dir := t.TempDir()
	m1, _ := newPersistMirror(t, f.srv.URL, f.srv.Client(), dir, 1, 1000, nil)
	for step := 1; step <= 12; step++ {
		tm := 0.25 * float64(step)
		f.src.Advance(tm)
		if _, err := m1.Step(tm); err != nil {
			t.Fatal(err)
		}
		m1.Access(step % 3)
	}
	if err := m1.FlushSnapshot(); err != nil {
		t.Fatal(err)
	}

	const budget = 4.0
	m2, _ := newPersistMirror(t, f.srv.URL, f.srv.Client(), dir, 1, 1000, func(c *Config) { c.Plan.Bandwidth = budget })
	if rd := m2.Readiness(); rd.RecoveryStatus != "recovered" {
		t.Fatalf("readiness after recovery = %+v", rd)
	}
	if used := m2.Plan().BandwidthUsed; used > budget*(1+1e-9) {
		t.Errorf("first plan uses bandwidth %v, budget %v", used, budget)
	}
	// An object with frequency f comes due at most ⌈f⌉ times in one
	// period, so a plan within the budget refreshes fewer than
	// budget + 4 objects in it.
	now := m2.Status().Now + 1
	f.src.Advance(now)
	n, err := m2.Step(now)
	if err != nil {
		t.Fatal(err)
	}
	if float64(n) >= budget+4 {
		t.Errorf("first period refreshed %d objects at budget %v", n, budget)
	}
}

// TestRecoveryBootPlanDropsReplayedQuarantine: an object that journal
// replay quarantines gets no refreshes in the recovered mirror's first
// plan, as a live quarantine gets none in the plan solved after it.
func TestRecoveryBootPlanDropsReplayedQuarantine(t *testing.T) {
	f := newFaultySource(t, []float64{3, 1, 0.5, 2})
	dir := t.TempDir()
	m1, _ := newPersistMirror(t, f.srv.URL, f.srv.Client(), dir, 1, 1000, nil)
	now := 0.0
	step := func() {
		t.Helper()
		now += 0.25
		f.src.Advance(now)
		if _, err := m1.Step(now); err != nil {
			t.Fatal(err)
		}
	}
	for range 8 {
		step()
	}
	if err := m1.FlushSnapshot(); err != nil {
		t.Fatal(err)
	}
	if m1.Plan().Freqs[0] == 0 {
		t.Fatal("setup: object 0 is not funded when the snapshot lands")
	}
	// Object 0 fails until quarantined. No snapshot follows, so the
	// quarantine lives only in the journal.
	f.brokenID.Store(0)
	for m1.Status().Quarantined == 0 && now < 10 {
		step()
	}
	f.brokenID.Store(-1)

	m2, _ := newPersistMirror(t, f.srv.URL, f.srv.Client(), dir, 1, 1000, nil)
	if rd := m2.Readiness(); rd.RecoveryStatus != "recovered" || rd.JournalReplayed == 0 {
		t.Fatalf("readiness after recovery = %+v", rd)
	}
	q := m2.Health().Quarantined
	if !slices.Equal(q, []int{0}) {
		t.Fatalf("replay quarantined %v, want [0]", q)
	}
	plan := m2.Plan()
	for _, id := range q {
		if plan.Freqs[id] != 0 {
			t.Errorf("quarantined object %d has frequency %v in the boot plan", id, plan.Freqs[id])
		}
	}
}

// TestRecoveryBootPlanExplores: a recovered mirror that explores funds
// the explore slice, and marks the probes, that a fresh solve on the
// same knowledge does.
func TestRecoveryBootPlanExplores(t *testing.T) {
	f := newFaultySource(t, []float64{3, 1, 0.5, 2, 1, 0.25, 4, 1.5})
	dir := t.TempDir()
	explore := func(c *Config) {
		c.Plan.Bandwidth = 2
		c.ExploreFrac = 0.3
	}
	m1, _ := newPersistMirror(t, f.srv.URL, f.srv.Client(), dir, 1, 1000, explore)
	for step := 1; step <= 12; step++ {
		tm := 0.25 * float64(step)
		f.src.Advance(tm)
		if _, err := m1.Step(tm); err != nil {
			t.Fatal(err)
		}
		m1.Access(step % 2)
	}
	if err := m1.ForceReplan(); err != nil {
		t.Fatal(err)
	}
	if err := m1.FlushSnapshot(); err != nil {
		t.Fatal(err)
	}
	want, probes := m1.Status().ExploreBandwidth, exploreMarks(m1)
	if want <= 0 || !slices.Contains(probes, true) {
		t.Fatalf("setup: explore bandwidth %v, probes %v", want, probes)
	}

	m2, _ := newPersistMirror(t, f.srv.URL, f.srv.Client(), dir, 1, 1000, explore)
	if got := m2.Status().ExploreBandwidth; got != want {
		t.Errorf("recovered explore bandwidth %v, a solve on the same knowledge %v", got, want)
	}
	if got := exploreMarks(m2); !slices.Equal(got, probes) {
		t.Errorf("recovered probes %v, a solve on the same knowledge %v", got, probes)
	}
}

// exploreMarks reads, for every object, whether the live plan funds it
// only through the explore slice, from its refresh iterator.
func exploreMarks(m *Mirror) []bool {
	marks := make([]bool, len(m.views))
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pl.iter.Each(func(id int, _ float64, explore bool) { marks[id] = explore })
	return marks
}

// TestReadyzLifecycle pins the readiness contract: a cold persistent
// mirror answers 503 until its first snapshot lands, then 200; a
// mirror without persistence is ready immediately.
func TestReadyzLifecycle(t *testing.T) {
	f := newFaultySource(t, []float64{1, 1})
	dir := t.TempDir()
	m, _ := newPersistMirror(t, f.srv.URL, f.srv.Client(), dir, 1, 2, nil)
	srv := httptest.NewServer(m.Handler())
	t.Cleanup(srv.Close)

	get := func() (int, Readiness) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rd Readiness
		if err := json.NewDecoder(resp.Body).Decode(&rd); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, rd
	}

	code, rd := get()
	if code != http.StatusServiceUnavailable || rd.Ready {
		t.Fatalf("cold persistent mirror: /readyz = %d ready=%v, want 503 before the first snapshot", code, rd.Ready)
	}
	if !rd.PersistenceEnabled || rd.RecoveryStatus != "cold-start" {
		t.Errorf("readiness body = %+v", rd)
	}
	if rd.LastSnapshotAge != -1 {
		t.Errorf("last snapshot age %v before any snapshot, want -1", rd.LastSnapshotAge)
	}

	// Cross the snapshot cadence: ready flips to 200.
	f.src.Advance(2.5)
	if _, err := m.Step(2.5); err != nil {
		t.Fatal(err)
	}
	code, rd = get()
	if code != http.StatusOK || !rd.Ready || rd.Snapshots == 0 {
		t.Fatalf("after first snapshot: /readyz = %d %+v", code, rd)
	}
	if rd.LastSnapshotAge < 0 {
		t.Errorf("last snapshot age %v after a snapshot", rd.LastSnapshotAge)
	}
	if rd.BreakerState != "closed" || rd.Quarantined != 0 {
		t.Errorf("fault state in readiness = %+v", rd)
	}

	// Method contract matches the other endpoints.
	resp, err := http.Post(srv.URL+"/readyz", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /readyz = %d, want 405", resp.StatusCode)
	}

	// A mirror without persistence is born ready.
	client := NewSourceClient(f.srv.URL, f.srv.Client())
	client.SetRetryPolicy(fastRetry(1))
	plain, err := New(context.Background(), Config{Upstream: client, Plan: core.Config{Bandwidth: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if rd := plain.Readiness(); !rd.Ready || rd.PersistenceEnabled || rd.RecoveryStatus != "disabled" {
		t.Errorf("persistence-free readiness = %+v", rd)
	}
}

// TestRecoveryDiscardsMismatchedCatalog points a state dir from a
// 4-object catalog at a 2-object source: the state must be discarded
// loudly (cold start, reason in the readiness report), never mapped
// onto the wrong objects.
func TestRecoveryDiscardsMismatchedCatalog(t *testing.T) {
	dir := t.TempDir()
	f4 := newFaultySource(t, []float64{1, 1, 1, 1})
	m1, _ := newPersistMirror(t, f4.srv.URL, f4.srv.Client(), dir, 1, 1000, nil)
	f4.src.Advance(3)
	if _, err := m1.Step(3); err != nil {
		t.Fatal(err)
	}
	if err := m1.FlushSnapshot(); err != nil {
		t.Fatal(err)
	}

	f2 := newFaultySource(t, []float64{1, 1})
	m2, _ := newPersistMirror(t, f2.srv.URL, f2.srv.Client(), dir, 1, 1000, nil)
	rd := m2.Readiness()
	if rd.Recovered {
		t.Fatal("mismatched snapshot recovered")
	}
	if rd.Ready {
		t.Error("mirror ready without durable state")
	}
	if rd.RecoveryStatus == "cold-start" || rd.RecoveryStatus == "recovered" {
		t.Errorf("discard not reported: %q", rd.RecoveryStatus)
	}
	if got, err := m2.estimatesSnapshot(); err != nil || len(got) != 2 {
		t.Fatalf("estimates after discard: %v, %v", got, err)
	}
}

// rewriteSnapshot decodes the snapshot in dir, lets the caller mutate
// it, and writes it back with a freshly computed CRC — framing intact,
// payload poisoned.
func rewriteSnapshot(t *testing.T, dir string, mutate func(*persist.Snapshot)) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, persist.SnapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := persist.DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	mutate(snap)
	payload, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	writeSnapshotPayload(t, dir, payload)
}

// writeSnapshotPayload installs a raw payload as the snapshot in dir.
// EncodeSnapshot validates, so the frame is built by hand (magic
// "FRSNAP01", little-endian length + CRC-32C); this is the on-disk
// layout the format doc pins.
func writeSnapshotPayload(t *testing.T, dir string, payload []byte) {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString("FRSNAP01")
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	buf.Write(hdr[:])
	buf.Write(payload)
	if err := os.WriteFile(filepath.Join(dir, persist.SnapshotFile), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryDiscardsPoisonedEstimatorValues plants impossible values
// in an element's persisted estimator state — CRC valid, payload
// poisoned. The snapshot Validate gate must refuse the whole file, and
// the mirror must come up on the journal alone with the discard reason
// in its readiness report, not silently load a negative change rate.
func TestRecoveryDiscardsPoisonedEstimatorValues(t *testing.T) {
	f := newFaultySource(t, []float64{3, 1, 0.5, 2})
	dir := t.TempDir()
	m1, store := newPersistMirror(t, f.srv.URL, f.srv.Client(), dir, 1, 1000, nil)
	for step := 1; step <= 20; step++ {
		tm := 0.25 * float64(step)
		f.src.Advance(tm)
		if _, err := m1.Step(tm); err != nil {
			t.Fatal(err)
		}
	}
	if err := m1.FlushSnapshot(); err != nil {
		t.Fatal(err)
	}
	// A few more steps past the snapshot so the (reset) journal holds
	// records for the fallback to replay, then crash.
	for step := 21; step <= 28; step++ {
		tm := 0.25 * float64(step)
		f.src.Advance(tm)
		if _, err := m1.Step(tm); err != nil {
			t.Fatal(err)
		}
	}
	store.Close()

	rewriteSnapshot(t, dir, func(s *persist.Snapshot) {
		if s.Elements[0].Polls == 0 {
			t.Fatal("setup: snapshot carries no estimator state for element 0")
		}
		s.Elements[0].EstLambda = -1
	})

	m2, _ := newPersistMirror(t, f.srv.URL, f.srv.Client(), dir, 1, 1000, nil)
	rd := m2.Readiness()
	if !rd.Recovered || rd.JournalReplayed == 0 {
		t.Fatalf("journal-only recovery did not happen: %+v", rd)
	}
	if !strings.Contains(rd.RecoveryStatus, "snapshot discarded") ||
		!strings.Contains(rd.RecoveryStatus, "estimator element 0") {
		t.Errorf("discard reason not surfaced: %q", rd.RecoveryStatus)
	}
	// Nothing of the poisoned state leaked into the live estimator.
	est, err := m2.estimatesSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range est {
		if !(v >= 0) || math.IsInf(v, 0) {
			t.Errorf("element %d: estimate %v after discard", i, v)
		}
	}
	f.src.Advance(8)
	if _, err := m2.Step(8); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryJournalOnly crashes before any snapshot: the journal
// alone must restore the estimator.
func TestRecoveryJournalOnly(t *testing.T) {
	f := newFaultySource(t, []float64{2, 0.5})
	dir := t.TempDir()
	m1, _ := newPersistMirror(t, f.srv.URL, f.srv.Client(), dir, 1, 1000, nil)
	for step := 1; step <= 12; step++ {
		tm := 0.5 * float64(step)
		f.src.Advance(tm)
		if _, err := m1.Step(tm); err != nil {
			t.Fatal(err)
		}
	}
	preEst, err := m1.estimatesSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Crash: no flush.
	m2, _ := newPersistMirror(t, f.srv.URL, f.srv.Client(), dir, 1, 1000, nil)
	rd := m2.Readiness()
	if !rd.Recovered || rd.RecoveryStatus != "recovered (journal only)" || rd.JournalReplayed == 0 {
		t.Fatalf("journal-only readiness = %+v", rd)
	}
	postEst, err := m2.estimatesSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := range preEst {
		if preEst[i] != postEst[i] {
			t.Errorf("element %d: %v != %v", i, postEst[i], preEst[i])
		}
	}
}

// TestRecoveryRefusesFormatV1Snapshot is the loud migration from the
// version-1 format, which carried every element's full poll history: a
// mirror booting on such a state dir refuses the snapshot through the
// version gate, says so in /readyz, and recovers from the journal
// alone.
func TestRecoveryRefusesFormatV1Snapshot(t *testing.T) {
	f := newFaultySource(t, []float64{3, 1, 0.5, 2})
	dir := t.TempDir()
	m1, store := newPersistMirror(t, f.srv.URL, f.srv.Client(), dir, 1, 1000, nil)
	for step := 1; step <= 20; step++ {
		tm := 0.25 * float64(step)
		f.src.Advance(tm)
		if _, err := m1.Step(tm); err != nil {
			t.Fatal(err)
		}
		if step == 12 {
			if err := m1.FlushSnapshot(); err != nil {
				t.Fatal(err)
			}
		}
	}
	store.Close()

	// Replace the snapshot with the version-1 image of the same state:
	// no estimator fields, a "history" array per element.
	data, err := os.ReadFile(filepath.Join(dir, persist.SnapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := persist.DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	type pollV1 struct {
		Elapsed float64 `json:"elapsed"`
		Changed bool    `json:"changed"`
	}
	type elementV1 struct {
		persist.ElementState
		History []pollV1 `json:"history"`
	}
	elems := make([]elementV1, len(snap.Elements))
	for i, e := range snap.Elements {
		hist := make([]pollV1, e.Polls)
		for j := range hist {
			hist[j] = pollV1{Elapsed: e.SumElapsed / float64(e.Polls), Changed: j < e.Changes}
		}
		e.EstLambda, e.EstInfo, e.Polls, e.Changes, e.SumElapsed = 0, 0, 0, 0, 0
		elems[i] = elementV1{ElementState: e, History: hist}
	}
	payload, err := json.Marshal(struct {
		*persist.Snapshot
		Version  int         `json:"format_version"`
		Elements []elementV1 `json:"elements"`
	}{Snapshot: snap, Version: 1, Elements: elems})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(payload, []byte(`"format_version":1,`)) || !bytes.Contains(payload, []byte(`"history":[{`)) {
		t.Fatalf("setup: not a version-1 payload: %s", payload)
	}
	writeSnapshotPayload(t, dir, payload)

	m2, _ := newPersistMirror(t, f.srv.URL, f.srv.Client(), dir, 1, 1000, nil)
	rec := httptest.NewRecorder()
	m2.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	var rd Readiness
	if err := json.NewDecoder(rec.Body).Decode(&rd); err != nil {
		t.Fatal(err)
	}
	if !rd.Recovered || rd.JournalReplayed == 0 {
		t.Fatalf("journal-only recovery did not happen: %+v", rd)
	}
	if !strings.Contains(rd.RecoveryStatus, "journal only") ||
		!strings.Contains(rd.RecoveryStatus, "unsupported snapshot version 1") {
		t.Errorf("/readyz recovery_status does not name the refused format: %q", rd.RecoveryStatus)
	}
	// Only the journaled polls made it into the estimator: none of the
	// version-1 histories were loaded.
	polls, prePolls := 0, 0
	for i := range snap.Elements {
		polls += m2.est.Estimate(i).Polls
		prePolls += m1.est.Estimate(i).Polls
	}
	if polls == 0 || polls >= prePolls {
		t.Errorf("recovered estimator holds %d of the crashed mirror's %d polls; want only the journal's", polls, prePolls)
	}
	f.src.Advance(8)
	if _, err := m2.Step(8); err != nil {
		t.Fatal(err)
	}
}

// parentFormat2Payload is a format-2 snapshot payload as mirrors wrote
// it while every element still carried its id, size, stored version,
// last poll time, fetch time and fetch count: four objects, two of them
// polled, one failing below the quarantine threshold and one
// quarantined.
const parentFormat2Payload = `{"format_version":2,"last_seq":0,"now_periods":6,` +
	`"plan":{"freqs":[2,1,0,1],"perceived":0.5,"avg_freshness":0.4,"bandwidth_used":4},` +
	`"breaker":{"state":0,"fails":1,"opened_at":0,"trips":0},"elements":[` +
	`{"id":0,"lambda":1.5,"access_prob":0.6,"size":1,"stored_version":3,"fetched_at":5.5,"last_poll":5.75,"fetches":9,"accesses":30,` +
	`"est_lambda":1.5,"est_info":4,"polls":8,"changes":5,"sum_elapsed":4},` +
	`{"id":1,"lambda":0.5,"access_prob":0.2,"size":1,"stored_version":1,"fetched_at":2,"last_poll":5.5,"fetches":5,"accesses":10,` +
	`"consec_fails":1,"est_lambda":0.5,"est_info":6,"polls":4,"changes":1,"sum_elapsed":3},` +
	`{"id":2,"lambda":1,"access_prob":0.1,"size":1,"stored_version":0,"fetched_at":0,"last_poll":4,"fetches":3,"accesses":4,` +
	`"quarantined":true,"quarantined_at":4.5,"last_probe":5.5,"consec_fails":4},` +
	`{"id":3,"lambda":1,"access_prob":0.1,"size":1,"stored_version":2,"fetched_at":3,"last_poll":5,"fetches":4,"accesses":5}],` +
	`"counters":{"accesses":49,"fetches":21,"transfers":8,"replans":2,"refresh_failures":5,"skipped_refreshes":0,"quarantine_events":1,"recoveries":0}}`

// TestRecoveryReadsParentFormat2Snapshot: a format-2 snapshot whose
// elements carry the retired id, size, stored_version, last_poll,
// fetched_at and fetches keys still recovers. The per-object access
// counts, the estimator's state and the fault state come back as
// written, and the next snapshot writes them back without the retired
// keys.
func TestRecoveryReadsParentFormat2Snapshot(t *testing.T) {
	dir := t.TempDir()
	writeSnapshotPayload(t, dir, []byte(parentFormat2Payload))
	store, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	cfg := seedConfig(newSimSource(t, 4))
	cfg.Persist = store
	m, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rd := m.Readiness(); !rd.Recovered || rd.RecoveryStatus != "recovered" {
		t.Fatalf("readiness after recovery = %+v", rd)
	}

	accesses := []int{30, 10, 4, 5}
	for i, want := range accesses {
		if got := m.acc.elems[i].Load(); got != uint64(want) {
			t.Errorf("object %d: %d accesses, want %d", i, got, want)
		}
	}
	if st := m.Status(); st.Accesses != 49 || st.Quarantined != 1 {
		t.Errorf("Status: %d accesses and %d quarantined, want 49 and 1", st.Accesses, st.Quarantined)
	}
	est := estimatorState(m)
	for i, want := range []estimate.ElementState{
		{Lambda: 1.5, Info: 4, Polls: 8, Changes: 5, SumElapsed: 4},
		{Lambda: 0.5, Info: 6, Polls: 4, Changes: 1, SumElapsed: 3},
	} {
		if est[i] != want {
			t.Errorf("object %d: estimator state %+v, want %+v", i, est[i], want)
		}
	}
	if est[2].Polls != 0 || est[3].Polls != 0 {
		t.Errorf("unpolled objects restored with polls: %+v, %+v", est[2], est[3])
	}
	wantFaults := map[int]elemHealth{
		1: {consecFails: 1},
		2: {consecFails: 4, quarantined: true, quarantinedAt: 4.5, lastProbe: 5.5},
	}
	m.mu.Lock()
	faults := maps.Clone(m.health)
	m.mu.Unlock()
	if !maps.Equal(faults, wantFaults) {
		t.Errorf("fault state %v, want %v", faults, wantFaults)
	}
	if h := m.Health(); !slices.Equal(h.Quarantined, []int{2}) {
		t.Errorf("Health().Quarantined = %v, want [2]", h.Quarantined)
	}

	snap := m.exportState()
	for i, e := range snap.Elements {
		h := wantFaults[i]
		if e.Accesses != accesses[i] || e.ConsecFails != h.consecFails || e.Quarantined != h.quarantined ||
			e.QuarantinedAt != h.quarantinedAt || e.LastProbe != h.lastProbe {
			t.Errorf("object %d exported as %+v", i, e)
		}
	}
	data, err := persist.EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"id"`, `"size"`, `"stored_version"`, `"last_poll"`, `"fetched_at"`} {
		if bytes.Contains(data, []byte(key)) {
			t.Errorf("the next snapshot still writes %s", key)
		}
	}
}

// slimFormat2Payload is a format-2 snapshot payload as this mirror
// writes it: six objects, three of them polled, one read but never
// polled, one failing below the quarantine threshold, and one never
// read, polled or failed. It carries no plan, and no element carries a
// change rate or an access probability: all three are derived from the
// estimator's state and the access counts.
const slimFormat2Payload = `{"format_version":2,"last_seq":0,"now_periods":2,` +
	`"breaker":{"state":0,"fails":0,"opened_at":0,"trips":0},"elements":[` +
	`{"accesses":9,"est_lambda":0.605636096007426,"est_info":0.6408259839977349,"polls":1,"changes":1,"sum_elapsed":1.813980863938861},` +
	`{"accesses":1},{"consec_fails":1},` +
	`{"accesses":1,"est_lambda":0.8366283454876225,"est_info":0.6344538596566484,"polls":1,"changes":1,"sum_elapsed":1.3131425615609422},` +
	`{"est_lambda":0.862392272817216,"est_info":0.6302802891549465,"polls":1,"changes":1,"sum_elapsed":1.2739124912137987},{}],` +
	`"counters":{"accesses":11,"fetches":3,"transfers":3,"replans":1,"refresh_failures":1,"skipped_refreshes":0,"quarantine_events":0,"recoveries":0}}`

// TestSnapshotElementsSlim: an element nothing has read, polled or
// failed costs a snapshot 3 bytes ("{},"), and the snapshot stores no
// plan. A mirror that still stored the plan decodes its absence as zero
// frequencies and refuses the snapshot at its "plan has 0 frequencies"
// rule, so a rollback recovers from the journal alone. The literal is
// exactly what the encoder writes, and it recovers: counts, estimator
// and fault state as written, and the solver's input derived from
// them.
func TestSnapshotElementsSlim(t *testing.T) {
	size := func(n int) int {
		data, err := json.Marshal(make([]persist.ElementState, n))
		if err != nil {
			t.Fatal(err)
		}
		return len(data)
	}
	if cost := size(1001) - size(1000); cost > 3 {
		t.Errorf("an untouched element costs %d bytes, want at most 3", cost)
	}

	var snap persist.Snapshot
	if err := json.Unmarshal([]byte(slimFormat2Payload), &snap); err != nil {
		t.Fatal(err)
	}
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
	if again, err := json.Marshal(&snap); err != nil || string(again) != slimFormat2Payload {
		t.Fatalf("the encoder writes\n%s\nnot the literal (%v)", again, err)
	}
	var older struct {
		Plan struct {
			Freqs []float64 `json:"freqs"`
		} `json:"plan"`
		Elements []json.RawMessage `json:"elements"`
	}
	if err := json.Unmarshal([]byte(slimFormat2Payload), &older); err != nil {
		t.Fatal(err)
	}
	if len(older.Plan.Freqs) != 0 || len(older.Elements) != 6 {
		t.Errorf("a reader of the plan sees %d frequencies for %d elements, want 0 for 6", len(older.Plan.Freqs), len(older.Elements))
	}

	dir := t.TempDir()
	writeSnapshotPayload(t, dir, []byte(slimFormat2Payload))
	store, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	cfg := seedConfig(newSimSource(t, 6))
	cfg.Persist = store
	m, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rd := m.Readiness(); rd.RecoveryStatus != "recovered" {
		t.Fatalf("readiness after recovery = %+v", rd)
	}
	elems := m.Elements()
	for i, c := range []float64{9, 1, 0, 1, 0, 0} {
		if want := (c + 1) / (11 + 6); elems[i].AccessProb != want {
			t.Errorf("object %d: access probability %v, want %v", i, elems[i].AccessProb, want)
		}
	}
	for i, want := range []float64{0.605636096007426, 1, 1, 0.8366283454876225, 0.862392272817216, 1} {
		if elems[i].Lambda != want {
			t.Errorf("object %d: change rate %v, want %v", i, elems[i].Lambda, want)
		}
	}
	if exported := m.exportState(); !reflect.DeepEqual(exported.Elements, snap.Elements) {
		t.Errorf("exported elements %+v, recovered from %+v", exported.Elements, snap.Elements)
	}
}

// replayed is the state journal replay must rebuild exactly: the
// breaker, the fault map, the counters the journal carries, and the
// estimator. SkippedRefreshes and NotModified are left out: skips and
// 304s are not journaled, so replay cannot restore them.
type replayed struct {
	breaker   breaker
	faults    map[int]elemHealth
	counters  replayedCounters
	estimator []estimate.ElementState
}

type replayedCounters struct {
	Fetches, Transfers, RefreshFailures, QuarantineEvents, Recoveries, BreakerTrips int
}

func replayedState(m *Mirror) replayed {
	st := m.Status()
	m.mu.Lock()
	defer m.mu.Unlock()
	return replayed{
		breaker: m.brk,
		faults:  maps.Clone(m.health),
		counters: replayedCounters{st.Fetches, st.Transfers, st.RefreshFailures,
			st.QuarantineEvents, st.Recoveries, st.BreakerTrips},
		estimator: estimatorState(m),
	}
}

// checkReplayed fails t where a recovered mirror's state differs from
// the live one's.
func checkReplayed(t *testing.T, got, live replayed) {
	t.Helper()
	if got.breaker != live.breaker {
		t.Errorf("breaker %+v, live %+v", got.breaker, live.breaker)
	}
	if !maps.Equal(got.faults, live.faults) {
		t.Errorf("fault state %+v, live %+v", got.faults, live.faults)
	}
	if got.counters != live.counters {
		t.Errorf("counters %+v, live %+v", got.counters, live.counters)
	}
	if !reflect.DeepEqual(got.estimator, live.estimator) {
		t.Errorf("estimator state %+v, live %+v", got.estimator, live.estimator)
	}
}

// TestRecoveryReplayMatchesLive: a mirror recovered from a snapshot and
// the journal after it holds the state the live mirror built. After
// the snapshot a broken object's probes fail, and then a full outage
// fails the breaker's half-open probes, so replay must re-open the
// breaker at each failed probe and move the object's last probe time,
// as the live run did.
func TestRecoveryReplayMatchesLive(t *testing.T) {
	f := newFaultySource(t, []float64{3, 1, 0.5, 2, 1, 0.25, 4, 1.5})
	dir := t.TempDir()
	fault := func(c *Config) {
		c.Fault = FaultPolicy{BreakerThreshold: 3, BreakerCooldown: 1, QuarantineAfter: 2, ProbeEvery: 1}
	}
	m1, _ := newPersistMirror(t, f.srv.URL, f.srv.Client(), dir, 1, 1000, fault)
	now := 0.0
	steps := func(k int) {
		t.Helper()
		for range k {
			now += 0.25
			f.src.Advance(now)
			if _, err := m1.Step(now); err != nil {
				t.Fatal(err)
			}
		}
	}
	steps(8)
	f.brokenID.Store(0)
	steps(12)
	if err := m1.FlushSnapshot(); err != nil {
		t.Fatal(err)
	}
	atSnapshot := replayedState(m1)
	steps(8)
	f.down.Store(true)
	steps(16)
	f.down.Store(false)
	f.brokenID.Store(-1)

	live := replayedState(m1)
	if live.breaker.trips <= atSnapshot.breaker.trips || live.faults[0].lastProbe <= atSnapshot.faults[0].lastProbe {
		t.Fatalf("setup: no breaker trip or probe of object 0 after the snapshot (trips %d → %d, last probe %v → %v)",
			atSnapshot.breaker.trips, live.breaker.trips, atSnapshot.faults[0].lastProbe, live.faults[0].lastProbe)
	}
	m2, _ := newPersistMirror(t, f.srv.URL, f.srv.Client(), dir, 1, 1000, fault)
	if rd := m2.Readiness(); rd.RecoveryStatus != "recovered" || rd.JournalReplayed == 0 {
		t.Fatalf("readiness after recovery = %+v", rd)
	}
	checkReplayed(t, replayedState(m2), live)
}

// estimatorState reads every element's estimator state. The caller
// holds either lock or owns m.
func estimatorState(m *Mirror) []estimate.ElementState {
	st := make([]estimate.ElementState, m.est.Elements())
	for i := range st {
		st[i] = m.est.State(i)
	}
	return st
}

// estimatesSnapshot returns the estimator's current per-element
// estimates: the estimator state that persistence must preserve.
func (m *Mirror) estimatesSnapshot() ([]float64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.est.Estimates(m.cfg.PriorLambda)
}
