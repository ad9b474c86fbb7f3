package httpmirror

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"freshen/internal/core"
	"freshen/internal/persist"
	"freshen/internal/resilience"
	"freshen/internal/stats"
)

// newChaosMirror builds a persistent mirror over src whose store is
// wrapped in a FaultStore the test breaks and heals.
func newChaosMirror(t *testing.T, f *faultySource, dir string, plan persist.FaultPlan, snapshotEvery float64) (*Mirror, *persist.FaultStore) {
	t.Helper()
	inner, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { inner.Close() })
	fs := persist.NewFaultStore(inner, plan)
	client := NewSourceClient(f.srv.URL, f.srv.Client())
	client.SetRetryPolicy(fastRetry(1))
	m, err := New(context.Background(), Config{
		Upstream:      client,
		Plan:          core.Config{Bandwidth: 16},
		ReplanEvery:   1000,
		Persist:       fs,
		SnapshotEvery: snapshotEvery,
		Seed:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, fs
}

// checkRetryAfter asserts a 503's Retry-After is one of the jittered
// hints in [RetryAfterSeconds, RetryAfterSeconds+RetryAfterSpread).
func checkRetryAfter(t *testing.T, h http.Header, context string) {
	t.Helper()
	got := h.Get("Retry-After")
	n, err := strconv.Atoi(got)
	if err != nil || n < resilience.RetryAfterSeconds || n >= resilience.RetryAfterSeconds+resilience.RetryAfterSpread {
		t.Errorf("%s: Retry-After = %q, want integer in [%d, %d)", context, got,
			resilience.RetryAfterSeconds, resilience.RetryAfterSeconds+resilience.RetryAfterSpread)
	}
}

// TestOverloadShedding saturates the admission limiter and checks the
// contract: object reads past the limit get an immediate 503 with
// Retry-After, while health, readiness, and status are never shed;
// freed capacity admits again.
func TestOverloadShedding(t *testing.T) {
	f := newFaultySource(t, []float64{1, 1})
	client := NewSourceClient(f.srv.URL, f.srv.Client())
	client.SetRetryPolicy(fastRetry(1))
	m, err := New(context.Background(), Config{
		Upstream: client,
		Plan:     core.Config{Bandwidth: 4},
		Overload: resilience.LimiterConfig{MaxInflight: 2},
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	// Occupy both slots as if two reads were stuck in flight.
	for i := 0; i < 2; i++ {
		if !m.limiter.Acquire() {
			t.Fatalf("slot %d shed below the limit", i)
		}
	}
	resp, err := http.Get(srv.URL + "/object/0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated object read: status %d, want 503", resp.StatusCode)
	}
	checkRetryAfter(t, resp.Header, "shed object read")
	// Ops routes are priority traffic: never shed.
	for _, path := range []string{"/healthz", "/readyz", "/status"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s under overload: status %d, want 200", path, resp.StatusCode)
		}
	}
	st := m.Status()
	if st.Shed == 0 {
		t.Error("Status.Shed = 0 after a shed request")
	}
	if st.InflightLimit != 2 || st.Inflight != 2 {
		t.Errorf("Status inflight %d/%d, want 2/2", st.Inflight, st.InflightLimit)
	}

	// Capacity freed: the next read is admitted.
	m.limiter.Release(0)
	m.limiter.Release(0)
	resp, err = http.Get(srv.URL + "/object/0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("object read after release: status %d, want 200", resp.StatusCode)
	}
}

// TestCanceledRequestReleasesSlot pins the disconnect contract on
// /object: a client that goes away while its read is stalled in the
// chaos latency window gives its admission slot back immediately and
// is counted as canceled — the slot is not held for the rest of the
// stall, so live clients are not shed behind dead ones.
func TestCanceledRequestReleasesSlot(t *testing.T) {
	f := newFaultySource(t, []float64{1, 1})
	client := NewSourceClient(f.srv.URL, f.srv.Client())
	client.SetRetryPolicy(fastRetry(1))
	m, err := New(context.Background(), Config{
		Upstream:          client,
		Plan:              core.Config{Bandwidth: 4},
		Overload:          resilience.LimiterConfig{MaxInflight: 1},
		ServeFaultLatency: 150 * time.Millisecond,
		Seed:              1,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/object/0", nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			err = fmt.Errorf("read completed with status %d despite the cancel", resp.StatusCode)
		}
		done <- err
	}()

	// The read holds the only slot once it is stalled in the window.
	deadline := time.Now().Add(5 * time.Second)
	for m.Status().Inflight != 1 {
		if time.Now().After(deadline) {
			t.Fatal("read never acquired the admission slot")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("client saw %v, want context canceled", err)
	}
	for {
		st := m.Status()
		if st.Canceled == 1 && st.Inflight == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot not released after cancel: inflight=%d canceled=%d", st.Inflight, st.Canceled)
		}
		time.Sleep(time.Millisecond)
	}

	// The freed slot admits a live client: with MaxInflight 1, a leaked
	// slot would shed this read with a 503 instead of serving it.
	resp, err := http.Get(srv.URL + "/object/0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("read after cancel: status %d, want 200", resp.StatusCode)
	}
	if shed := m.Status().Shed; shed != 0 {
		t.Errorf("%d requests shed — the canceled read leaked its slot", shed)
	}
}

// TestReadyzRetryAfter asserts the Retry-After header on both the
// plain-text and JSON not-ready 503s.
func TestReadyzRetryAfter(t *testing.T) {
	f := newFaultySource(t, []float64{1, 1})
	// A cold persistent mirror is not ready until its first snapshot.
	m, _ := newPersistMirror(t, f.srv.URL, f.srv.Client(), t.TempDir(), 1, 1000, nil)
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	for _, accept := range []string{"text/plain", "application/json"} {
		req, _ := http.NewRequest(http.MethodGet, srv.URL+"/readyz", nil)
		req.Header.Set("Accept", accept)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("accept %q: status %d, want 503", accept, resp.StatusCode)
		}
		checkRetryAfter(t, resp.Header, "accept "+accept)
	}
}

// TestSourceDegradedHeaders drives the upstream down until the breaker
// opens, then checks the explicit degraded-serving contract: object
// reads still succeed but carry the mode and a staleness bound; both
// disappear once the breaker closes.
func TestSourceDegradedHeaders(t *testing.T) {
	f := newFaultySource(t, []float64{1, 1})
	m := newFaultMirror(t, f, 4, FaultPolicy{
		BreakerThreshold: 3,
		BreakerCooldown:  1,
		QuarantineAfter:  -1,
	})
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	f.down.Store(true)
	for step := 1; m.Mode()&resilience.ModeSourceDegraded == 0; step++ {
		if step > 40 {
			t.Fatal("breaker never opened")
		}
		if _, err := m.Step(0.25 * float64(step)); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Get(srv.URL + "/object/0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded object read: status %d, want 200 (serve-through)", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Mirror-Mode"); got != "source-degraded" {
		t.Errorf("X-Mirror-Mode = %q, want source-degraded", got)
	}
	stale, err := strconv.ParseFloat(resp.Header.Get("X-Staleness-Periods"), 64)
	if err != nil || stale < 0 {
		t.Errorf("X-Staleness-Periods = %q, want a non-negative float", resp.Header.Get("X-Staleness-Periods"))
	}

	// Heal: the cooldown elapses, the half-open probe succeeds, the
	// breaker closes, and the degraded headers disappear.
	f.down.Store(false)
	for step := 0; m.Mode() != resilience.ModeFull; step++ {
		if step > 40 {
			t.Fatalf("mode never recovered, still %v", m.Mode())
		}
		if _, err := m.Step(12 + 0.25*float64(step)); err != nil {
			t.Fatal(err)
		}
	}
	resp, err = http.Get(srv.URL + "/object/0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Mirror-Mode"); got != "" {
		t.Errorf("recovered response still carries X-Mirror-Mode=%q", got)
	}
	if m.Status().ModeTransitions < 2 {
		t.Errorf("mode transitions = %d, want >= 2 (enter + leave)", m.Status().ModeTransitions)
	}
}

// TestDiskDiesMidRun is the disk-fault chaos test: the state disk
// dies under a running mirror, which must enter persist-degraded
// (read-only) mode, stop burning fsync timeouts on journaling, keep
// serving objects, and recover full durability after the disk heals —
// with the recovery gated on a real successful fsync.
func TestDiskDiesMidRun(t *testing.T) {
	f := newFaultySource(t, []float64{3, 1, 0.5, 2})
	m, fs := newChaosMirror(t, f, t.TempDir(), persist.FaultPlan{}, 2)
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	// Healthy warm-up: accumulate journaled refreshes and a snapshot.
	now := 0.0
	for step := 1; step <= 12; step++ {
		now = 0.25 * float64(step)
		f.src.Advance(now)
		if _, err := m.Step(now); err != nil {
			t.Fatal(err)
		}
	}
	if m.Status().Snapshots == 0 {
		t.Fatal("setup: no snapshot during healthy run")
	}
	if m.Mode() != resilience.ModeFull {
		t.Fatalf("setup: mode %v, want full", m.Mode())
	}

	// The disk dies.
	fs.Break(persist.ErrDiskIO)
	for step := 1; m.Mode()&resilience.ModePersistDegraded == 0; step++ {
		if step > 60 {
			t.Fatal("mirror never entered persist-degraded mode")
		}
		now += 0.25
		f.src.Advance(now)
		if _, err := m.Step(now); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Status()
	if st.ConsecutivePersistFailures < 3 {
		t.Errorf("consecutive persist failures = %d, want >= 3", st.ConsecutivePersistFailures)
	}
	if st.Mode != "persist-degraded" {
		t.Errorf("Status.Mode = %q, want persist-degraded", st.Mode)
	}

	// Read-only mode: journaling stops (skips accumulate), serving
	// does not.
	preInjected := fs.Injected()
	for step := 1; step <= 12; step++ {
		now += 0.25
		f.src.Advance(now)
		if _, err := m.Step(now); err != nil {
			t.Fatal(err)
		}
	}
	if m.Status().JournalSkipped == 0 {
		t.Error("no journal appends skipped while persist-degraded")
	}
	// The only ops still reaching the dead disk are the backed-off
	// snapshot probes — far fewer than one per refresh.
	if probes := fs.Injected() - preInjected; probes > 4 {
		t.Errorf("%d ops hit the dead disk across 3 periods, want backed-off probes only", probes)
	}
	resp, err := http.Get(srv.URL + "/object/0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("object read in persist-degraded mode: status %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Mirror-Mode"); got != "persist-degraded" {
		t.Errorf("X-Mirror-Mode = %q, want persist-degraded", got)
	}
	if resp.Header.Get("X-Staleness-Periods") != "" {
		t.Error("persist-degraded response carries a staleness header (source axis is healthy)")
	}

	// The disk heals: the next snapshot probe fsync succeeds, clearing
	// the mode and restoring durability.
	fs.Heal()
	preSnapshots := m.Status().Snapshots
	for step := 1; m.Mode() != resilience.ModeFull; step++ {
		if step > 200 {
			t.Fatalf("mode never recovered after heal, still %v", m.Mode())
		}
		now += 0.5
		f.src.Advance(now)
		if _, err := m.Step(now); err != nil {
			t.Fatal(err)
		}
	}
	st = m.Status()
	if st.Snapshots <= preSnapshots {
		t.Error("recovery to full without a new durable snapshot")
	}
	if st.ConsecutivePersistFailures != 0 {
		t.Errorf("consecutive persist failures = %d after recovery, want 0", st.ConsecutivePersistFailures)
	}
}

// TestOverloadDiskFaultDrill is the overload and disk-fault drill. A
// persistent mirror runs under Run over a real, fsyncing store wrapped
// in a FaultStore, with 16 admission slots that each admitted read
// holds for 5 ms. 32 closed-loop clients read it at a paced 400
// reads/s, inside that envelope, and then unpaced, far past it, while
// the state disk is broken; then the disk heals. Gates:
//   - every read is a 200 or a 503 with a valid Retry-After; a
//     transport error or any other status fails the drill;
//   - the unpaced stage sheds;
//   - the worst admitted p99 of both stages stays within max(5× the
//     envelope p99, 250 ms). The envelope p99 is the paced stage's
//     admitted p99 when that stage admitted at least 85% of its
//     target rate, else 0, leaving the 250 ms floor;
//   - reads are served in persist-degraded mode while the disk is
//     broken;
//   - after the heal the mirror is back in full mode with no
//     consecutive persist failures, a new snapshot, and at least two
//     mode transitions.
func TestOverloadDiskFaultDrill(t *testing.T) {
	if testing.Short() {
		t.Skip("overload drill skipped in -short")
	}
	const (
		workers   = 32
		pacedRPS  = 400
		stageTime = 1500 * time.Millisecond
		period    = 100 * time.Millisecond
	)
	lambdas := make([]float64, 64)
	for i := range lambdas {
		lambdas[i] = 0.5
	}
	f := newFaultySource(t, lambdas)
	inner, err := persist.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { inner.Close() })
	fs := persist.NewFaultStore(inner, persist.FaultPlan{})
	client := NewSourceClient(f.srv.URL, f.srv.Client())
	client.SetRetryPolicy(fastRetry(1))
	m, err := New(context.Background(), Config{
		Upstream:          client,
		Plan:              core.Config{Bandwidth: 16},
		ReplanEvery:       2,
		Overload:          resilience.LimiterConfig{MaxInflight: 16},
		Degrade:           resilience.ModeConfig{PersistFailureThreshold: 3},
		ServeFaultLatency: 5 * time.Millisecond,
		Persist:           fs,
		SnapshotEvery:     2,
		Seed:              7,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- m.Run(ctx, period) }()
	defer func() {
		cancel()
		if err := <-runErr; err != nil {
			t.Errorf("Run: %v", err)
		}
	}()
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	waitUntil := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s; status %+v", what, m.Status())
			}
		}
	}
	// Ready: the first snapshot is durable before the disk can die.
	waitUntil("the first snapshot", func() bool { return m.Status().Snapshots > 0 })

	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConnsPerHost = workers
	defer transport.CloseIdleConnections()
	hc := &http.Client{Transport: transport, Timeout: 10 * time.Second}
	type stage struct {
		admittedMs []float64 // latency of each 200
		shed       int       // 503s
		degraded   int       // 200s served persist-degraded
		failures   []string
	}
	// drive runs one stage: each worker paces itself to one read per
	// interval (0: unpaced), the w-th starting interval·w/workers in,
	// so the paced stage arrives evenly instead of in one burst of 32.
	drive := func(interval time.Duration) (stage, time.Duration) {
		per := make([]stage, workers)
		start := time.Now()
		deadline := start.Add(stageTime)
		var wg sync.WaitGroup
		for w := range per {
			wg.Add(1)
			go func(w int, st *stage) {
				defer wg.Done()
				next := start.Add(interval * time.Duration(w) / workers)
				for i := w; ; i++ {
					if d := time.Until(next); d > 0 {
						time.Sleep(d)
					} else {
						next = time.Now()
					}
					if time.Now().After(deadline) {
						return
					}
					next = next.Add(interval)
					sent := time.Now()
					resp, err := hc.Get(fmt.Sprintf("%s/object/%d", srv.URL, i%len(lambdas)))
					if err != nil {
						st.failures = append(st.failures, err.Error())
						continue
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					switch resp.StatusCode {
					case http.StatusOK:
						st.admittedMs = append(st.admittedMs, float64(time.Since(sent))/float64(time.Millisecond))
						if strings.Contains(resp.Header.Get("X-Mirror-Mode"), resilience.ModePersistDegraded.String()) {
							st.degraded++
						}
					case http.StatusServiceUnavailable:
						st.shed++
						ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
						if err != nil || ra < resilience.RetryAfterSeconds || ra >= resilience.RetryAfterSeconds+resilience.RetryAfterSpread {
							st.failures = append(st.failures, fmt.Sprintf("503 with Retry-After %q", resp.Header.Get("Retry-After")))
						}
					default:
						st.failures = append(st.failures, fmt.Sprintf("status %d", resp.StatusCode))
					}
				}
			}(w, &per[w])
		}
		wg.Wait()
		elapsed := time.Since(start)
		var all stage
		for _, st := range per {
			all.admittedMs = append(all.admittedMs, st.admittedMs...)
			all.shed += st.shed
			all.degraded += st.degraded
			all.failures = append(all.failures, st.failures...)
		}
		return all, elapsed
	}

	paced, pacedElapsed := drive(time.Second * workers / pacedRPS)
	fs.Break(persist.ErrDiskIO)
	unpaced, _ := drive(0)
	// No snapshot can land while the disk is broken, so this is the
	// count any snapshot after the heal must exceed.
	healedAt := m.Status().Snapshots
	fs.Heal()

	for _, st := range []stage{paced, unpaced} {
		for i, fail := range st.failures {
			if i == 8 {
				t.Errorf("... and %d more failures", len(st.failures)-i)
				break
			}
			t.Errorf("read failed: %s", fail)
		}
	}
	if unpaced.shed == 0 {
		t.Error("no read shed past the knee; the overload never engaged admission control")
	}
	envelope := 0.0
	pacedP99 := stats.Quantile(paced.admittedMs, 0.99)
	if len(paced.admittedMs) > 0 && float64(len(paced.admittedMs))/pacedElapsed.Seconds() >= 0.85*pacedRPS {
		envelope = pacedP99
	}
	pastKneeP99 := stats.Quantile(unpaced.admittedMs, 0.99)
	bound := math.Max(5*envelope, 250)
	if worst := math.Max(pacedP99, pastKneeP99); !(worst <= bound) {
		t.Errorf("worst admitted p99 %.1f ms exceeds bound %.1f ms (envelope p99 %.1f ms)", worst, bound, envelope)
	}
	if unpaced.degraded == 0 {
		t.Error("no read served persist-degraded while the disk was broken")
	}

	// The backed-off snapshot probe after the heal is the fsync that
	// clears persist-degraded.
	waitUntil("full mode after the heal", func() bool { return m.Mode() == resilience.ModeFull })
	st := m.Status()
	if st.ConsecutivePersistFailures != 0 {
		t.Errorf("%d consecutive persist failures after the heal", st.ConsecutivePersistFailures)
	}
	if st.Snapshots <= healedAt {
		t.Errorf("snapshots %d after the heal, %d at it: durability never recovered", st.Snapshots, healedAt)
	}
	if st.ModeTransitions < 2 {
		t.Errorf("%d mode transitions, want >= 2 (enter and leave persist-degraded)", st.ModeTransitions)
	}
	t.Logf("paced: %d admitted, %d shed, p99 %.2f ms (envelope %.2f ms); unpaced: %d admitted, %d shed, %d persist-degraded, p99 %.2f ms; %d transitions",
		len(paced.admittedMs), paced.shed, pacedP99, envelope,
		len(unpaced.admittedMs), unpaced.shed, unpaced.degraded, pastKneeP99, st.ModeTransitions)
}

// TestKillRestartInPersistDegraded kills a mirror while its disk is
// dead and restarts it against the same (still dead) disk: the boot
// fsync probe must put it straight into persist-degraded mode, the
// learned state must come back from the last good snapshot, serving
// must work — and only after the disk heals and one fsync succeeds
// does it re-enter full mode.
func TestKillRestartInPersistDegraded(t *testing.T) {
	f := newFaultySource(t, []float64{3, 1, 0.5, 2})
	dir := t.TempDir()
	m1, fs1 := newChaosMirror(t, f, dir, persist.FaultPlan{}, 1000)

	// Build up learned state and flush it while the disk still works.
	now := 0.0
	for step := 1; step <= 20; step++ {
		now = 0.25 * float64(step)
		f.src.Advance(now)
		if _, err := m1.Step(now); err != nil {
			t.Fatal(err)
		}
		m1.Access(step % 3)
	}
	if err := m1.FlushSnapshot(); err != nil {
		t.Fatal(err)
	}
	preEst, err := m1.estimatesSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	pre := m1.Status()

	// The disk dies; the mirror degrades; then the process "dies" too.
	fs1.Break(persist.ErrDiskFull)
	for step := 1; m1.Mode()&resilience.ModePersistDegraded == 0; step++ {
		if step > 60 {
			t.Fatal("m1 never entered persist-degraded mode")
		}
		now += 0.25
		f.src.Advance(now)
		if _, err := m1.Step(now); err != nil {
			t.Fatal(err)
		}
	}
	fs1.Inner().Close()

	// Restart against the same state dir, disk still dead: the broken
	// FaultStore fails the boot probe.
	inner2, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer inner2.Close()
	fs2 := persist.NewFaultStore(inner2, persist.FaultPlan{})
	fs2.Break(persist.ErrDiskFull)
	client := NewSourceClient(f.srv.URL, f.srv.Client())
	client.SetRetryPolicy(fastRetry(1))
	m2, err := New(context.Background(), Config{
		Upstream:      client,
		Plan:          core.Config{Bandwidth: 16},
		ReplanEvery:   1000,
		Persist:       fs2,
		SnapshotEvery: 1,
		Seed:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	rd := m2.Readiness()
	if !rd.Recovered {
		t.Fatalf("restart did not recover: %+v", rd)
	}
	if rd.Mode != "persist-degraded" {
		t.Errorf("boot mode = %q, want persist-degraded (probe failed)", rd.Mode)
	}
	// The learned state survived via the last good snapshot.
	postEst, err := m2.estimatesSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := range preEst {
		if preEst[i] != postEst[i] {
			t.Errorf("element %d: recovered estimate %v != pre-kill %v", i, postEst[i], preEst[i])
		}
	}
	if got := m2.Status().Accesses; got != pre.Accesses {
		t.Errorf("access log: recovered %d, want %d", got, pre.Accesses)
	}
	// Degraded but serving.
	if _, _, err := m2.Access(0); err != nil {
		t.Fatalf("degraded restarted mirror refused a read: %v", err)
	}

	// While the disk stays dead, stepping never restores full mode.
	now2 := m2.Status().Now
	for step := 1; step <= 8; step++ {
		now2 += 0.5
		f.src.Advance(now2)
		if _, err := m2.Step(now2); err != nil {
			t.Fatal(err)
		}
	}
	if m2.Mode()&resilience.ModePersistDegraded == 0 {
		t.Fatal("mirror left persist-degraded mode without a successful fsync")
	}

	// Heal; the next snapshot probe's fsync is the recovery proof.
	fs2.Heal()
	for step := 1; m2.Mode() != resilience.ModeFull; step++ {
		if step > 200 {
			t.Fatalf("mode never recovered after heal, still %v", m2.Mode())
		}
		now2 += 0.5
		f.src.Advance(now2)
		if _, err := m2.Step(now2); err != nil {
			t.Fatal(err)
		}
	}
	if m2.Status().Snapshots == 0 {
		t.Error("recovered to full without a durable snapshot")
	}
}
