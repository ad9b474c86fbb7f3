package httpmirror

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"freshen/internal/core"
	"freshen/internal/persist"
)

// TestAccessNotFoundPreallocated pins the satellite fix for the miss
// path: every out-of-range Access returns the same preallocated error
// value (no per-request allocation for hostile traffic), and that
// value still matches ErrNotFound.
func TestAccessNotFoundPreallocated(t *testing.T) {
	_, m := newTestPair(t, []float64{1, 1}, 2)
	_, _, err1 := m.Access(-1)
	_, _, err2 := m.Access(99)
	if err1 == nil || err2 == nil {
		t.Fatal("out-of-range Access must fail")
	}
	if err1 != err2 {
		t.Errorf("miss errors are distinct values: %p vs %p", err1, err2)
	}
	if !errors.Is(err1, ErrNotFound) {
		t.Errorf("miss error does not match ErrNotFound: %v", err1)
	}
	if n := testing.AllocsPerRun(100, func() {
		m.Access(99)
	}); n != 0 {
		t.Errorf("not-found Access allocates %v per op, want 0", n)
	}
}

// TestAccessZeroAllocs asserts the hot-path contract: a hit performs
// zero allocations.
func TestAccessZeroAllocs(t *testing.T) {
	_, m := newTestPair(t, []float64{2, 1, 0.5}, 3)
	if n := testing.AllocsPerRun(100, func() {
		if _, _, err := m.Access(1); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Access allocates %v per op, want 0", n)
	}
}

// TestAccessLockFree asserts the other half of the hot-path contract:
// Access and the /object route complete while both mirror locks are
// held by someone else (a refresh commit, a snapshot fsync, a
// replan). Under the old mutex path both calls would block here
// forever; the test fails by timeout instead of deadlocking the whole
// test binary.
func TestAccessLockFree(t *testing.T) {
	_, m := newTestPair(t, []float64{2, 1}, 2)
	h := m.Handler()

	m.stepMu.Lock()
	m.mu.Lock()
	defer m.mu.Unlock()
	defer m.stepMu.Unlock()

	done := make(chan error, 1)
	go func() {
		if _, _, err := m.Access(0); err != nil {
			done <- err
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/object/1", nil))
		if rec.Code != http.StatusOK {
			done <- fmt.Errorf("GET /object/1 = %d, want 200", rec.Code)
			return
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("read path blocked while the mirror locks were held: not lock-free")
	}
}

// TestObjectHandlerAllocs bounds the full HTTP route. The mirror's own
// work is allocation-free; what remains is the http.ServeMux match and
// ResponseWriter plumbing, which this pins so a regression (a new
// fmt.Errorf, a fresh header slice) shows up as a failing number, not
// a slow dashboard. The contract covers every hot serving shape: plain
// reads, the downstream change poll (HEAD), conditional fetches both
// ways (304 and full 200), and persist-degraded serving, whose
// X-Mirror-Mode value is pre-built. (Source-degraded responses are
// exempt: X-Staleness-Periods is formatted per request.) All of them
// hold while the version is below 256; a read past the pre-built
// X-Version headers (version 300 here) costs at most two allocations,
// the formatted version and its header slice.
func TestObjectHandlerAllocs(t *testing.T) {
	_, m := newTestPair(t, []float64{2, 1}, 2)
	h := m.Handler()
	_, ver, err := m.Access(0)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		method   string
		ifVer    string
		degraded bool
		version  int     // when set, object 0's view is stored at this version
		allocs   float64 // allocations allowed per op
	}{
		{name: "get", method: http.MethodGet},
		{name: "head", method: http.MethodHead},
		{name: "conditional hit (304)", method: http.MethodGet, ifVer: strconv.Itoa(ver)},
		{name: "conditional miss (200)", method: http.MethodGet, ifVer: strconv.Itoa(ver + 1)},
		{name: "persist-degraded get", method: http.MethodGet, degraded: true},
		{name: "get at version 300", method: http.MethodGet, version: 300, allocs: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.version != 0 {
				v := m.views[0].Load()
				m.views[0].Store(&copyView{body: v.body, version: tc.version})
				defer m.views[0].Store(v)
			}
			m.mu.Lock()
			if tc.degraded {
				m.machine.ForcePersistDegraded(m.now)
			} else {
				m.machine.PersistSucceeded()
			}
			m.publishModeLocked()
			m.mu.Unlock()
			req := httptest.NewRequest(tc.method, "/object/0", nil)
			if tc.ifVer != "" {
				req.Header.Set("X-If-Version", tc.ifVer)
			}
			rec := httptest.NewRecorder()
			// Warm the pools (statusWriter, mux internals) before measuring.
			h.ServeHTTP(rec, req)
			n := testing.AllocsPerRun(200, func() {
				rec.Body.Reset()
				h.ServeHTTP(rec, req)
			})
			if n > tc.allocs {
				t.Errorf("%s /object/0 (%s) allocates %v per op, want at most %v", tc.method, tc.name, n, tc.allocs)
			}
		})
	}
}

// TestQuarantinedCountTracksTransitions drives quarantine and recovery
// transitions and checks the O(1) count the status endpoints now use
// against a scan of the health slice.
func TestQuarantinedCountTracksTransitions(t *testing.T) {
	_, m := newTestPair(t, []float64{1, 1, 1}, 3)
	failAll := func(id int, times int) {
		for i := 0; i < times; i++ {
			apply(m, persist.Record{Kind: persist.KindFailure, Element: id, At: m.now})
		}
	}
	recover := func(id int) {
		apply(m, persist.Record{Kind: persist.KindRefresh, Element: id, At: m.now})
	}
	check := func(want int) {
		t.Helper()
		m.mu.Lock()
		scan := 0
		for i := range m.health {
			if m.health[i].quarantined {
				scan++
			}
		}
		got := m.quarantined
		m.mu.Unlock()
		if got != scan {
			t.Fatalf("quarantined count %d != scan %d", got, scan)
		}
		if got != want {
			t.Fatalf("quarantined = %d, want %d", got, want)
		}
		if st := m.Status(); st.Quarantined != want {
			t.Fatalf("Status().Quarantined = %d, want %d", st.Quarantined, want)
		}
		if rd := m.Readiness(); rd.Quarantined != want {
			t.Fatalf("Readiness().Quarantined = %d, want %d", rd.Quarantined, want)
		}
		if h := m.Health(); len(h.Quarantined) != want {
			t.Fatalf("Health().Quarantined = %v, want %d ids", h.Quarantined, want)
		}
	}

	check(0)
	failAll(0, 3) // default QuarantineAfter is 3
	check(1)
	failAll(0, 2) // already quarantined: no double count
	check(1)
	failAll(2, 3)
	check(2)
	recover(0)
	check(1)
	recover(0) // healthy recovery is not a transition
	check(1)
	recover(2)
	check(0)
}

// TestAccessCountsDrainExactly checks that the striped counters
// preserve the access-learning and status semantics of the old locked
// counters: Status sees every access immediately, and a replan's
// profile learning sees exactly the per-object counts, which are
// cumulative: a second learn with no reads between sees the same.
func TestAccessCountsDrainExactly(t *testing.T) {
	src, m := newTestPair(t, []float64{1, 1, 1, 1}, 4)
	before := m.Status().Accesses

	// A skewed access pattern: object 0 hot, object 3 untouched.
	for i := 0; i < 60; i++ {
		if _, _, err := m.Access(i % 3 % 2); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Status().Accesses - before; got != 60 {
		t.Fatalf("Status().Accesses grew by %d, want 60 (undrained stripes must still count)", got)
	}

	// Cross the replan cadence so Step learns; then learn once more
	// with no reads between.
	src.Advance(11)
	if _, err := m.Step(11); err != nil {
		t.Fatal(err)
	}
	counts := make([]uint64, len(m.acc.elems))
	for i := range counts {
		counts[i] = m.acc.elems[i].Load()
	}
	if want := []uint64{40, 20, 0, 0}; !slices.Equal(counts, want) {
		t.Fatalf("per-object accesses = %v, want %v", counts, want)
	}
	// Laplace smoothing: (count + 1) / (60 + 4).
	want := []float64{41.0 / 64, 21.0 / 64, 1.0 / 64, 1.0 / 64}
	checkProfile := func(learn string) {
		t.Helper()
		for i, e := range m.Elements() {
			if e.AccessProb != want[i] {
				t.Errorf("%s learn: object %d access probability %v, want %v", learn, i, e.AccessProb, want[i])
			}
		}
	}
	checkProfile("cadence")
	if err := m.ForceReplan(); err != nil {
		t.Fatal(err)
	}
	checkProfile("second")
	if got := m.Status().Accesses - before; got != 60 {
		t.Fatalf("Status().Accesses after learning = %d, want still 60", got)
	}
}

// TestServeSnapshotNotTorn is the linearizability stress test: readers
// hammer Access while the refresh pipeline commits new bodies, replans
// rebuild the schedule, and FlushSnapshot runs its fsyncs. The
// simulated source writes bodies of the form "object N version V", so
// any torn read — a body from one commit paired with a version from
// another — is detected by string comparison. Run under -race this
// also proves the publication protocol is data-race free.
func TestServeSnapshotNotTorn(t *testing.T) {
	lambdas := make([]float64, 16)
	for i := range lambdas {
		lambdas[i] = 8 // fast churn: many transfers per period
	}
	f := newFaultySource(t, lambdas)
	dir := t.TempDir()
	m, _ := newPersistMirror(t, f.srv.URL, f.srv.Client(), dir, 1, 1, func(c *Config) {
		c.Plan = core.Config{Bandwidth: 64}
		c.ReplanEvery = 1
	})

	stop := make(chan struct{})
	var readers, churn sync.WaitGroup
	errs := make(chan error, 64)

	// Readers: every body must match its version exactly. Periodic
	// Gosched keeps the spinning readers from starving the refresh
	// pipeline on small CI machines.
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := (r + i) % len(lambdas)
				body, ver, err := m.Access(id)
				if err != nil {
					errs <- err
					return
				}
				want := fmt.Sprintf("object %d version %d", id, ver)
				if string(body) != want {
					errs <- fmt.Errorf("torn read: got %q with version %d", body, ver)
					return
				}
				if i%1024 == 0 {
					runtime.Gosched()
				}
			}
		}(r)
	}
	// Writer: the refresh pipeline on a fast clock.
	churn.Add(1)
	go func() {
		defer churn.Done()
		for step := 1; step <= 24; step++ {
			tm := 0.25 * float64(step)
			f.src.Advance(tm)
			if _, err := m.Step(tm); err != nil {
				errs <- err
				return
			}
		}
	}()
	// Churn: snapshots (fsync under stepMu) and forced replans.
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; i < 8; i++ {
			if err := m.FlushSnapshot(); err != nil {
				errs <- err
				return
			}
			if err := m.ForceReplan(); err != nil {
				errs <- err
				return
			}
		}
	}()

	// Wait for the refresh/snapshot churn to finish, then release the
	// readers. The timeout turns a stuck pipeline into a test failure
	// instead of a binary-wide deadline kill.
	doneChurn := make(chan struct{})
	go func() {
		churn.Wait()
		close(doneChurn)
	}()
	select {
	case <-doneChurn:
	case <-time.After(60 * time.Second):
		t.Error("stress run did not complete in time")
	}
	close(stop)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Every access recorded under fire is in both the per-object
	// counters and the global total, once the readers have stopped.
	st := m.Status()
	perObj := 0
	for i := range m.acc.elems {
		perObj += int(m.acc.elems[i].Load())
	}
	if perObj != st.Accesses {
		t.Errorf("per-object counts sum to %d, the global total is %d", perObj, st.Accesses)
	}
}

// churnSource is an in-memory origin on which every object changes
// between any two polls: Version answers a new version on every call.
// Fetch hands out one shared body, so the source itself allocates
// nothing per refresh.
type churnSource struct {
	n    int
	ver  atomic.Int64
	body []byte
}

func (s *churnSource) Catalog(context.Context) ([]CatalogEntry, error) {
	out := make([]CatalogEntry, s.n)
	for i := range out {
		out[i] = CatalogEntry{ID: i, Size: 1}
	}
	return out, nil
}

func (s *churnSource) Version(context.Context, int) (int, error) {
	return int(s.ver.Add(1)), nil
}

func (s *churnSource) Fetch(context.Context, int) ([]byte, int, error) {
	return s.body, int(s.ver.Load()), nil
}

func (s *churnSource) Retries() int64  { return 0 }
func (s *churnSource) Failures() int64 { return 0 }

// TestCopyViewSize pins a view at 24 B: a string body, which carries
// no capacity word, and the version. DESIGN.md §11 counts it.
func TestCopyViewSize(t *testing.T) {
	if got := unsafe.Sizeof(copyView{}); got != 24 {
		t.Errorf("copyView is %d B, want 24", got)
	}
}

// TestTransferCommitAllocsFlat pins the cost of publishing a
// transferred body to readers: a refresh that transfers allocates one
// view for its own object, the same few bytes at N=1,000 as at
// N=64,000, instead of re-copying a view of the whole catalog.
func TestTransferCommitAllocsFlat(t *testing.T) {
	const refreshes = 300
	for _, n := range []int{1000, 64000} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			src := &churnSource{n: n, body: []byte("object body")}
			m, err := New(context.Background(), Config{
				Upstream: src,
				Plan:     core.Config{Bandwidth: 4},
				Seed:     1,
			})
			if err != nil {
				t.Fatal(err)
			}
			before := m.Status().Transfers
			var start, end runtime.MemStats
			runtime.ReadMemStats(&start)
			for k := 0; k < refreshes; k++ {
				if res, _ := m.attempt(k, 1+float64(k)/refreshes, planned); res != refreshed {
					t.Fatalf("refresh %d came to %d", k, res)
				}
			}
			runtime.ReadMemStats(&end)
			if got := m.Status().Transfers - before; got != refreshes {
				t.Fatalf("%d of %d refreshes transferred, want all", got, refreshes)
			}
			per := (end.TotalAlloc - start.TotalAlloc) / refreshes
			t.Logf("N=%d: %d B allocated per transferring refresh", n, per)
			if per >= 1024 {
				t.Errorf("a transferring refresh allocates %d B at N=%d, want under 1 KiB", per, n)
			}
		})
	}
}

// TestObjectRouteVersionHeader covers both X-Version paths: a cached
// small version and an uncached large one.
func TestObjectRouteVersionHeader(t *testing.T) {
	_, m := newTestPair(t, []float64{1}, 1)
	// Force a large version directly; the handler must fall back to
	// formatting it.
	body := m.views[0].Load().body
	m.views[0].Store(&copyView{body: body, version: 123456})
	h := m.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/object/0", nil))
	if got := rec.Header().Get("X-Version"); got != "123456" {
		t.Errorf("X-Version = %q, want 123456", got)
	}
	m.views[0].Store(&copyView{body: body, version: 7})
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/object/0", nil))
	if got := rec.Header().Get("X-Version"); got != "7" {
		t.Errorf("X-Version = %q, want 7", got)
	}
}

// mutexMirror replicates the pre-RCU serving path — every read takes
// the state mutex and mutates the shared counters under it — so the
// mutex-vs-lock-free comparison in EXPERIMENTS.md stays reproducible
// from this file alone.
type mutexMirror struct {
	mu       sync.Mutex
	copies   []mutexCopy
	accesses int
}

// mutexCopy is one object of the mutex baseline, body and version
// stored beside the access count under the same lock.
type mutexCopy struct {
	body     []byte
	version  int
	accesses int
}

func (m *mutexMirror) Access(id int) ([]byte, int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if id < 0 || id >= len(m.copies) {
		return nil, 0, fmt.Errorf("%w: object %d outside [0, %d)", ErrNotFound, id, len(m.copies))
	}
	c := &m.copies[id]
	c.accesses++
	m.accesses++
	return c.body, c.version, nil
}

func newBenchMirror(b *testing.B, n int) *Mirror {
	b.Helper()
	lambdas := make([]float64, n)
	for i := range lambdas {
		lambdas[i] = 1
	}
	src, err := NewSimulatedSource(lambdas, nil, 1)
	if err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(src.Handler())
	b.Cleanup(srv.Close)
	m, err := New(context.Background(), Config{
		Upstream: NewSourceClient(srv.URL, srv.Client()),
		Plan:     core.Config{Bandwidth: float64(n) / 4},
		Seed:     1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkAccess is the serial hot-path cost: one snapshot load, a
// bounds check, two striped increments.
func BenchmarkAccess(b *testing.B) {
	m := newBenchMirror(b, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.Access(i & 511); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAccessParallel is the contended case the lock-free path
// exists for: every core reading at once.
func BenchmarkAccessParallel(b *testing.B) {
	m := newBenchMirror(b, 512)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, _, err := m.Access(i & 511); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkAccessMutexBaseline is the old locked read path (frozen
// above as mutexMirror), serial.
func BenchmarkAccessMutexBaseline(b *testing.B) {
	m := &mutexMirror{copies: make([]mutexCopy, 512)}
	for i := range m.copies {
		m.copies[i].body = []byte("object body")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.Access(i & 511); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAccessMutexBaselineParallel is the old locked read path
// under the same all-cores contention as BenchmarkAccessParallel —
// the headline number for the EXPERIMENTS.md table.
func BenchmarkAccessMutexBaselineParallel(b *testing.B) {
	m := &mutexMirror{copies: make([]mutexCopy, 512)}
	for i := range m.copies {
		m.copies[i].body = []byte("object body")
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, _, err := m.Access(i & 511); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkAccessDuringCommits measures the read path while a writer
// continuously commits new versions of object 0 exactly as a
// transferring refresh does — reads during commit must not stall.
func BenchmarkAccessDuringCommits(b *testing.B) {
	m := newBenchMirror(b, 512)
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			m.mu.Lock()
			v := m.views[0].Load()
			m.views[0].Store(&copyView{body: v.body, version: v.version + 1})
			m.mu.Unlock()
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, _, err := m.Access(i & 511); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkAccessMutexBaselineDuringCommits is the mutex counterpart
// of BenchmarkAccessDuringCommits: the writer commits the same one
// object, but under the lock every reader needs — so reads stall
// behind each commit instead of sailing past it.
func BenchmarkAccessMutexBaselineDuringCommits(b *testing.B) {
	m := &mutexMirror{copies: make([]mutexCopy, 512)}
	for i := range m.copies {
		m.copies[i].body = []byte("object body")
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			m.mu.Lock()
			m.copies[0].version++
			m.mu.Unlock()
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, _, err := m.Access(i & 511); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkObjectHandler is the full HTTP route against a recycled
// recorder: mux match, middleware, Access, header, body write.
func BenchmarkObjectHandler(b *testing.B) {
	m := newBenchMirror(b, 512)
	h := m.Handler()
	req := httptest.NewRequest(http.MethodGet, "/object/7", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req) // warm pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Body.Reset()
		h.ServeHTTP(rec, req)
	}
	if rec.Code != http.StatusOK {
		b.Fatalf("status %d", rec.Code)
	}
}
