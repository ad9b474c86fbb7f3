package httpmirror

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"freshen/internal/core"
	"freshen/internal/persist"
	"freshen/internal/testkit"
)

// newSimSource is an in-process simSource over n objects of rate 1.
func newSimSource(t *testing.T, n int) simSource {
	t.Helper()
	lambdas := make([]float64, n)
	for i := range lambdas {
		lambdas[i] = 1
	}
	src, err := NewSimulatedSource(lambdas, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	return simSource{src}
}

func seedConfig(up Source) Config {
	return Config{Upstream: up, Plan: core.Config{Bandwidth: 4}, Seed: 1}
}

// pairedSource releases its fetches only once two are in flight at
// once, so seeding through it completes only if fetches overlap.
type pairedSource struct {
	simSource
	inflight atomic.Int32
	once     sync.Once
	paired   chan struct{}
}

func (s *pairedSource) Fetch(ctx context.Context, id int) ([]byte, int, error) {
	if s.inflight.Add(1) >= 2 {
		s.once.Do(func() { close(s.paired) })
	}
	defer s.inflight.Add(-1)
	select {
	case <-s.paired:
	case <-time.After(2 * time.Second):
		return nil, 0, fmt.Errorf("fetch %d waited 2s for a second fetch in flight", id)
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	}
	return s.simSource.Fetch(ctx, id)
}

func TestSeedFetchesConcurrently(t *testing.T) {
	src := &pairedSource{simSource: newSimSource(t, 64), paired: make(chan struct{})}
	m, err := New(context.Background(), seedConfig(src))
	if err != nil {
		t.Fatal(err)
	}
	if st := m.Status(); st.Fetches != 0 {
		t.Errorf("Fetches after seeding = %d, want 0: the boot seed is not a poll", st.Fetches)
	}
	for i := 0; i < 64; i++ {
		body, ver, err := m.Access(i)
		want := fmt.Sprintf("object %d version %d", i, ver)
		if err != nil || string(body) != want {
			t.Fatalf("copy %d = %q, %v; want %q", i, body, err, want)
		}
	}
}

// parkedSolveSource answers batches in-process. Its first batch waits,
// for at most 5 s, until the boot solve has parked in its policy, then
// releases the solve and records whether the two overlapped.
type parkedSolveSource struct {
	simSource
	pol        *testkit.ParkingPolicy
	once       sync.Once
	overlapped atomic.Bool
}

func (s *parkedSolveSource) FetchBatch(ctx context.Context, ids []int) ([]string, []int, error) {
	s.once.Do(func() {
		select {
		case <-s.pol.Parked():
			s.overlapped.Store(true)
		case <-time.After(5 * time.Second):
		case <-ctx.Done():
		}
		s.pol.Release()
	})
	bodies, versions := make([]string, len(ids)), make([]int, len(ids))
	for k, id := range ids {
		b, v, err := s.simSource.Fetch(ctx, id)
		if err != nil {
			return nil, nil, err
		}
		bodies[k], versions[k] = string(b), v
	}
	return bodies, versions, nil
}

// TestSeedOverlapsBootSolve: New solves its first plan while the seed
// runs. The seed's first batch holds until the solve has parked inside
// its policy, which happens only if the solve started before the seed
// ended.
func TestSeedOverlapsBootSolve(t *testing.T) {
	pol := testkit.NewParkingPolicy()
	pol.Arm()
	src := &parkedSolveSource{simSource: newSimSource(t, 600), pol: pol}
	cfg := seedConfig(src)
	cfg.Plan.Policy = pol
	m, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !src.overlapped.Load() {
		t.Error("the seed's first batch waited 5 s for the boot solve to start")
	}
	if st := m.Status(); st.Fetches != 0 || st.Replans != 1 {
		t.Errorf("after New: %d fetches and %d replans, want 0 and 1", st.Fetches, st.Replans)
	}
}

// stallingSource fails one id and holds every other fetch until its
// ctx ends (or 5 s pass: seeding that never cancels fails, not
// hangs), counting the fetches in flight and those started.
type stallingSource struct {
	simSource
	failID   int
	cause    error
	inflight atomic.Int32
	started  atomic.Int32
}

func (s *stallingSource) Fetch(ctx context.Context, id int) ([]byte, int, error) {
	s.started.Add(1)
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if id == s.failID {
		return nil, 0, s.cause
	}
	select {
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	case <-time.After(5 * time.Second):
		return nil, 0, fmt.Errorf("fetch %d was never cancelled", id)
	}
}

func TestSeedErrorNamesCopyAndStopsWorkers(t *testing.T) {
	cause := errors.New("object gone")
	src := &stallingSource{simSource: newSimSource(t, 200), failID: 2, cause: cause}
	_, err := New(context.Background(), seedConfig(src))
	if err == nil {
		t.Fatal("New succeeded with a failing copy")
	}
	if !errors.Is(err, cause) {
		t.Errorf("error %q does not wrap the source's error", err)
	}
	if want := "seeding copy 2:"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name the failing copy (%q)", err, want)
	}
	if n := src.inflight.Load(); n != 0 {
		t.Errorf("%d fetches still in flight after New returned", n)
	}
	if n := src.started.Load(); n > seedWorkers {
		t.Errorf("%d fetches started; the failure should stop every worker after its current fetch", n)
	}
}

// slowSource takes a millisecond per fetch and ignores ctx, like an
// in-process source that never blocks on the network.
type slowSource struct {
	simSource
	first chan struct{}
	once  sync.Once
}

func (s *slowSource) Fetch(ctx context.Context, id int) ([]byte, int, error) {
	s.once.Do(func() { close(s.first) })
	time.Sleep(time.Millisecond)
	return s.simSource.Fetch(ctx, id)
}

func TestSeedCancelEndsNewPromptly(t *testing.T) {
	// 20,000 fetches of 1 ms each: several seconds of seeding, even
	// with every worker busy.
	src := &slowSource{simSource: newSimSource(t, 20000), first: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-src.first
		cancel()
	}()
	start := time.Now()
	_, err := New(ctx, seedConfig(src))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("New after cancel = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("New took %v to notice the cancelled ctx", d)
	}
}

func TestSeedRecoveredSetsLastPoll(t *testing.T) {
	src := newSimSource(t, 64)
	dir := t.TempDir()
	open := func() *Mirror {
		store, err := persist.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { store.Close() })
		cfg := seedConfig(src)
		cfg.Persist = store
		m, err := New(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m1 := open()
	for tm := 0.5; tm <= 6; tm += 0.5 {
		src.s.Advance(tm)
		if _, err := m1.Step(tm); err != nil {
			t.Fatal(err)
		}
	}
	if err := m1.FlushSnapshot(); err != nil {
		t.Fatal(err)
	}

	m2 := open()
	if !m2.recovered || m2.now != 6 {
		t.Fatalf("restart: recovered=%v now=%v, want a recovery at clock 6", m2.recovered, m2.now)
	}
	// verified is each copy's last-poll time: the next poll's elapsed
	// time starts at the restored clock, not at the pre-crash poll.
	for i := range m2.verified {
		if v := math.Float64frombits(m2.verified[i].Load()); v != m2.now {
			t.Errorf("copy %d: verified at %v, want the restored clock %v", i, v, m2.now)
		}
	}
}

// TestSeedConnectionsBoundedByWorkers counts the TCP connections the
// origin accepts while a nil-client SourceClient seeds N ≫ seedWorkers
// copies, in batches and, from an origin that 404s GET /objects, one
// object at a time.
func TestSeedConnectionsBoundedByWorkers(t *testing.T) {
	src := newSimSource(t, 2000)
	for _, noBatch := range []bool{false, true} {
		var opened atomic.Int32
		h := src.s.Handler()
		if noBatch {
			h = noBatchOrigin(h)
		}
		srv := httptest.NewUnstartedServer(h)
		srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
			if s == http.StateNew {
				opened.Add(1)
			}
		}
		srv.Start()
		if _, err := New(context.Background(), seedConfig(NewSourceClient(srv.URL, nil))); err != nil {
			t.Fatal(err)
		}
		srv.Close()
		if n := opened.Load(); n < 1 || n > seedWorkers {
			t.Errorf("noBatch=%v: seeding 2000 copies opened %d connections, want 1..%d", noBatch, n, seedWorkers)
		}
	}
}

// countingOrigin serves h over HTTP and counts GET /objects and
// GET|HEAD /object/{id} requests.
type countingOrigin struct {
	*httptest.Server
	batches, objects atomic.Int64
}

func newCountingOrigin(t *testing.T, h http.Handler) *countingOrigin {
	t.Helper()
	o := &countingOrigin{}
	o.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/objects":
			o.batches.Add(1)
		case strings.HasPrefix(r.URL.Path, "/object/"):
			o.objects.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(o.Close)
	return o
}

// noBatchOrigin is an origin that predates GET /objects: it 404s the
// route and serves everything else from h.
func noBatchOrigin(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/objects" {
			http.NotFound(w, r)
			return
		}
		h.ServeHTTP(w, r)
	})
}

// TestSeedBatchMatchesPerObject seeds one advanced origin twice, in
// batches and one object at a time, and compares every copy.
func TestSeedBatchMatchesPerObject(t *testing.T) {
	const n = 2000
	src := newSimSource(t, n).s
	src.Advance(3)
	seed := func(h http.Handler) (*Mirror, *countingOrigin) {
		o := newCountingOrigin(t, h)
		m, err := New(context.Background(), seedConfig(NewSourceClient(o.URL, o.Client())))
		if err != nil {
			t.Fatal(err)
		}
		if st := m.Status(); st.Fetches != 0 {
			t.Errorf("Fetches after seeding = %d, want 0", st.Fetches)
		}
		return m, o
	}
	batched, bo := seed(src.Handler())
	single, so := seed(noBatchOrigin(src.Handler()))
	if got, want := bo.batches.Load(), int64((n+seedBatch-1)/seedBatch); got != want || bo.objects.Load() != 0 {
		t.Errorf("batch seed: %d GET /objects and %d object requests, want %d and 0", got, bo.objects.Load(), want)
	}
	if so.batches.Load() != 1 || so.objects.Load() != n {
		t.Errorf("per-object seed: %d GET /objects and %d object requests, want 1 and %d", so.batches.Load(), so.objects.Load(), n)
	}
	advanced := 0
	for i := 0; i < n; i++ {
		b1, v1, err1 := batched.Access(i)
		b2, v2, err2 := single.Access(i)
		if err1 != nil || err2 != nil || v1 != v2 || b1 != b2 {
			t.Fatalf("copy %d: batch %q v%d (%v), per object %q v%d (%v)", i, b1, v1, err1, b2, v2, err2)
		}
		if v1 > 0 {
			advanced++
		}
	}
	if advanced < n/2 {
		t.Errorf("only %d of %d copies past version 0; the parity check needs advanced versions", advanced, n)
	}
}

// TestSeedBatchFallsBack: an origin without GET /objects, whether it
// answers 404 or a catch-all 200, costs the seed one probe, and the
// seed goes on one object at a time.
func TestSeedBatchFallsBack(t *testing.T) {
	const n = 600
	src := newSimSource(t, n).s
	h := src.Handler()
	for _, tc := range []struct {
		name    string
		objects func(http.ResponseWriter, *http.Request)
	}{
		{"404", http.NotFound},
		{"catch-all 200", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/html")
			io.WriteString(w, "<html>welcome</html>")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := newCountingOrigin(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/objects" {
					tc.objects(w, r)
					return
				}
				h.ServeHTTP(w, r)
			}))
			up := NewSourceClient(o.URL, o.Client())
			m, err := New(context.Background(), seedConfig(up))
			if err != nil {
				t.Fatal(err)
			}
			if b, got := o.batches.Load(), o.objects.Load(); b != 1 || got != n {
				t.Errorf("%d GET /objects and %d object requests, want 1 and %d", b, got, n)
			}
			if f := up.Failures(); f != 0 {
				t.Errorf("the probe counted %d source failures, want 0", f)
			}
			if st := m.Status(); st.Fetches != 0 {
				t.Errorf("Fetches = %d, want 0", st.Fetches)
			}
		})
	}
}

// TestSeedBatchRetriesServerError: a batch answered 500 is retried as
// one call and then served.
func TestSeedBatchRetriesServerError(t *testing.T) {
	const n = 1000
	src := newSimSource(t, n).s
	h := src.Handler()
	var batches atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/objects" && batches.Add(1) == 2 {
			http.Error(w, "busy", http.StatusInternalServerError)
			return
		}
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()
	up := NewSourceClient(srv.URL, srv.Client())
	up.SetRetryPolicy(RetryPolicy{BaseBackoff: time.Millisecond})
	m, err := New(context.Background(), seedConfig(up))
	if err != nil {
		t.Fatal(err)
	}
	if r, f := up.Retries(), up.Failures(); r != 1 || f != 0 {
		t.Errorf("Retries = %d, Failures = %d; want 1 and 0", r, f)
	}
	if got, want := batches.Load(), int64((n+seedBatch-1)/seedBatch+1); got != want {
		t.Errorf("%d GET /objects, want %d (one batch twice)", got, want)
	}
	for i := 0; i < n; i++ {
		body, ver, err := m.Access(i)
		if want := fmt.Sprintf("object %d version %d", i, ver); err != nil || string(body) != want {
			t.Fatalf("copy %d = %q, %v; want %q", i, body, err, want)
		}
	}
}

// TestSeedBatchFailureNamesCopy: a batch the origin rejects fails New
// with an error naming a copy in that batch, and nothing is retried.
func TestSeedBatchFailureNamesCopy(t *testing.T) {
	const n, bad = 2000, 700
	src := newSimSource(t, n).s
	h := src.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/objects" && slices.Contains(strings.Split(r.URL.Query().Get("ids"), ","), strconv.Itoa(bad)) {
			http.Error(w, "object withdrawn", http.StatusGone)
			return
		}
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()
	up := NewSourceClient(srv.URL, srv.Client())
	_, err := New(context.Background(), seedConfig(up))
	if err == nil {
		t.Fatal("New succeeded with a batch the origin rejects")
	}
	var lo int
	if _, serr := fmt.Sscanf(err.Error(), "httpmirror: seeding copy %d:", &lo); serr != nil {
		t.Fatalf("error %q names no copy", err)
	}
	if lo > bad || bad >= lo+seedBatch {
		t.Errorf("error %q names copy %d, outside the batch holding %d", err, lo, bad)
	}
	if !strings.Contains(err.Error(), "410") {
		t.Errorf("error %q does not carry the origin's status", err)
	}
	if r := up.Retries(); r != 0 {
		t.Errorf("%d retries of a permanent failure", r)
	}
}

// TestSeedBatchCancelEndsNewPromptly cancels New while batches are in
// flight against an origin that takes 200 ms per batch.
func TestSeedBatchCancelEndsNewPromptly(t *testing.T) {
	src := newSimSource(t, 20000).s
	h := src.Handler()
	second := make(chan struct{})
	var batches atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/objects" {
			if batches.Add(1) == 2 {
				close(second)
			}
			select {
			case <-time.After(200 * time.Millisecond):
			case <-r.Context().Done():
				return
			}
		}
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-second
		cancel()
	}()
	start := time.Now()
	_, err := New(ctx, seedConfig(NewSourceClient(srv.URL, srv.Client())))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("New after cancel = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("New took %v to notice the cancelled ctx", d)
	}
}

// TestSeedBatchWithinServerCap: a seed batch is one the server
// accepts, and one id past the server's cap is refused.
func TestSeedBatchWithinServerCap(t *testing.T) {
	if seedBatch > maxBatchIDs {
		t.Fatalf("seedBatch %d exceeds the server's cap of %d ids", seedBatch, maxBatchIDs)
	}
	src := newSimSource(t, maxBatchIDs+1).s
	srv := httptest.NewServer(src.Handler())
	defer srv.Close()
	up := NewSourceClient(srv.URL, srv.Client())
	ids := seedIDs(make([]int, 0, maxBatchIDs+1), 0, maxBatchIDs+1)
	if bodies, _, err := up.FetchBatch(context.Background(), ids[:maxBatchIDs]); err != nil || len(bodies) != maxBatchIDs {
		t.Fatalf("a batch at the cap: %d bodies, %v", len(bodies), err)
	}
	if _, _, err := up.FetchBatch(context.Background(), ids); err == nil || !strings.Contains(err.Error(), "400") {
		t.Errorf("a batch past the cap = %v, want a 400", err)
	}
}

// BenchmarkSeed times New at N=50,000 against a loopback
// SimulatedSource: per-object behind an origin that 404s GET /objects,
// and batch against the origin as it is. One op is one New, the
// catalog fetch and the first plan included.
func BenchmarkSeed(b *testing.B) {
	const n = 50000
	lambdas := make([]float64, n)
	for i := range lambdas {
		lambdas[i] = 1
	}
	src, err := NewSimulatedSource(lambdas, nil, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		h    http.Handler
	}{
		{"per-object", noBatchOrigin(src.Handler())},
		{"batch", src.Handler()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			srv := httptest.NewServer(bc.h)
			defer srv.Close()
			cfg := Config{Plan: core.Config{Bandwidth: 500}, Seed: 1}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg.Upstream = NewSourceClient(srv.URL, nil)
				if _, err := New(context.Background(), cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
