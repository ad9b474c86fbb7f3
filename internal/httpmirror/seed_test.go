package httpmirror

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"freshen/internal/core"
	"freshen/internal/persist"
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
	if st := m.Status(); st.Fetches != 64 {
		t.Errorf("Fetches after seeding = %d, want 64", st.Fetches)
	}
	for i := 0; i < 64; i++ {
		body, ver, err := m.Access(i)
		want := fmt.Sprintf("object %d version %d", i, ver)
		if err != nil || string(body) != want {
			t.Fatalf("copy %d = %q, %v; want %q", i, body, err, want)
		}
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
	for i := range m2.copies {
		if v := math.Float64frombits(m2.verified[i].Load()); v != m2.now {
			t.Errorf("copy %d: verified at %v, want the restored clock %v", i, v, m2.now)
		}
	}
}

// TestSeedConnectionsBoundedByWorkers counts the TCP connections the
// origin accepts while a nil-client SourceClient seeds N ≫ seedWorkers
// copies.
func TestSeedConnectionsBoundedByWorkers(t *testing.T) {
	src := newSimSource(t, 2000)
	var opened atomic.Int32
	srv := httptest.NewUnstartedServer(src.s.Handler())
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			opened.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	if _, err := New(context.Background(), seedConfig(NewSourceClient(srv.URL, nil))); err != nil {
		t.Fatal(err)
	}
	if n := opened.Load(); n < 1 || n > seedWorkers {
		t.Errorf("seeding 2000 copies opened %d connections, want 1..%d", n, seedWorkers)
	}
}
