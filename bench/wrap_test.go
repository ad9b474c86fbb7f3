package main

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"

	"freshen/internal/core"
	"freshen/internal/hierarchy"
	"freshen/internal/httpmirror"
	"freshen/internal/persist"
)

// plainSource is a Source with neither optional capability.
type plainSource struct{ httpmirror.Source }

// healthOnly is a Source that reports upstream health but does not
// answer conditional fetches.
type healthOnly struct {
	httpmirror.Source
	httpmirror.UpstreamHealth
}

func TestTraceSourceKeepsCapabilities(t *testing.T) {
	client := httpmirror.NewSourceClient("http://127.0.0.1:1", nil)
	chain := hierarchy.NewMirrorSource("http://127.0.0.1:1", nil)
	tr := newTracer(16, 0)
	for name, inner := range map[string]httpmirror.Source{
		"plain":       plainSource{client},
		"conditional": client,
		"health":      healthOnly{plainSource{client}, chain},
		"both":        chain,
	} {
		wrapped := traceSource(inner, tr, 0)
		_, innerCond := inner.(httpmirror.ConditionalSource)
		_, wrappedCond := wrapped.(httpmirror.ConditionalSource)
		_, innerHealth := inner.(httpmirror.UpstreamHealth)
		_, wrappedHealth := wrapped.(httpmirror.UpstreamHealth)
		if innerCond != wrappedCond || innerHealth != wrappedHealth {
			t.Errorf("%s: wrapped capabilities (conditional %v, health %v) differ from the inner source's (%v, %v)",
				name, wrappedCond, wrappedHealth, innerCond, innerHealth)
		}
	}
}

func TestTracedStoreForwardsRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 3 {
		if err := s.Append(persist.Record{Kind: persist.KindRefresh, Element: i, At: float64(i + 1), Changed: true, Version: i}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	s, err = persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	wrapped := &tracedStore{inner: s, t: newTracer(16, 0)}
	if got, want := wrapped.Recovery(), s.Recovery(); !reflect.DeepEqual(got, want) || len(got.Records) != 3 {
		t.Fatalf("wrapped Recovery() = %+v, want %+v with 3 records", got, want)
	}
}

// TestWrappedMirrorStepsIdentically steps a mirror behind the timing
// wrappers and a bare one on the same virtual clock against one seeded
// origin; the wrappers must not change what the mirror does.
func TestWrappedMirrorStepsIdentically(t *testing.T) {
	lambdas := make([]float64, 60)
	for i := range lambdas {
		lambdas[i] = 0.2 + float64(i%7)*0.3
	}
	src, err := httpmirror.NewSimulatedSource(lambdas, nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	origin := httptest.NewServer(src.Handler())
	defer origin.Close()
	tr := newTracer(1<<16, 0)
	tr.on.Store(true)

	newMirror := func(wrap bool) *httpmirror.Mirror {
		store, err := persist.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { store.Close() })
		var storer persist.Storer = store
		var up httpmirror.Source = httpmirror.NewSourceClient(origin.URL, nil)
		if wrap {
			storer = &tracedStore{inner: store, t: tr}
			up = traceSource(up, tr, 0)
		}
		m, err := httpmirror.New(context.Background(), httpmirror.Config{
			Upstream:      up,
			Plan:          core.Config{Bandwidth: 15},
			ReplanEvery:   2,
			SnapshotEvery: 3,
			Persist:       storer,
			Seed:          1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	bare, wrapped := newMirror(false), newMirror(true)
	for step := 1; step <= 200; step++ {
		now := float64(step) / 10
		src.Advance(now)
		for _, m := range []*httpmirror.Mirror{bare, wrapped} {
			if _, err := m.Step(now); err != nil {
				t.Fatal(err)
			}
		}
		b, w := bare.Status(), wrapped.Status()
		if b.Fetches != w.Fetches || b.Transfers != w.Transfers || b.Replans != w.Replans || b.Snapshots != w.Snapshots {
			t.Fatalf("at %v: bare fetches/transfers/replans/snapshots %d/%d/%d/%d, wrapped %d/%d/%d/%d",
				now, b.Fetches, b.Transfers, b.Replans, b.Snapshots, w.Fetches, w.Transfers, w.Replans, w.Snapshots)
		}
	}
	if st := wrapped.Status(); st.Transfers == 0 || st.Replans < 5 || st.Snapshots == 0 {
		t.Fatalf("the run exercised too little: %+v", st)
	}
	if len(tr.finished(spanSource, 0, tr.now())) == 0 || len(tr.finished(spanAppend, 0, tr.now())) == 0 ||
		len(tr.finished(spanCommit, 0, tr.now())) == 0 {
		t.Fatal("the wrappers recorded no source, journal or snapshot spans")
	}
}
