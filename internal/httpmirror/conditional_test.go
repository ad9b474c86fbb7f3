package httpmirror

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"freshen/internal/core"
)

// TestConditionalRefreshSaves304 drives a mirror over a conditional
// source with a frozen origin clock: every refresh must come back 304
// (the stored version is always current), costing zero body transfers,
// and each must still count as a change poll.
func TestConditionalRefreshSaves304(t *testing.T) {
	_, m := newTestPair(t, []float64{2, 1}, 2)
	if m.condSrc == nil {
		t.Fatal("SourceClient must advertise ConditionalSource")
	}
	for now := 1.0; now <= 5; now++ {
		if _, err := m.Step(now); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Status()
	if st.NotModified == 0 {
		t.Error("no refresh was answered 304 against a frozen origin")
	}
	if st.Transfers != 0 {
		t.Errorf("%d body transfers against a frozen origin, want 0", st.Transfers)
	}
	// The 304s are still polls, and count as fetches.
	if st.Fetches == 0 {
		t.Error("no fetches counted for the 304 polls")
	}
}

// TestConditionalRefreshTransfersChanges advances the origin so
// versions move, and checks the conditional path still lands the new
// bodies: a changed object arrives as a full 200 with the body in the
// same round trip.
func TestConditionalRefreshTransfersChanges(t *testing.T) {
	src, m := newTestPair(t, []float64{50, 50}, 4)
	src.Advance(3)
	for now := 1.0; now <= 3; now += 0.25 {
		if _, err := m.Step(now); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Status()
	if st.Transfers == 0 {
		t.Error("fast-changing origin produced no transfers through the conditional path")
	}
	for id := 0; id < 2; id++ {
		body, ver, err := m.Access(id)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("object %d version %d", id, ver)
		if string(body) != want {
			t.Errorf("object %d: body %q does not match served version %d", id, body, ver)
		}
	}
}

// TestConditionalFallbackOnIgnoringOrigin points a mirror at an origin
// that advertises nothing conditional and answers every conditional
// GET with a full 200 of the version the mirror already holds. The
// first such answer must permanently revert the mirror to
// HEAD-then-GET — otherwise every poll pays a full transfer. The
// origin answers GET /objects like any other path, so the seed's one
// batch probe gets a 200 that is not a batch and seeds per object.
func TestConditionalFallbackOnIgnoringOrigin(t *testing.T) {
	var heads, gets, batches int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/catalog":
			io.WriteString(w, `[{"id":0,"size":1}]`)
		case r.URL.Path == "/objects":
			batches++
			w.Header().Set("X-Version", "7")
			io.WriteString(w, "payload v7")
		default:
			// Ignores X-If-Version entirely: always a full 200.
			w.Header().Set("X-Version", "7")
			if r.Method == http.MethodHead {
				heads++
				return
			}
			gets++
			io.WriteString(w, "payload v7")
		}
	}))
	defer srv.Close()
	m, err := New(context.Background(), Config{
		Upstream:    NewSourceClient(srv.URL, srv.Client()),
		Plan:        core.Config{Bandwidth: 1},
		ReplanEvery: 10,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for now := 1.0; now <= 6; now++ {
		if _, err := m.Step(now); err != nil {
			t.Fatal(err)
		}
	}
	m.mu.Lock()
	off := m.condSrc == nil
	m.mu.Unlock()
	if !off {
		t.Error("mirror did not detect that the origin ignores conditions")
	}
	if st := m.Status(); st.NotModified != 0 {
		t.Errorf("counted %d not-modified polls against an unconditional origin", st.NotModified)
	}
	// After the revert the polls are HEADs again: the seeding GET plus
	// at most one burned conditional GET.
	if heads == 0 {
		t.Error("no HEAD polls after reverting to the unconditional protocol")
	}
	if gets > 2 {
		t.Errorf("%d full GETs; the conditional probe should burn at most one beyond seeding", gets)
	}
	if batches != 1 {
		t.Errorf("%d GET /objects requests, want the seed's one probe", batches)
	}
}

// TestMirrorServesSourceProtocol stands a SourceClient downstream of a
// mirror's own Handler — the composition hierarchy chains on — and
// exercises the per-object source protocol against it: catalog, HEAD
// version, conditional 304, and conditional miss. A mirror does not
// serve GET /objects.
func TestMirrorServesSourceProtocol(t *testing.T) {
	_, m := newTestPair(t, []float64{2, 1, 0.5}, 3)
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	down := NewSourceClient(srv.URL, srv.Client())
	ctx := context.Background()

	catalog, err := down.Catalog(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(catalog) != 3 || catalog[2].ID != 2 {
		t.Fatalf("catalog = %+v", catalog)
	}
	if _, _, err := down.FetchBatch(ctx, []int{0, 1}); !errors.Is(err, ErrBatchUnsupported) {
		t.Errorf("FetchBatch from a mirror = %v, want ErrBatchUnsupported", err)
	}
	ver, err := down.Version(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	body, gotVer, notMod, err := down.FetchIfNewer(ctx, 0, ver)
	if err != nil {
		t.Fatal(err)
	}
	if !notMod || body != nil || gotVer != ver {
		t.Errorf("conditional hit: notMod=%v body=%q ver=%d, want 304 echoing %d", notMod, body, gotVer, ver)
	}
	body, gotVer, notMod, err = down.FetchIfNewer(ctx, 0, ver-1)
	if err != nil {
		t.Fatal(err)
	}
	if notMod || len(body) == 0 || gotVer != ver {
		t.Errorf("conditional miss: notMod=%v body=%q ver=%d", notMod, body, gotVer)
	}
	// Raw protocol check: a conditional hit carries no body bytes and
	// the 304 status, exactly what the origin protocol promises.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/object/0", nil)
	req.Header.Set("X-If-Version", strconv.Itoa(ver))
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Errorf("conditional hit returned %s", resp.Status)
	}
	if resp.Header.Get("X-Version") != strconv.Itoa(ver) {
		t.Errorf("304 carries X-Version %q, want %d", resp.Header.Get("X-Version"), ver)
	}
}
