package httpmirror

import (
	"bytes"
	"context"
	"errors"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"freshen/internal/testkit"
)

// TestFetchBodiesExactSize checks that both fetch calls keep exactly
// the body's bytes, with a Content-Length (read into a presized slice)
// and without one (a chunked body, read and then copied).
func TestFetchBodiesExactSize(t *testing.T) {
	const body = "object 9 version 7"
	for _, chunked := range []bool{false, true} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("X-Version", "7")
			io.WriteString(w, body[:9])
			if chunked {
				w.(http.Flusher).Flush()
			}
			io.WriteString(w, body[9:])
		}))
		c := NewSourceClient(srv.URL, srv.Client())
		b, v, err := c.Fetch(context.Background(), 9)
		if err != nil || v != 7 || string(b) != body {
			t.Fatalf("chunked=%v: Fetch = %q, %d, %v", chunked, b, v, err)
		}
		if cap(b) != len(b) {
			t.Errorf("chunked=%v: Fetch kept cap %d for a %d-byte body", chunked, cap(b), len(b))
		}
		b, v, nm, err := c.FetchIfNewer(context.Background(), 9, 6)
		if err != nil || v != 7 || nm || string(b) != body {
			t.Fatalf("chunked=%v: FetchIfNewer = %q, %d, %v, %v", chunked, b, v, nm, err)
		}
		if cap(b) != len(b) {
			t.Errorf("chunked=%v: FetchIfNewer kept cap %d for a %d-byte body", chunked, cap(b), len(b))
		}
		srv.Close()
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestHugeContentLengthAllocatesNothingUpFront: a declared length
// above the presizing cap, a response's or a batch frame's, is never
// allocated before the body arrives. A catalog's cap is larger, and a
// catalog declared past it allocates no more than the cap.
func TestHugeContentLengthAllocatesNothingUpFront(t *testing.T) {
	const declared = 64 << 20
	const catalog = `[{"id":0,"size":1}]`
	client := &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		if r.URL.Path == "/catalog" {
			return &http.Response{
				StatusCode:    http.StatusOK,
				Status:        "200 OK",
				ContentLength: 2 * maxPresizedCatalog,
				Body:          io.NopCloser(strings.NewReader(catalog)),
				Request:       r,
			}, nil
		}
		if r.URL.Path == "/objects" {
			frame := "0 1 " + strconv.Itoa(declared) + "\nshort body"
			return &http.Response{
				StatusCode:    http.StatusOK,
				Status:        "200 OK",
				Header:        http.Header{"Content-Type": {batchContentType}},
				ContentLength: int64(len(frame)),
				Body:          io.NopCloser(strings.NewReader(frame)),
				Request:       r,
			}, nil
		}
		return &http.Response{
			StatusCode:    http.StatusOK,
			Status:        "200 OK",
			Header:        http.Header{"X-Version": {"1"}},
			ContentLength: declared,
			Body:          io.NopCloser(strings.NewReader("short body")),
			Request:       r,
		}, nil
	})}
	c := NewSourceClient("http://127.0.0.1:1", client)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b, _, err := c.Fetch(context.Background(), 0)
	if err != nil || string(b) != "short body" {
		t.Fatalf("Fetch = %q, %v", b, err)
	}
	b, _, _, err = c.FetchIfNewer(context.Background(), 0, 0)
	if err != nil || string(b) != "short body" {
		t.Fatalf("FetchIfNewer = %q, %v", b, err)
	}
	if _, _, err := c.FetchBatch(context.Background(), []int{0}); err == nil {
		t.Fatal("FetchBatch accepted a frame cut short of its length")
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > declared/8 {
		t.Errorf("three fetches allocated %d bytes for a declared %d-byte body", got, declared)
	}

	runtime.ReadMemStats(&before)
	entries, err := c.Catalog(context.Background())
	if err != nil || len(entries) != 1 {
		t.Fatalf("Catalog = %v, %v", entries, err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > maxPresizedCatalog {
		t.Errorf("a catalog declared at %d bytes allocated %d, above the %d-byte cap", 2*maxPresizedCatalog, got, maxPresizedCatalog)
	}
}

// TestTruncatedBodyIsRetried: a body cut short of its Content-Length,
// an object's or a batch's, is a transient failure, retried like a
// dropped connection.
func TestTruncatedBodyIsRetried(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		batch := r.URL.Path == "/objects"
		if calls.Add(1)%2 == 1 {
			// Declare 64 bytes, send 5, hang up.
			conn, buf, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			buf.WriteString("HTTP/1.1 200 OK\r\nX-Version: 4\r\nContent-Type: " + batchContentType + "\r\nContent-Length: 64\r\n\r\nshort")
			buf.Flush()
			conn.Close()
			return
		}
		if batch {
			w.Header().Set("Content-Type", batchContentType)
			w.Write(appendFrame(nil, 0, 4, []byte("whole body")))
			return
		}
		w.Header().Set("X-Version", "4")
		io.WriteString(w, "whole body")
	}))
	defer srv.Close()
	c := NewSourceClient(srv.URL, srv.Client())
	c.SetRetryPolicy(fastRetry(2))
	b, _, err := c.Fetch(context.Background(), 0)
	if err != nil || string(b) != "whole body" {
		t.Fatalf("Fetch = %q, %v", b, err)
	}
	b, _, _, err = c.FetchIfNewer(context.Background(), 0, 1)
	if err != nil || string(b) != "whole body" {
		t.Fatalf("FetchIfNewer = %q, %v", b, err)
	}
	bodies, versions, err := c.FetchBatch(context.Background(), []int{0})
	if err != nil || string(bodies[0]) != "whole body" || versions[0] != 4 {
		t.Fatalf("FetchBatch = %q, %v, %v", bodies, versions, err)
	}
	if r := c.Retries(); r != 3 {
		t.Errorf("Retries = %d, want one per truncated body", r)
	}
}

// TestNilClientSourceClientsShareNoConnection: two clients built with
// a nil http.Client each own a pool, so the second never reuses a
// connection the first left idle.
func TestNilClientSourceClientsShareNoConnection(t *testing.T) {
	src := newSimSource(t, 8)
	var (
		mu    sync.Mutex
		conns = map[string]bool{}
	)
	inner := src.s.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		conns[r.RemoteAddr] = true
		mu.Unlock()
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()
	used := func(c *SourceClient) map[string]bool {
		mu.Lock()
		clear(conns)
		mu.Unlock()
		for i := 0; i < 8; i++ {
			if _, _, err := c.Fetch(context.Background(), i); err != nil {
				t.Fatal(err)
			}
		}
		mu.Lock()
		defer mu.Unlock()
		return maps.Clone(conns)
	}
	a := used(NewSourceClient(srv.URL, nil))
	b := used(NewSourceClient(srv.URL, nil))
	for addr := range b {
		if a[addr] {
			t.Errorf("connection %s served both clients", addr)
		}
	}
}

// batchResponder answers every request with one GET /objects response
// holding body.
func batchResponder(body []byte) *http.Client {
	return &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		return &http.Response{
			StatusCode:    http.StatusOK,
			Status:        "200 OK",
			Header:        http.Header{"Content-Type": {batchContentType}},
			ContentLength: int64(len(body)),
			Body:          io.NopCloser(bytes.NewReader(body)),
			Request:       r,
		}, nil
	})}
}

// TestFetchBatchAllocs: a batch of k bodies costs one allocation per
// body, the slice the mirror keeps, on top of a fixed cost for the
// request and the decoder. Decoding each body twice, into a buffer
// and then into its own slice, would cost two per body.
func TestFetchBatchAllocs(t *testing.T) {
	const fixed = 32
	for _, k := range []int{1, 256} {
		ids := make([]int, k)
		var resp []byte
		for i := range ids {
			ids[i] = i
			resp = appendFrame(resp, i, 1, []byte("object body"))
		}
		c := NewSourceClient("http://origin", batchResponder(resp))
		n := testing.AllocsPerRun(20, func() {
			if _, _, err := c.FetchBatch(context.Background(), ids); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("k=%d: %v allocations", k, n)
		if n > float64(k+fixed) {
			t.Errorf("a batch of %d bodies allocates %v times, want at most %d", k, n, k+fixed)
		}
	}
}

// TestFetchBatchResponses runs FetchBatch for ids 3 and 9 against
// in-memory responses. A well-framed batch returns each body as a
// string allocated at its exact size, measured by the heap it retains;
// a status that says the route is missing, or a 200 that
// is not a batch, is ErrBatchUnsupported; any other framing is a
// permanent error, never retried.
func TestFetchBatchResponses(t *testing.T) {
	big := bytes.Repeat([]byte{'x'}, maxPresizedBody+1)
	frames := func(fs ...[]byte) []byte { return bytes.Join(fs, nil) }
	f3 := appendFrame(nil, 3, 1, []byte("object 3 version 1"))
	f9 := appendFrame(nil, 9, 0, nil)
	for _, tc := range []struct {
		name   string
		status int
		ctype  string
		body   []byte
		want   [][]byte // nil: an error
		unsupp bool
	}{
		{name: "two frames", body: frames(f3, f9), want: [][]byte{[]byte("object 3 version 1"), {}}},
		{name: "body past the presize cap", body: frames(f3, appendFrame(nil, 9, 0, big)), want: [][]byte{[]byte("object 3 version 1"), big}},
		{name: "media type parameters", ctype: batchContentType + "; charset=binary", body: frames(f3, f9), want: [][]byte{[]byte("object 3 version 1"), {}}},
		{name: "404", status: http.StatusNotFound, unsupp: true},
		{name: "405", status: http.StatusMethodNotAllowed, unsupp: true},
		{name: "501", status: http.StatusNotImplemented, unsupp: true},
		{name: "catch-all 200", ctype: "text/plain", body: []byte("hello"), unsupp: true},
		{name: "400", status: http.StatusBadRequest},
		{name: "ids out of order", body: frames(f9, f3)},
		{name: "missing frame", body: f3},
		{name: "bytes after the last frame", body: frames(f3, f9, []byte("\n"))},
		{name: "body cut short", body: frames(f3, []byte("9 0 5\nab"))},
		{name: "negative length", body: frames(f3, []byte("9 0 -1\n"))},
		{name: "two spaces", body: frames(f3, []byte("9  0 0\n"))},
		{name: "no newline", body: frames(f3, []byte("9 0 0"))},
		{name: "overlong header", body: frames(f3, []byte("9 0 "), bytes.Repeat([]byte{'0'}, 8192), []byte("\n"))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.status == 0 {
				tc.status = http.StatusOK
			}
			if tc.ctype == "" {
				tc.ctype = batchContentType
			}
			c := NewSourceClient("http://origin", &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
				if got := r.URL.RequestURI(); got != "/objects?ids=3,9" {
					t.Errorf("request %q", got)
				}
				return &http.Response{
					StatusCode:    tc.status,
					Status:        http.StatusText(tc.status),
					Header:        http.Header{"Content-Type": {tc.ctype}},
					ContentLength: int64(len(tc.body)),
					Body:          io.NopCloser(bytes.NewReader(tc.body)),
					Request:       r,
				}, nil
			})})
			c.SetRetryPolicy(fastRetry(3))
			bodies, versions, err := c.FetchBatch(context.Background(), []int{3, 9})
			switch {
			case tc.unsupp:
				if !errors.Is(err, ErrBatchUnsupported) || c.Failures() != 0 {
					t.Errorf("FetchBatch = %v with %d failures, want ErrBatchUnsupported and none", err, c.Failures())
				}
			case tc.want == nil:
				if err == nil || c.Retries() != 0 {
					t.Errorf("FetchBatch = %v after %d retries, want a permanent error", err, c.Retries())
				}
			default:
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(versions, []int{1, 0}) {
					t.Errorf("versions %v, want [1 0]", versions)
				}
				for k, b := range bodies {
					if b != string(tc.want[k]) {
						t.Errorf("body %d: %d bytes, want %d", k, len(b), len(tc.want[k]))
					}
				}
				// A body retains its own bytes and nothing more: no
				// slack a decoding buffer grew, and no other body of its
				// batch sharing its allocation. The slack covers a large
				// allocation's rounding to 8 KiB pages and the interface
				// that holds the string.
				const slack = 16 << 10
				for k, want := range tc.want {
					retained := testkit.LeastRetained(func() any {
						bodies, _, _ := c.FetchBatch(context.Background(), []int{3, 9})
						return bodies[k]
					})
					if limit := int64(len(want) + slack); retained > limit {
						t.Errorf("body %d of %d bytes retains %d B, want at most %d", k, len(want), retained, limit)
					}
				}
			}
		})
	}
}
