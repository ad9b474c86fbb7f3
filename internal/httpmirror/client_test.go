package httpmirror

import (
	"context"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
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
// above the presizing cap is never allocated before the body arrives.
func TestHugeContentLengthAllocatesNothingUpFront(t *testing.T) {
	const declared = 64 << 20
	client := &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
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
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > declared/8 {
		t.Errorf("two fetches allocated %d bytes for a declared %d-byte body", got, declared)
	}
}

// TestTruncatedBodyIsRetried: a body cut short of its Content-Length
// is a transient failure, retried like a dropped connection.
func TestTruncatedBodyIsRetried(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1)%2 == 1 {
			// Declare 64 bytes, send 5, hang up.
			conn, buf, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			buf.WriteString("HTTP/1.1 200 OK\r\nX-Version: 4\r\nContent-Length: 64\r\n\r\nshort")
			buf.Flush()
			conn.Close()
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
	if r := c.Retries(); r != 2 {
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
