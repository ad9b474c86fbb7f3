package httpmirror

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"

	"freshen/internal/core"
)

// referenceCatalog is the decode SourceClient.Catalog ran before the
// canonical parser, and still runs on every body the parser declines.
func referenceCatalog(body []byte) ([]CatalogEntry, error) {
	var entries []CatalogEntry
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&entries)
	return entries, err
}

// checkAgainstReference fails unless decodeCatalog gives the
// reference's entries, sizes bit for bit, or the reference's error.
func checkAgainstReference(t *testing.T, body []byte) {
	t.Helper()
	got, gotErr := decodeCatalog(body)
	want, wantErr := referenceCatalog(body)
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("body %q: error %v, reference %v", body, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if len(got) != len(want) {
		t.Fatalf("body %q: %d entries, reference %d", body, len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Size) != math.Float64bits(want[i].Size) {
			t.Fatalf("body %q: entry %d = %+v, reference %+v", body, i, got[i], want[i])
		}
	}
}

// TestCatalogDecodeMatchesReference: every body decodes to what
// json.Decoder gives, and only canonical ones take the hand parser.
func TestCatalogDecodeMatchesReference(t *testing.T) {
	for _, c := range []struct {
		body string
		fast bool
	}{
		{`[{"id":0,"size":1},{"id":1,"size":2.5}]` + "\n", true},
		{`[{"id":0,"size":1}]`, true},
		{"[]\n", true},
		{`[{"id":0,"size":1e-7},{"id":1,"size":1e+21},{"id":2,"size":1E21}]`, true},
		{`[{"id":0,"size":1e-400}]`, true},
		{`[{"id":-0,"size":-0}]`, true},
		{`[{"id":-7,"size":-0.5}]`, true},
		{`[{"id":9223372036854775807,"size":1}]`, true},
		{`[{"id":1234567890,"size":1}]`, true},
		// Leading zeros, and ids that are not integers.
		{`[{"id":01,"size":1}]`, false},
		{`[{"id":0,"size":007}]`, false},
		{`[{"id":1.0,"size":1}]`, false},
		{`[{"id":1e2,"size":1}]`, false},
		{`[{"id":9223372036854775808,"size":1}]`, false},
		// Tokens outside JSON's number grammar, and out of range.
		{`[{"id":0,"size":NaN}]`, false},
		{`[{"id":0,"size":Infinity}]`, false},
		{`[{"id":0,"size":-Inf}]`, false},
		{`[{"id":0x1,"size":1}]`, false},
		{`[{"id":0,"size":0x1p-2}]`, false},
		{`[{"id":0,"size":1e400}]`, false},
		{`[{"id":0,"size":+1}]`, false},
		{`[{"id":0,"size":.5}]`, false},
		{`[{"id":0,"size":1.}]`, false},
		{`[{"id":0,"size":1e}]`, false},
		{`[{"id":0,"size":1_000}]`, false},
		// Whitespace, other keys and orders: the reference decodes them.
		{"[\n  {\n    \"id\": 0,\n    \"size\": 1\n  }\n]\n", false},
		{`[ {"id":0,"size":1} ]`, false},
		{`[{"size":1,"id":0}]`, false},
		{`[{"ID":0,"Size":1}]`, false},
		{`[{"id":0,"size":1,"etag":"x"}]`, false},
		{`[{"id":0}]`, false},
		{`[{"id":0,"size":1,"size":2}]`, false},
		// Trailing bytes after the array, which the reference ignores.
		{`[{"id":0,"size":1}]` + "\n\n", false},
		{`[{"id":0,"size":1}]garbage`, false},
		{`[{"id":0,"size":1}][]`, false},
		// Not a catalog at all.
		{`[{"id":0,"size":1},]`, false},
		{`[{"id":0,"size":1},{"id":1`, false},
		{`null`, false},
		{``, false},
		{`{}`, false},
		{`[{"id":"0","size":1}]`, false},
	} {
		_, fast := parseCatalog([]byte(c.body))
		if fast != c.fast {
			t.Errorf("body %q: hand parser took it = %v, want %v", c.body, fast, c.fast)
		}
		checkAgainstReference(t, []byte(c.body))
	}
}

// TestCatalogEncodeMatchesJSON: appendCatalog writes json.Marshal's
// bytes and a newline, and its output takes the hand parser back to
// the same entries; a size that is not finite is json's error.
func TestCatalogEncodeMatchesJSON(t *testing.T) {
	entries := []CatalogEntry{
		{0, 1}, {1, 2.5}, {2, 1e-7}, {3, 1e21}, {4, 1e20}, {5, 123456789.125},
		{6, math.Copysign(0, -1)}, {7, 5e-324}, {8, math.MaxFloat64}, {9, 1e-6},
		{10, 9.999e-7}, {11, 0.1}, {12, -3.75e-9}, {13, 1 << 53}, {14, 1<<53 - 1}, {15, -(1<<53 - 1)},
		{16, -2}, {17, 1<<54 + 8}, {-1, 1}, {math.MaxInt, 1}, {math.MinInt, 1},
	}
	checkEncoding(t, entries)
	checkEncoding(t, []CatalogEntry{})
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := []CatalogEntry{{0, 1}, {1, f}}
		_, err := appendCatalog(nil, bad)
		_, want := json.Marshal(bad)
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("size %v: error %v, json.Marshal's %v", f, err, want)
		}
	}
}

func checkEncoding(t *testing.T, entries []CatalogEntry) {
	t.Helper()
	got, err := appendCatalog(nil, entries)
	want, wantErr := json.Marshal(entries)
	if err != nil || wantErr != nil {
		t.Fatalf("appendCatalog: %v; json.Marshal: %v", err, wantErr)
	}
	if want = append(want, '\n'); !bytes.Equal(got, want) {
		t.Fatalf("appendCatalog wrote\n%s\njson.Marshal\n%s", got, want)
	}
	back, ok := parseCatalog(got)
	if !ok || len(back) != len(entries) {
		t.Fatalf("hand parser declined its own encoding %q", got)
	}
	for i := range back {
		if back[i].ID != entries[i].ID || math.Float64bits(back[i].Size) != math.Float64bits(entries[i].Size) {
			t.Fatalf("entry %d round-tripped to %+v, want %+v", i, back[i], entries[i])
		}
	}
}

// TestCatalogServedAsJSONEncoderWrote: SimulatedSource and Mirror both
// answer GET /catalog with json.Encoder's bytes and a Content-Length;
// a source with a size that is not finite answers 500 with json's
// message, as its encoder did.
func TestCatalogServedAsJSONEncoderWrote(t *testing.T) {
	sizes := []float64{1, 2.5, 1e-7, 3e21, 0.1, 1234}
	src, err := NewSimulatedSource(make([]float64, len(sizes)), sizes, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(src.Catalog())
	want = append(want, '\n')
	srv := httptest.NewServer(src.Handler())
	defer srv.Close()
	m, err := New(context.Background(), Config{
		Upstream: NewSourceClient(srv.URL, srv.Client()),
		Plan:     core.Config{Bandwidth: 2},
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, h := range map[string]http.Handler{"source": src.Handler(), "mirror": m.Handler()} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/catalog", nil))
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("%s: %d %q, want 200 %q", name, rec.Code, rec.Body.Bytes(), want)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(want)) {
			t.Errorf("%s: Content-Length %q, want %d", name, cl, len(want))
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", name, ct)
		}
	}

	nan, err := NewSimulatedSource([]float64{1, 1}, []float64{1, math.NaN()}, 1)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	nan.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/catalog", nil))
	if rec.Code != http.StatusInternalServerError || rec.Body.String() != "json: unsupported value: NaN\n" {
		t.Errorf("NaN size: %d %q", rec.Code, rec.Body.String())
	}
}

// TestCatalogTruncatedTransferRetried: an origin that sends half of a
// 2,000-entry catalog and hangs up costs one retry, not the boot; a
// catalog that arrives whole but does not decode is not retried.
func TestCatalogTruncatedTransferRetried(t *testing.T) {
	src := newSimSource(t, 2000)
	body, err := appendCatalog(nil, src.s.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) > 1 {
			w.Write(body)
			return
		}
		conn, buf, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		buf.WriteString("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: " + strconv.Itoa(len(body)) + "\r\n\r\n")
		buf.Write(body[:len(body)/2])
		buf.Flush()
		conn.Close()
	}))
	defer srv.Close()
	c := NewSourceClient(srv.URL, srv.Client())
	c.SetRetryPolicy(fastRetry(3))
	entries, err := c.Catalog(context.Background())
	if err != nil || len(entries) != 2000 {
		t.Fatalf("Catalog = %d entries, %v", len(entries), err)
	}
	if r := c.Retries(); r != 1 {
		t.Errorf("Retries = %d, want 1", r)
	}

	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(body[:len(body)/2])
	}))
	defer bad.Close()
	c = NewSourceClient(bad.URL, bad.Client())
	c.SetRetryPolicy(fastRetry(3))
	if _, err := c.Catalog(context.Background()); err == nil || c.Retries() != 0 {
		t.Errorf("a whole body cut off by its sender: %v after %d retries; want an error and none", err, c.Retries())
	}
}

// FuzzCatalog holds the codec to encoding/json. The input, read as a
// response body, must decode (SourceClient.Catalog included) to the
// reference decode's entries or its permanent error. Read as a list
// of 16-byte (id, size) records, non-finite sizes skipped, it must
// encode to json.Marshal's bytes and a newline and come back through
// the hand parser bit for bit.
func FuzzCatalog(f *testing.F) {
	f.Add([]byte(`[{"id":0,"size":1},{"id":1,"size":2.5}]` + "\n"))
	f.Add([]byte(`[{"id":0,"size":1e-7},{"id":1,"size":1e+21}]`))
	f.Add([]byte(`[{"id":-0,"size":-0},{"id":01,"size":1}]`))
	f.Add([]byte(`[{"id":1.0,"size":1}]`))
	f.Add([]byte(`[{"id":0,"size":NaN}]`))
	f.Add([]byte(`[{"size":1,"id":0,"x":[]}] trailing`))
	f.Add([]byte("[\n {\"id\": 0, \"size\": 1}\n]"))
	f.Add([]byte{})
	var in []byte // the body c's origin answers; inputs run one at a time
	c := NewSourceClient("http://origin", &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		return &http.Response{
			StatusCode:    http.StatusOK,
			Status:        "200 OK",
			ContentLength: int64(len(in)),
			Body:          io.NopCloser(bytes.NewReader(in)),
			Request:       r,
		}, nil
	})})
	c.SetRetryPolicy(RetryPolicy{MaxAttempts: 1})
	f.Fuzz(func(t *testing.T, body []byte) {
		in = body
		checkAgainstReference(t, in)
		got, err := c.Catalog(context.Background())
		want, wantErr := referenceCatalog(in)
		switch {
		case wantErr != nil:
			if err == nil || !bytes.HasSuffix([]byte(err.Error()), []byte(wantErr.Error())) {
				t.Fatalf("Catalog error %v, reference %v", err, wantErr)
			}
		case len(want) == 0:
			if err == nil {
				t.Fatal("Catalog accepted an empty catalog")
			}
		case err != nil || len(got) != len(want):
			t.Fatalf("Catalog = %d entries, %v; reference %d", len(got), err, len(want))
		}

		entries := make([]CatalogEntry, 0, len(in)/16)
		for rec := in; len(rec) >= 16; rec = rec[16:] {
			size := math.Float64frombits(binary.LittleEndian.Uint64(rec[8:]))
			if math.IsNaN(size) || math.IsInf(size, 0) {
				continue
			}
			entries = append(entries, CatalogEntry{ID: int(int64(binary.LittleEndian.Uint64(rec))), Size: size})
		}
		checkEncoding(t, entries)
	})
}

// BenchmarkCatalog times one catalog fetch of N=50,000 unit-size
// objects over loopback: the source's encode, the transfer and the
// client's decode.
func BenchmarkCatalog(b *testing.B) {
	src, err := NewSimulatedSource(make([]float64, 50_000), nil, 1)
	if err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(src.Handler())
	defer srv.Close()
	c := NewSourceClient(srv.URL, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Catalog(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}
