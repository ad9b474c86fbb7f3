package httpmirror

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"path"
	"strconv"
	"strings"
	"sync"
	"testing"

	"freshen/internal/core"
	"freshen/internal/persist"
)

// fuzzMirror lazily builds one shared mirror (4 objects, ids 0–3) for
// the whole fuzzing process; the handler is stateless enough that
// sharing it across fuzz iterations only adds concurrency coverage.
var fuzzMirror struct {
	once    sync.Once
	handler http.Handler
	close   func()
	err     error
}

func fuzzHandler() (http.Handler, error) {
	fuzzMirror.once.Do(func() {
		src, err := NewSimulatedSource([]float64{2, 1, 0.5, 0}, nil, 1)
		if err != nil {
			fuzzMirror.err = err
			return
		}
		srv := httptest.NewServer(src.Handler())
		m, err := New(context.Background(), Config{
			Upstream: NewSourceClient(srv.URL, srv.Client()),
			Plan:     core.Config{Bandwidth: 4},
			Seed:     1,
		})
		if err != nil {
			srv.Close()
			fuzzMirror.err = err
			return
		}
		fuzzMirror.handler = m.Handler()
		fuzzMirror.close = srv.Close
	})
	return fuzzMirror.handler, fuzzMirror.err
}

// FuzzHTTPHandler throws arbitrary methods, paths and bodies at the
// mirror's public handler and asserts it never panics, always answers
// with a sane status, and honors the documented /object contract:
// malformed ids are 400, unknown ids 404, catalog ids 200 with an
// X-Version header.
func FuzzHTTPHandler(f *testing.F) {
	f.Add("GET", "/object/0", []byte{})
	f.Add("GET", "/object/banana", []byte{})
	f.Add("GET", "/object/99", []byte{})
	f.Add("GET", "/object/-1", []byte{})
	f.Add("POST", "/replan", []byte{})
	f.Add("GET", "/healthz", []byte{})
	f.Add("GET", "/status", []byte{})
	f.Add("PUT", "/object/1", []byte("x"))
	f.Add("DELETE", "/../../etc/passwd", []byte{})
	f.Add("GET", "/object/0/../1", []byte{})
	f.Fuzz(func(t *testing.T, method, rawPath string, body []byte) {
		h, err := fuzzHandler()
		if err != nil {
			t.Fatalf("building fuzz mirror: %v", err)
		}
		if !strings.HasPrefix(rawPath, "/") {
			rawPath = "/" + rawPath
		}
		req, err := http.NewRequest(method, "http://mirror.test"+rawPath, strings.NewReader(string(body)))
		if err != nil {
			return // not expressible as an HTTP request; nothing to test
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		code := rec.Code
		if code < 100 || code > 599 {
			t.Fatalf("%s %q: status %d outside the HTTP range", method, rawPath, code)
		}
		if code == http.StatusInternalServerError {
			t.Fatalf("%s %q: internal error: %s", method, rawPath, rec.Body.String())
		}
		// The /object contract. ServeMux answers unclean paths (dot
		// segments, doubled slashes) with a 301 to the cleaned form, so
		// the contract is only asserted on paths the mux routes as-is.
		clean := req.URL.Path
		canonical := path.Clean(clean)
		if canonical != "/" && strings.HasSuffix(clean, "/") {
			canonical += "/"
		}
		if method == http.MethodGet && clean == canonical && strings.HasPrefix(clean, "/object/") {
			rest := strings.TrimPrefix(clean, "/object/")
			id, convErr := strconv.Atoi(rest)
			switch {
			case convErr != nil:
				if code != http.StatusBadRequest {
					t.Fatalf("GET %q: status %d, want 400 for malformed id", rawPath, code)
				}
			case id < 0 || id >= 4:
				if code != http.StatusNotFound {
					t.Fatalf("GET %q: status %d, want 404 for unknown id %d", rawPath, code, id)
				}
			default:
				if code != http.StatusOK {
					t.Fatalf("GET %q: status %d, want 200 for catalog id %d", rawPath, code, id)
				}
				if rec.Header().Get("X-Version") == "" {
					t.Fatalf("GET %q: 200 without X-Version header", rawPath)
				}
			}
		}
	})
}

// FuzzFetchBatch runs arbitrary response bytes and id lists (one id
// per byte of ids) through FetchBatch over an in-memory transport.
// Every run returns an error or exactly one body and version per id,
// each body exactly its frame's length, allocated at that length and
// never longer than what arrived; no input panics. A frame declaring
// more than maxPresizedBody is read as it arrives, not presized
// (TestHugeContentLengthAllocatesNothingUpFront).
func FuzzFetchBatch(f *testing.F) {
	f3 := appendFrame(nil, 3, 1, []byte("object 3 version 1"))
	f9 := appendFrame(nil, 9, 0, nil)
	two := append(append([]byte(nil), f3...), f9...)
	f.Add(two, []byte{3, 9})
	f.Add(two, []byte{9, 3})
	f.Add(two, []byte{3})
	f.Add(two, []byte{3, 9, 9})
	f.Add(two[:len(two)-2], []byte{3, 9})
	f.Add(append(two, '\n'), []byte{3, 9})
	f.Add([]byte("3 1 99999999999999999999\nab"), []byte{3})
	f.Add([]byte("3 1 2097152\nab"), []byte{3})
	f.Add([]byte("3 -1 0\n"), []byte{3})
	f.Add([]byte("3 1 -1\n"), []byte{3})
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, resp, rawIDs []byte) {
		ids := make([]int, len(rawIDs))
		for k, b := range rawIDs {
			ids[k] = int(b)
		}
		c := NewSourceClient("http://origin", &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
			return &http.Response{
				StatusCode:    http.StatusOK,
				Status:        "200 OK",
				Header:        http.Header{"Content-Type": {batchContentType}},
				ContentLength: int64(len(resp)),
				Body:          io.NopCloser(bytes.NewReader(resp)),
				Request:       r,
			}, nil
		})})
		c.SetRetryPolicy(RetryPolicy{MaxAttempts: 1})
		bodies, versions, err := c.FetchBatch(context.Background(), ids)
		if err != nil {
			return
		}
		if len(bodies) != len(ids) || len(versions) != len(ids) {
			t.Fatalf("%d ids: %d bodies and %d versions", len(ids), len(bodies), len(versions))
		}
		// Walk the frames again and hold each body to its own.
		rest := resp
		for k, b := range bodies {
			line, after, ok := bytes.Cut(rest, []byte{'\n'})
			fields := strings.Split(string(line), " ")
			if !ok || len(fields) != 3 {
				t.Fatalf("frame %d accepted with header %q", k, line)
			}
			id, _ := strconv.Atoi(fields[0])
			ver, _ := strconv.Atoi(fields[1])
			size, err := strconv.Atoi(fields[2])
			if err != nil || size < 0 || size > len(after) || id != ids[k] || ver != versions[k] {
				t.Fatalf("frame %d accepted with header %q for id %d, version %d", k, line, ids[k], versions[k])
			}
			if len(b) != size || cap(b) != size || !bytes.Equal(b, after[:size]) {
				t.Fatalf("frame %d: body of %d bytes (cap %d), frame says %d", k, len(b), cap(b), size)
			}
			rest = after[size:]
		}
		if len(rest) != 0 {
			t.Fatalf("%d bytes after the last frame accepted", len(rest))
		}
	})
}

// memStore is an in-memory persist.Storer. Append validates a record
// and assigns its Seq as persist.Store does, and Commit round-trips the
// snapshot through its codec and empties the journal, so recovery sees
// what a store on disk would give it, without an fsync per record.
type memStore struct {
	seq     uint64
	snap    []byte
	records []persist.Record
}

func (s *memStore) Append(r persist.Record) error {
	if err := r.Validate(); err != nil {
		return err
	}
	s.seq++
	r.Seq = s.seq
	s.records = append(s.records, r)
	return nil
}

func (s *memStore) Commit(snap *persist.Snapshot) error {
	snap.LastSeq = s.seq
	data, err := persist.EncodeSnapshot(snap)
	if err != nil {
		return err
	}
	s.snap, s.records = data, nil
	return nil
}

func (s *memStore) Recovery() persist.RecoveryResult {
	rec := persist.RecoveryResult{Records: s.records}
	if s.snap != nil {
		rec.Snapshot, rec.SnapshotErr = persist.DecodeSnapshot(s.snap)
	}
	return rec
}

func (s *memStore) Sync() error { return nil }

// FuzzRecoveryReplayMatchesLive runs a mirror through an arbitrary
// schedule of origin outages, broken objects and snapshots, then
// recovers a second mirror from what the first persisted. The
// recovered breaker, fault map, journaled counters and estimator must
// equal the live mirror's (see TestRecoveryReplayMatchesLive). Each
// input byte is one step of 0.25 periods: bit 7 takes the origin down
// for the step, bit 6 snapshots after it, and bits 0–2 name the broken
// object, 6 and 7 meaning none.
func FuzzRecoveryReplayMatchesLive(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{7}, 16))
	f.Add(append(append(bytes.Repeat([]byte{7}, 8), bytes.Repeat([]byte{0}, 12)...),
		append(append([]byte{0x40}, bytes.Repeat([]byte{0}, 8)...), bytes.Repeat([]byte{0x80}, 16)...)...))
	f.Add([]byte{0x41, 0x81, 0xc2, 3, 0x84, 0x45, 6, 0x87, 0x80, 0x80, 2, 0x40, 0x80})
	f.Fuzz(func(t *testing.T, schedule []byte) {
		if len(schedule) > 200 {
			schedule = schedule[:200]
		}
		src, err := NewSimulatedSource([]float64{3, 1, 0.5, 2, 1, 4}, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		up := &brokenSource{simSource: simSource{src}}
		up.broken.Store(-1)
		store := &memStore{}
		cfg := Config{
			Upstream:      up,
			Plan:          core.Config{Bandwidth: 12},
			ReplanEvery:   2,
			Fault:         FaultPolicy{BreakerThreshold: 3, BreakerCooldown: 1, QuarantineAfter: 2, ProbeEvery: 1},
			Persist:       store,
			SnapshotEvery: 1000,
			Seed:          5,
		}
		live, err := New(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for k, b := range schedule {
			now := 0.25 * float64(k+1)
			up.down.Store(b&0x80 != 0)
			up.broken.Store(int64(b & 7))
			src.Advance(now)
			if _, err := live.Step(now); err != nil {
				t.Fatal(err)
			}
			if b&0x40 != 0 {
				if err := live.FlushSnapshot(); err != nil {
					t.Fatal(err)
				}
			}
		}
		up.down.Store(false)
		up.broken.Store(-1)
		recovered, err := New(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkReplayed(t, replayedState(recovered), replayedState(live))
	})
}
