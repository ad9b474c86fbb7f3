package httpmirror

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"freshen/internal/stats"
)

// Source is the upstream a mirror refreshes from. *SourceClient is the
// HTTP implementation; the fleet layer wraps one to expose a shard's
// slice of a global catalog under dense local ids. Implementations
// must be safe for concurrent use.
type Source interface {
	// Catalog lists the objects the source offers; ids must be dense
	// starting at 0.
	Catalog(ctx context.Context) ([]CatalogEntry, error)
	// Fetch downloads one object's body and current version.
	Fetch(ctx context.Context, id int) (body []byte, version int, err error)
	// Version reveals an object's current version without the body —
	// the cheap change poll.
	Version(ctx context.Context, id int) (int, error)
	// Retries and Failures report the source's lifetime transport
	// counters (attempts beyond the first; calls that exhausted every
	// attempt).
	Retries() int64
	Failures() int64
}

// ConditionalSource is an optional Source extension for origins that
// answer version-conditional fetches. FetchIfNewer sends the caller's
// last-seen version; a source still holding it reports notModified with
// no body, so an unchanged poll costs headers instead of a transfer —
// the saving that makes deep mirror chains affordable, since every
// level repolls the one above it. The mirror probes for this interface
// and falls back to the HEAD-then-GET protocol when the source either
// does not implement it or demonstrably ignores the condition.
type ConditionalSource interface {
	FetchIfNewer(ctx context.Context, id, have int) (body []byte, version int, notModified bool, err error)
}

// BatchSource is an optional Source extension for origins that serve
// GET /objects, many objects in one response. Seeding claims ids in
// batches and fetches each batch with one call, so a 50,000-object
// boot makes ~200 round trips instead of 50,000. FetchBatch returns
// one body and version per id, in the order of ids, and must not
// retain ids. Each body is a string, the form a view keeps, so a
// decoder can build it once from the response. An upstream that does
// not serve batches answers ErrBatchUnsupported, and the caller fetches
// one object at a time.
type BatchSource interface {
	FetchBatch(ctx context.Context, ids []int) (bodies []string, versions []int, err error)
}

// ErrBatchUnsupported is a BatchSource's answer when its upstream does
// not serve GET /objects.
var ErrBatchUnsupported = errors.New("httpmirror: upstream does not serve GET /objects")

// maxBatchIDs caps the ids one GET /objects may name, and so the
// response one request can ask for. seedBatch stays at or below it.
const maxBatchIDs = 1024

// batchContentType marks a GET /objects response. A 200 of any other
// type comes from a catch-all origin that does not serve batches.
const batchContentType = "application/x-freshen-objects"

// appendFrame appends one GET /objects frame: the line
// "{id} {version} {len}\n", then the body's len bytes.
func appendFrame(dst []byte, id, version int, body []byte) []byte {
	dst = strconv.AppendInt(dst, int64(id), 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(version), 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(len(body)), 10)
	dst = append(dst, '\n')
	return append(dst, body...)
}

// parseBatchIDs parses GET /objects's ids parameter: 1 to maxBatchIDs
// comma-separated ids, each in [0, n).
func parseBatchIDs(list string, n int) ([]int, error) {
	if list == "" {
		return nil, errors.New("empty id list")
	}
	k := strings.Count(list, ",") + 1
	if k > maxBatchIDs {
		return nil, fmt.Errorf("%d ids, at most %d per request", k, maxBatchIDs)
	}
	ids := make([]int, 0, k)
	for rest, more := list, true; more; {
		var f string
		f, rest, more = strings.Cut(rest, ",")
		id, err := strconv.Atoi(f)
		if err != nil || id < 0 || id >= n {
			return nil, fmt.Errorf("bad object id %q", f)
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// UpstreamHealth is an optional Source extension for sources that are
// themselves mirrors (hierarchy.MirrorSource). It surfaces the
// upstream tier's own degradation signals so a downstream mirror can
// compound them into its serving headers: a regional mirror that is
// source-degraded hands out stale copies with X-Staleness-Periods set,
// and an edge mirror refreshing from it must add that age to its own
// when it tells clients how stale they are.
type UpstreamHealth interface {
	// UpstreamDegraded reports whether the upstream tier most recently
	// identified itself as source-degraded.
	UpstreamDegraded() bool
	// UpstreamStaleness returns the upstream's last-reported staleness
	// for an object, in periods (0 when the upstream is healthy or has
	// not reported).
	UpstreamStaleness(id int) float64
	// UpstreamURL identifies the upstream tier for topology walks.
	UpstreamURL() string
}

// SimulatedSource is an origin whose objects change as independent
// Poisson processes on a caller-supplied clock (time is in periods, as
// everywhere in this repository). It is safe for concurrent use.
type SimulatedSource struct {
	mu      sync.Mutex
	rng     *stats.RNG
	lambdas []float64
	sizes   []float64
	version []int
	nextUp  []float64 // time of each object's next update
	now     float64
}

// NewSimulatedSource creates a source with the given change rates and
// sizes (sizes may be nil for unit sizes). All objects start at
// version 0 at time 0.
func NewSimulatedSource(lambdas, sizes []float64, seed int64) (*SimulatedSource, error) {
	if len(lambdas) == 0 {
		return nil, fmt.Errorf("httpmirror: source needs at least one object")
	}
	if sizes != nil && len(sizes) != len(lambdas) {
		return nil, fmt.Errorf("httpmirror: %d sizes for %d objects", len(sizes), len(lambdas))
	}
	s := &SimulatedSource{
		rng:     stats.NewRNG(seed),
		lambdas: append([]float64(nil), lambdas...),
		version: make([]int, len(lambdas)),
		nextUp:  make([]float64, len(lambdas)),
	}
	if sizes == nil {
		s.sizes = make([]float64, len(lambdas))
		for i := range s.sizes {
			s.sizes[i] = 1
		}
	} else {
		s.sizes = append([]float64(nil), sizes...)
	}
	for i, l := range lambdas {
		if l < 0 {
			return nil, fmt.Errorf("httpmirror: object %d has negative change rate %v", i, l)
		}
		s.nextUp[i] = s.next(l, 0)
	}
	return s, nil
}

// next returns the next Poisson event time after t for rate l, or +Inf
// for rate 0.
func (s *SimulatedSource) next(l, t float64) float64 {
	if l <= 0 {
		return inf
	}
	return t + s.rng.ExpFloat64()/l
}

const inf = 1e308

// Advance moves the source clock forward, applying any updates due.
func (s *SimulatedSource) Advance(now float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if now > s.now {
		s.now = now
	}
	for i := range s.lambdas {
		for s.nextUp[i] <= s.now {
			s.version[i]++
			s.nextUp[i] = s.next(s.lambdas[i], s.nextUp[i])
		}
	}
}

// Now returns the source clock.
func (s *SimulatedSource) Now() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Version returns an object's current version.
func (s *SimulatedSource) Version(id int) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id < 0 || id >= len(s.version) {
		return 0, fmt.Errorf("httpmirror: object %d outside [0, %d)", id, len(s.version))
	}
	return s.version[id], nil
}

// versions returns each id's current version, all read under one
// lock. Every id must be in range.
func (s *SimulatedSource) versions(ids []int) []int {
	out := make([]int, len(ids))
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, id := range ids {
		out[k] = s.version[id]
	}
	return out
}

// appendBody appends object id's body at version ver.
func appendBody(dst []byte, id, ver int) []byte {
	dst = append(dst, "object "...)
	dst = strconv.AppendInt(dst, int64(id), 10)
	dst = append(dst, " version "...)
	return strconv.AppendInt(dst, int64(ver), 10)
}

// Catalog lists the source's objects.
func (s *SimulatedSource) Catalog() []CatalogEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]CatalogEntry, len(s.lambdas))
	for i := range out {
		out[i] = CatalogEntry{ID: i, Size: s.sizes[i]}
	}
	return out
}

// Handler serves the source protocol over HTTP, GET /objects included.
// A batch frame's body is built from the version it carries, so no
// frame pairs a body with another version.
func (s *SimulatedSource) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/catalog", func(w http.ResponseWriter, r *http.Request) {
		serveCatalog(w, r, s.Catalog)
	})
	mux.HandleFunc("/object/", func(w http.ResponseWriter, r *http.Request) {
		idStr := strings.TrimPrefix(r.URL.Path, "/object/")
		id, err := strconv.Atoi(idStr)
		if err != nil {
			http.Error(w, "bad object id", http.StatusBadRequest)
			return
		}
		ver, err := s.Version(id)
		if err != nil {
			http.Error(w, "no such object", http.StatusNotFound)
			return
		}
		w.Header().Set("X-Version", strconv.Itoa(ver))
		switch r.Method {
		case http.MethodHead:
			// headers only
		case http.MethodGet:
			// Version-conditional fetch: a client already holding the
			// current version gets 304 and no body.
			if ifv := r.Header.Get("X-If-Version"); ifv != "" {
				if have, err := strconv.Atoi(ifv); err == nil && have == ver {
					w.WriteHeader(http.StatusNotModified)
					return
				}
			}
			w.Write(appendBody(nil, id, ver))
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
	mux.HandleFunc("/objects", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		ids, err := parseBatchIDs(r.URL.Query().Get("ids"), len(s.lambdas))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		out, body := make([]byte, 0, 48*len(ids)), []byte(nil)
		for k, ver := range s.versions(ids) {
			body = appendBody(body[:0], ids[k], ver)
			out = appendFrame(out, ids[k], ver, body)
		}
		w.Header().Set("Content-Type", batchContentType)
		w.Header().Set("Content-Length", strconv.Itoa(len(out)))
		w.Write(out)
	})
	return mux
}
