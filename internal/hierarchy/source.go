package hierarchy

import (
	"context"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"

	"freshen/internal/httpmirror"
)

// MirrorSource adapts an upstream mirror's HTTP API into the Source
// contract a downstream mirror refreshes from. A mirror serves the
// origin's per-object protocol — GET /catalog, GET/HEAD /object/{id},
// conditional fetches via X-If-Version — but not the batch GET
// /objects, so a mirror below another seeds one object at a time and
// needs no other new code to sit below a mirror instead of an origin.
//
// What the adapter adds is hierarchy awareness: every object response
// passes through an observing transport that records the upstream's
// degradation headers. When the upstream reports itself
// source-degraded (its own origin is unreachable), the downstream
// mirror learns it through the UpstreamHealth interface and enters
// source-degraded mode too, compounding the upstream's reported
// staleness into its own serving headers. The signal self-clears: a
// healthy upstream answer resets it.
//
// MirrorSource is safe for concurrent use.
type MirrorSource struct {
	*httpmirror.SourceClient
	obs *upstreamObserver
	url string
}

var (
	_ httpmirror.Source            = (*MirrorSource)(nil)
	_ httpmirror.ConditionalSource = (*MirrorSource)(nil)
	_ httpmirror.UpstreamHealth    = (*MirrorSource)(nil)
	_ httpmirror.BatchSource       = (*MirrorSource)(nil)
)

// NewMirrorSource creates a source that refreshes from the mirror at
// base (e.g. "http://regional:8080"). A nil client means a transport
// of the source's own, sized for seeding and shared with no other
// client (httpmirror.NewTransport): it opens at most four connections
// to base, and a fifth concurrent request waits for one to free. A
// non-nil client is cloned, never mutated — the observer transport
// wraps the clone's.
func NewMirrorSource(base string, client *http.Client) *MirrorSource {
	var clone http.Client
	if client == nil {
		clone.Transport = httpmirror.NewTransport()
	} else {
		clone = *client
	}
	obs := &upstreamObserver{next: clone.Transport}
	clone.Transport = obs
	return &MirrorSource{
		SourceClient: httpmirror.NewSourceClient(base, &clone),
		obs:          obs,
		url:          strings.TrimRight(base, "/"),
	}
}

// Catalog lists the upstream mirror's objects and sizes the observer's
// per-object staleness vector to match.
func (s *MirrorSource) Catalog(ctx context.Context) ([]httpmirror.CatalogEntry, error) {
	entries, err := s.SourceClient.Catalog(ctx)
	if err == nil {
		s.obs.grow(len(entries))
	}
	return entries, err
}

// FetchBatch reports httpmirror.ErrBatchUnsupported without asking the
// upstream, overriding the SourceClient's. A batch response carries no
// per-object X-Mirror-Mode or X-Staleness-Periods headers, so a mirror
// booting below a source-degraded one would under-report staleness.
func (s *MirrorSource) FetchBatch(context.Context, []int) ([]string, []int, error) {
	return nil, nil, httpmirror.ErrBatchUnsupported
}

// UpstreamDegraded reports whether the upstream mirror most recently
// identified itself as source-degraded.
func (s *MirrorSource) UpstreamDegraded() bool { return s.obs.degraded.Load() }

// UpstreamStaleness returns the upstream's last-reported staleness for
// an object in periods (0 when healthy or never reported). Lock-free:
// the downstream mirror calls this on its serving path.
func (s *MirrorSource) UpstreamStaleness(id int) float64 { return s.obs.staleness(id) }

// UpstreamURL identifies the upstream tier, for topology walks.
func (s *MirrorSource) UpstreamURL() string { return s.url }

// upstreamObserver is the RoundTripper that reads the upstream's
// degradation headers off every object response. State is atomic
// throughout: writes happen on the refresh path, reads on the
// downstream mirror's lock-free serving path.
type upstreamObserver struct {
	next     http.RoundTripper
	degraded atomic.Bool
	stale    atomic.Pointer[[]atomic.Uint64] // per-object staleness, Float64bits
}

func (o *upstreamObserver) RoundTrip(req *http.Request) (*http.Response, error) {
	next := o.next
	if next == nil {
		next = http.DefaultTransport
	}
	resp, err := next.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	if rest, ok := strings.CutPrefix(req.URL.Path, "/object/"); ok {
		if id, aerr := strconv.Atoi(rest); aerr == nil {
			o.note(id, resp)
		}
	}
	return resp, nil
}

// CloseIdleConnections passes the client's call on to the transport
// the observer wraps, which owns the connections.
func (o *upstreamObserver) CloseIdleConnections() {
	if c, ok := o.next.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

// note folds one object response's headers into the degradation state.
// Only substantive answers count: a 503 shed or an error page says
// nothing about the upstream's mode, and must not clear a standing
// degradation signal.
func (o *upstreamObserver) note(id int, resp *http.Response) {
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotModified {
		return
	}
	mode := resp.Header.Get("X-Mirror-Mode")
	if strings.Contains(mode, "source-degraded") {
		o.degraded.Store(true)
		st := 0.0
		if v, err := strconv.ParseFloat(resp.Header.Get("X-Staleness-Periods"), 64); err == nil && v > 0 {
			st = v
		}
		o.setStale(id, st)
		return
	}
	// A healthy (or merely persist-degraded) answer self-clears the
	// source axis: the upstream is verifying against its origin again.
	o.degraded.Store(false)
	o.setStale(id, 0)
}

// grow ensures the staleness vector covers n objects, preserving any
// recorded values. Lock-free via CAS; concurrent growers retry.
func (o *upstreamObserver) grow(n int) {
	for {
		cur := o.stale.Load()
		if cur != nil && len(*cur) >= n {
			return
		}
		next := make([]atomic.Uint64, n)
		if cur != nil {
			for i := range *cur {
				next[i].Store((*cur)[i].Load())
			}
		}
		if o.stale.CompareAndSwap(cur, &next) {
			return
		}
	}
}

func (o *upstreamObserver) setStale(id int, periods float64) {
	s := o.stale.Load()
	if s == nil || id < 0 || id >= len(*s) {
		return
	}
	(*s)[id].Store(math.Float64bits(periods))
}

func (o *upstreamObserver) staleness(id int) float64 {
	s := o.stale.Load()
	if s == nil || id < 0 || id >= len(*s) {
		return 0
	}
	return math.Float64frombits((*s)[id].Load())
}
