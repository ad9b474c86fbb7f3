package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"freshen/internal/httpmirror"
	"freshen/internal/persist"
)

// Span kinds, one per layer boundary the traced run times from outside.
const (
	spanRead   = iota // client read: dispatch to body read
	spanFront         // the front handler: Mirror.Handler or Fleet.Handler
	spanStep          // Mirror.Step (single-mirror traced runs)
	spanSource        // a call into the Source
	spanAppend        // Storer.Append
	spanCommit        // Storer.Commit
	spanKinds
)

var spanNames = [spanKinds]string{"read", "front", "httpmirror.step", "httpmirror.source", "persist.journal", "persist.snapshot"}

// Source call flags.
const (
	flagErr         = 1 << iota // the call returned an error
	flagNotModified             // a conditional fetch answered 304
)

// span is one timed call. Times are nanoseconds since the tracer's
// epoch. A read's client span and front span share req; a source or
// persist span's parent is the step span whose interval contains it,
// found after the run (see parents).
type span struct {
	start, end int64
	req        uint32
	kind       uint8
	flags      uint8
	lane       uint16 // reader worker or shard index
	done       atomic.Uint32
}

// tracer collects spans into a buffer allocated before the run, so
// recording a span never allocates. Spans past its capacity are
// counted, not stored.
type tracer struct {
	epoch   time.Time
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
	// on gates recording: set-up traffic (seeding N objects per set-up)
	// is not traced.
	on atomic.Bool
	// stepStart is when the Step in flight began, 0 between Steps.
	stepStart atomic.Int64
	// front holds each open-loop read's front-handler duration, indexed
	// by request id - 1, for the client/handler overhead.
	front []atomic.Int64
}

func newTracer(capacity, reads int) *tracer {
	return &tracer{
		epoch: time.Now(),
		spans: make([]span, capacity),
		front: make([]atomic.Int64, reads),
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// at converts a wall time to tracer nanoseconds.
func (t *tracer) at(w time.Time) int64 { return int64(w.Sub(t.epoch)) }

func (t *tracer) record(kind uint8, lane uint16, req uint32, flags uint8, start, end int64) {
	if !t.on.Load() {
		return
	}
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return
	}
	s := &t.spans[i]
	s.start, s.end, s.req, s.kind, s.flags, s.lane = start, end, req, kind, flags, lane
	// Publishes the fields above to whoever reads the span after it
	// observes done.
	s.done.Store(1)
}

// finished returns the indices of every complete span of one kind with
// start in [from, to), in start order.
func (t *tracer) finished(kind uint8, from, to int64) []int {
	n := min(t.next.Load(), int64(len(t.spans)))
	var out []int
	for i := range n {
		s := &t.spans[i]
		if s.done.Load() == 1 && s.kind == kind && s.start >= from && s.start < to {
			out = append(out, int(i))
		}
	}
	sortByStart(t, out)
	return out
}

// children returns the source and persist spans with start in
// [from, to), in start order: the calls a Step makes.
func (t *tracer) children(from, to int64) []int {
	var out []int
	for _, k := range []uint8{spanSource, spanAppend, spanCommit} {
		out = append(out, t.finished(k, from, to)...)
	}
	sortByStart(t, out)
	return out
}

// sortByStart orders span indices by start time.
func sortByStart(t *tracer, xs []int) {
	sort.Slice(xs, func(a, b int) bool { return t.spans[xs[a]].start < t.spans[xs[b]].start })
}

// parents maps every span index of children to the index of the step
// span whose interval contains its start, or -1. Steps never overlap
// (Mirror.Step is serialized), so one sweep over both sorted lists
// suffices; the answer does not depend on which goroutine made the
// call.
func (t *tracer) parents(steps, children []int) []int {
	out := make([]int, len(children))
	j := 0
	for i, c := range children {
		cs := t.spans[c].start
		for j < len(steps) && t.spans[steps[j]].end < cs {
			j++
		}
		out[i] = -1
		if j < len(steps) && t.spans[steps[j]].start <= cs {
			out[i] = steps[j]
		}
	}
	return out
}

// selfTime is the total step time not covered by any child span: the
// step span minus the union of its children's intervals.
func (t *tracer) selfTime(steps, children []int) (self, total int64) {
	parent := t.parents(steps, children)
	covered := make(map[int]int64, len(steps))
	reach := make(map[int]int64, len(steps))
	for i, c := range children {
		p := parent[i]
		if p < 0 {
			continue
		}
		s, e := t.spans[c].start, min(t.spans[c].end, t.spans[p].end)
		if r, ok := reach[p]; ok && s < r {
			s = r
		}
		if e > s {
			covered[p] += e - s
			reach[p] = e
		}
	}
	for _, st := range steps {
		d := t.spans[st].end - t.spans[st].start
		total += d
		self += d - covered[st]
	}
	return self, total
}

// writeChrome writes the spans in Chrome trace-event format (load the
// file in chrome://tracing or ui.perfetto.dev). Read and front spans
// are sampled 1 in 10 by request id; every other span is written.
func (t *tracer) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	n := min(t.next.Load(), int64(len(t.spans)))
	children := t.children(math.MinInt64, math.MaxInt64)
	steps := t.finished(spanStep, math.MinInt64, math.MaxInt64)
	parentOf := make(map[int]int, len(children))
	for i, p := range t.parents(steps, children) {
		parentOf[children[i]] = p
	}
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	for i := range n {
		s := &t.spans[i]
		if s.done.Load() != 1 {
			continue
		}
		if (s.kind == spanRead || s.kind == spanFront) && s.req%10 != 1 {
			continue
		}
		if !first {
			w.WriteByte(',')
		}
		first = false
		parent := -1
		if p, ok := parentOf[int(i)]; ok {
			parent = p
		}
		tid := "lane " + strconv.Itoa(int(s.lane))
		if s.kind == spanRead {
			tid = "reader " + strconv.Itoa(int(s.lane))
		}
		fmt.Fprintf(w, `{"name":%q,"ph":"X","pid":1,"tid":%q,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"req":%d,"flags":%d}}`,
			spanNames[s.kind], tid, float64(s.start)/1e3, float64(s.end-s.start)/1e3, i+1, parent+1, s.req, s.flags)
	}
	fmt.Fprintln(w, "]}")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// requestIDHeader carries a traced read's id from the reader to the
// front handler; it is sent only in traced runs.
const requestIDHeader = "X-Request-Id"

// traceHandler times every request through h as a front span.
func traceHandler(h http.Handler, t *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := t.now()
		h.ServeHTTP(w, r)
		end := t.now()
		var req uint32
		if v := r.Header[requestIDHeader]; len(v) == 1 {
			if id, err := strconv.ParseUint(v[0], 10, 32); err == nil {
				req = uint32(id)
			}
		}
		if req > 0 && int(req) <= len(t.front) {
			t.front[req-1].Store(end - start)
		}
		t.record(spanFront, 0, req, 0, start, end)
	})
}

// tracedSource times every call into a Source. It adds no capability:
// traceSource returns a variant that implements ConditionalSource and
// UpstreamHealth exactly when the inner source does, so the mirror's
// capability probes see the same thing with and without tracing.
type tracedSource struct {
	inner httpmirror.Source
	t     *tracer
	lane  uint16
}

func traceSource(inner httpmirror.Source, t *tracer, lane int) httpmirror.Source {
	base := &tracedSource{inner: inner, t: t, lane: uint16(lane)}
	cond, isCond := inner.(httpmirror.ConditionalSource)
	health, isHealth := inner.(httpmirror.UpstreamHealth)
	switch {
	case isCond && isHealth:
		return tracedCondHealthSource{tracedCondSource{base, cond}, health}
	case isCond:
		return tracedCondSource{base, cond}
	case isHealth:
		return tracedHealthSource{base, health}
	}
	return base
}

func (s *tracedSource) done(start int64, flags uint8, err error) {
	if err != nil {
		flags |= flagErr
	}
	s.t.record(spanSource, s.lane, 0, flags, start, s.t.now())
}

func (s *tracedSource) Catalog(ctx context.Context) ([]httpmirror.CatalogEntry, error) {
	start := s.t.now()
	c, err := s.inner.Catalog(ctx)
	s.done(start, 0, err)
	return c, err
}

func (s *tracedSource) Fetch(ctx context.Context, id int) ([]byte, int, error) {
	start := s.t.now()
	b, v, err := s.inner.Fetch(ctx, id)
	s.done(start, 0, err)
	return b, v, err
}

func (s *tracedSource) Version(ctx context.Context, id int) (int, error) {
	start := s.t.now()
	v, err := s.inner.Version(ctx, id)
	s.done(start, 0, err)
	return v, err
}

func (s *tracedSource) Retries() int64  { return s.inner.Retries() }
func (s *tracedSource) Failures() int64 { return s.inner.Failures() }

type tracedCondSource struct {
	*tracedSource
	cond httpmirror.ConditionalSource
}

func (s tracedCondSource) FetchIfNewer(ctx context.Context, id, have int) ([]byte, int, bool, error) {
	start := s.t.now()
	b, v, nm, err := s.cond.FetchIfNewer(ctx, id, have)
	var flags uint8
	if nm {
		flags = flagNotModified
	}
	s.done(start, flags, err)
	return b, v, nm, err
}

type tracedHealthSource struct {
	*tracedSource
	httpmirror.UpstreamHealth
}

type tracedCondHealthSource struct {
	tracedCondSource
	httpmirror.UpstreamHealth
}

// tracedStore times Append and Commit and forwards Recovery and Sync
// verbatim.
type tracedStore struct {
	inner persist.Storer
	t     *tracer
	lane  uint16
}

func (s *tracedStore) Recovery() persist.RecoveryResult { return s.inner.Recovery() }
func (s *tracedStore) Sync() error                      { return s.inner.Sync() }

func (s *tracedStore) Append(r persist.Record) error {
	start := s.t.now()
	err := s.inner.Append(r)
	s.t.record(spanAppend, s.lane, 0, errFlag(err), start, s.t.now())
	return err
}

func (s *tracedStore) Commit(snap *persist.Snapshot) error {
	start := s.t.now()
	err := s.inner.Commit(snap)
	s.t.record(spanCommit, s.lane, 0, errFlag(err), start, s.t.now())
	return err
}

func errFlag(err error) uint8 {
	if err != nil {
		return flagErr
	}
	return 0
}
