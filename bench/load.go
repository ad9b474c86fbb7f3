package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"freshen/internal/httpmirror"
	"freshen/internal/stats"
)

// readerConns is the number of keep-alive connections (and worker
// goroutines) the reader uses: one per core of the two-core machine
// the benchmark was sized on.
const readerConns = 2

// reader issues GET /object/{id} reads against the front and checks
// every response against the oracle:
//
//   - a 200 body is exactly "object {id} version {X-Version}" (no torn
//     body/version pair);
//   - X-Version is at most the origin's version when the headers
//     arrive;
//   - per object, a read never sees an older version than one that
//     completed before it was sent.
type reader struct {
	client *http.Client
	base   string
	paths  []string // "/object/{id}", built before the run
	src    *httpmirror.SimulatedSource
	// floor is, per object, the highest version a completed read saw.
	floor []atomic.Int64
	tr    *tracer
	dials atomic.Int64

	// ceiling is a bare net/http server in the same process, read over
	// connections of its own in the saturation window (see closedLoop).
	ceiling       *http.Server
	ceilingURL    string
	ceilingClient *http.Client

	violations atomic.Int64
	firstMu    sync.Mutex
	first      string
}

// ceilingBody is what the ceiling server answers: an object read the
// size of the system's, with nothing behind it.
var ceilingBody = []byte("object 0 version 0")

func newReader(base string, n int, src *httpmirror.SimulatedSource, tr *tracer) (*reader, error) {
	r := &reader{base: base, paths: make([]string, n), src: src, floor: make([]atomic.Int64, n), tr: tr}
	for i := range r.paths {
		r.paths[i] = "/object/" + strconv.Itoa(i)
	}
	dialer := &net.Dialer{}
	r.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     readerConns,
		MaxIdleConnsPerHost: readerConns,
		DisableCompression:  true,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			r.dials.Add(1)
			return dialer.DialContext(ctx, network, addr)
		},
	}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	version := []string{"0"}
	r.ceiling = serverFor(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header()["X-Version"] = version
		w.Write(ceilingBody)
	}))
	go r.ceiling.Serve(ln)
	r.ceilingURL = "http://" + ln.Addr().String() + "/object/0"
	r.ceilingClient = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     readerConns,
		MaxIdleConnsPerHost: readerConns,
		DisableCompression:  true,
	}}
	return r, nil
}

func (r *reader) close() { r.ceiling.Close() }

func (r *reader) violate(format string, args ...any) {
	if r.violations.Add(1) == 1 {
		r.firstMu.Lock()
		r.first = fmt.Sprintf(format, args...)
		r.firstMu.Unlock()
	}
}

// worker is one connection's worth of reader state. Its buffers and
// request are reused across reads.
type worker struct {
	r          *reader
	lane       uint16
	req        *http.Request
	ceilingReq *http.Request
	timer      *timer
	buf        [128]byte
	exp        []byte
	rid        []string
}

// newWorker prepares a worker; close releases its timer.
func (r *reader) newWorker(ctx context.Context, lane int) (*worker, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+"/object/0", nil)
	if err != nil {
		return nil, err
	}
	ceilingReq, err := http.NewRequestWithContext(ctx, http.MethodGet, r.ceilingURL, nil)
	if err != nil {
		return nil, err
	}
	t, err := newTimer()
	if err != nil {
		return nil, err
	}
	return &worker{r: r, lane: uint16(lane), req: req, ceilingReq: ceilingReq, timer: t,
		exp: make([]byte, 0, 64), rid: make([]string, 1)}, nil
}

func (w *worker) close() { w.timer.close() }

// read performs one read of object id. reqID > 0 sends it as the
// request id (traced open-loop reads). It reports whether the read
// succeeded and, if so, whether it served the origin's current version.
func (w *worker) read(id int, reqID uint32) (ok, fresh bool) {
	r := w.r
	floor := r.floor[id].Load()
	w.req.URL.Path = r.paths[id]
	if reqID > 0 {
		w.rid[0] = strconv.FormatUint(uint64(reqID), 10)
		w.req.Header[requestIDHeader] = w.rid
	}
	resp, err := r.client.Do(w.req)
	if err != nil {
		return false, false
	}
	originVer, _ := r.src.Version(id)
	n, tooLong, readErr := readBody(resp.Body, w.buf[:])
	resp.Body.Close()
	if readErr != nil || resp.StatusCode != http.StatusOK {
		return false, false
	}
	body := w.buf[:n]
	vs := resp.Header["X-Version"]
	ver := -1
	if len(vs) == 1 {
		ver, err = strconv.Atoi(vs[0])
		if err != nil {
			ver = -1
		}
	}
	if ver < 0 {
		r.violate("object %d: bad X-Version %q", id, vs)
		return false, false
	}
	w.exp = append(w.exp[:0], "object "...)
	w.exp = strconv.AppendInt(w.exp, int64(id), 10)
	w.exp = append(w.exp, " version "...)
	w.exp = strconv.AppendInt(w.exp, int64(ver), 10)
	switch {
	case tooLong || !bytes.Equal(body, w.exp):
		r.violate("object %d: body %q does not match X-Version %d", id, body, ver)
		return false, false
	case ver > originVer:
		r.violate("object %d: served version %d is ahead of the origin's %d", id, ver, originVer)
		return false, false
	case int64(ver) < floor:
		r.violate("object %d: version went backwards from %d to %d", id, floor, ver)
		return false, false
	}
	for cur := r.floor[id].Load(); int64(ver) > cur; cur = r.floor[id].Load() {
		if r.floor[id].CompareAndSwap(cur, int64(ver)) {
			break
		}
	}
	return true, ver == originVer
}

// readCeiling reads the ceiling server once and reports success.
func (w *worker) readCeiling() bool {
	resp, err := w.r.ceilingClient.Do(w.ceilingReq)
	if err != nil {
		return false
	}
	_, _, err = readBody(resp.Body, w.buf[:])
	resp.Body.Close()
	return err == nil && resp.StatusCode == http.StatusOK
}

// readBody reads a whole response body into buf without allocating.
// tooLong reports a body that did not fit (it is drained).
func readBody(body io.Reader, buf []byte) (n int, tooLong bool, err error) {
	for {
		m, err := body.Read(buf[n:])
		n += m
		switch {
		case err == io.EOF:
			return n, false, nil
		case err != nil:
			return n, false, err
		case n == len(buf):
			_, err := io.Copy(io.Discard, body)
			return n, true, err
		}
	}
}

// schedule is an open-loop window's reads: Poisson arrivals at the
// workload's rate over Zipf-distributed objects, fixed before the
// window starts.
type schedule struct {
	due []time.Duration // offset from the window start
	ids []int32
}

func newSchedule(rng *stats.RNG, zipf *stats.Zipf, rate float64, length time.Duration) schedule {
	capHint := int(rate*length.Seconds()*1.1) + 16
	s := schedule{due: make([]time.Duration, 0, capHint), ids: make([]int32, 0, capHint)}
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= length.Seconds() {
			return s
		}
		s.due = append(s.due, time.Duration(t*float64(time.Second)))
		s.ids = append(s.ids, int32(zipf.Sample(rng)-1))
	}
}

// openResult is what one open-loop window measured.
type openResult struct {
	scheduled int
	ok        int
	fresh     int
	lat       hist // due time to body read, successful reads
	late      hist // due time to dispatch
	// client is each read's dispatch-to-body duration (traced runs
	// only), indexed like the schedule; 0 for a failed read.
	client []int64
}

func (o *openResult) failed() int { return o.scheduled - o.ok }

// openLoop runs one open-loop window starting at start. The reader's
// workers take the schedule's reads in order, each waiting for its due
// time; with both connections busy a read goes out late, and its
// latency, measured from the due time, includes that wait. Reads not
// finished within grace of the window's end fail. Traced runs send
// each read's 1-based schedule index as its request id.
func (r *reader) openLoop(sch schedule, start time.Time, length, grace time.Duration, traced bool) (*openResult, error) {
	res := &openResult{scheduled: len(sch.due)}
	if traced {
		res.client = make([]int64, len(sch.due))
	}
	deadline := start.Add(length + grace)
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	var next atomic.Int64
	parts := make([]openResult, readerConns)
	workers := make([]*worker, readerConns)
	for lane := range workers {
		w, err := r.newWorker(ctx, lane)
		if err != nil {
			return nil, err
		}
		defer w.close()
		workers[lane] = w
	}
	errs := make([]error, readerConns)
	var wg sync.WaitGroup
	for lane, w := range workers {
		wg.Add(1)
		go func(p *openResult, errp *error) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sch.due) {
					return
				}
				due := start.Add(sch.due[i])
				if err := w.timer.sleepUntil(due); err != nil {
					*errp = err
					return
				}
				dispatch := time.Now()
				if !dispatch.Before(deadline) {
					continue
				}
				p.late.record(dispatch.Sub(due))
				var reqID uint32
				if traced {
					reqID = uint32(i + 1)
				}
				ok, fresh := w.read(int(sch.ids[i]), reqID)
				end := time.Now()
				if !ok || !end.Before(deadline) {
					continue
				}
				p.ok++
				if fresh {
					p.fresh++
				}
				p.lat.record(end.Sub(due))
				if traced {
					res.client[i] = int64(end.Sub(dispatch))
					r.tr.record(spanRead, w.lane, reqID, 0, r.tr.at(dispatch), r.tr.at(end))
				}
			}
		}(&parts[lane], &errs[lane])
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for i := range parts {
		res.ok += parts[i].ok
		res.fresh += parts[i].fresh
		res.lat.merge(&parts[i].lat)
		res.late.merge(&parts[i].late)
	}
	return res, nil
}

// satBin is the length of one saturation-window bin. Short bins keep
// the system and the ceiling under the same conditions; reads take
// well under a millisecond, so few straddle a bin's end.
const satBin = 50 * time.Millisecond

// satResult is what the saturation window measured.
type satResult struct {
	ok, failed int // reads of the system
	// bins counts the successful reads completed in each bin: the
	// system's in even bins, the ceiling's in odd ones. A read that
	// ends in a later bin than it began counts in none.
	bins []int
}

// rates returns reads per second of the system and of the ceiling,
// each over its own bins.
func (s satResult) rates() (system, ceiling float64) {
	var reads [2]int
	for k, c := range s.bins {
		reads[k%2] += c
	}
	sysBins, ceilBins := (len(s.bins)+1)/2, len(s.bins)/2
	return float64(reads[0]) / (satBin.Seconds() * float64(sysBins)),
		float64(reads[1]) / (satBin.Seconds() * float64(ceilBins))
}

// closedLoop runs the saturation window: each worker sends its next
// read as soon as the previous one completes. The window alternates
// satBin-long bins between the system and the ceiling server, each on
// connections of its own, so both are measured under the same load
// from the rest of the machine; on a shared virtual machine that load
// moves throughput by tens of percent between runs and within one.
func (r *reader) closedLoop(rng *stats.RNG, zipf *stats.Zipf, length, grace time.Duration) (satResult, error) {
	nbins := max(int(length/satBin), 2)
	start := time.Now()
	ctx, cancel := context.WithDeadline(context.Background(), start.Add(time.Duration(nbins)*satBin+grace))
	defer cancel()
	parts := make([]satResult, readerConns)
	var wg sync.WaitGroup
	for lane := range parts {
		w, err := r.newWorker(ctx, lane)
		if err != nil {
			return satResult{}, err
		}
		defer w.close()
		wrng := rng.Split()
		p := &parts[lane]
		p.bins = make([]int, nbins)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(time.Since(start) / satBin)
				if k >= nbins {
					return
				}
				var good bool
				if k%2 == 0 {
					good, _ = w.read(zipf.Sample(wrng)-1, 0)
					if good {
						p.ok++
					} else {
						p.failed++
					}
				} else {
					good = w.readCeiling()
				}
				if good && int(time.Since(start)/satBin) == k {
					p.bins[k]++
				}
			}
		}()
	}
	wg.Wait()
	res := satResult{bins: make([]int, nbins)}
	for _, p := range parts {
		res.ok += p.ok
		res.failed += p.failed
		for i, c := range p.bins {
			res.bins[i] += c
		}
	}
	return res, nil
}

// probeRate is the open-loop rate of the latency probe, reads per
// second.
const probeRate = 500

// probe reads the ceiling server in an open loop of its own, on one
// connection, at probeRate from start for length, alongside the
// system's open-loop window: its latency is what the machine gives a
// bare net/http read at the same moments. Like the system's reads,
// each is timed from its due time.
func (r *reader) probe(rng *stats.RNG, start time.Time, length, grace time.Duration) (*hist, error) {
	ctx, cancel := context.WithDeadline(context.Background(), start.Add(length+grace))
	defer cancel()
	w, err := r.newWorker(ctx, 0)
	if err != nil {
		return nil, err
	}
	defer w.close()
	h := new(hist)
	for t := rng.ExpFloat64() / probeRate; t < length.Seconds(); t += rng.ExpFloat64() / probeRate {
		due := start.Add(time.Duration(t * float64(time.Second)))
		if err := w.timer.sleepUntil(due); err != nil {
			return nil, err
		}
		if w.readCeiling() {
			h.record(time.Since(due))
		}
	}
	return h, nil
}

// allocsPerRead reads the system alone, back to back on the reader's
// connections, for length, and returns the process's heap allocations
// per read and the number of reads.
func (r *reader) allocsPerRead(rng *stats.RNG, zipf *stats.Zipf, length time.Duration) (float64, int, error) {
	end := time.Now().Add(length)
	counts := make([]int, readerConns)
	workers := make([]*worker, readerConns)
	for lane := range workers {
		w, err := r.newWorker(context.Background(), lane)
		if err != nil {
			return 0, 0, err
		}
		defer w.close()
		workers[lane] = w
	}
	before := sampleRuntime().allocObjs
	var wg sync.WaitGroup
	for lane, w := range workers {
		wrng := rng.Split()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				w.read(zipf.Sample(wrng)-1, 0)
				counts[lane]++
			}
		}()
	}
	wg.Wait()
	allocs := sampleRuntime().allocObjs - before
	reads := 0
	for _, c := range counts {
		reads += c
	}
	return float64(allocs) / float64(reads), reads, nil
}

// directP50 times count sequential reads of url(i) for the i-th Zipf
// draw on one fresh connection, after a short warm-up, and returns the
// median in nanoseconds. It measures a hop: the same reads through the
// router and straight to the owning shard.
func directP50(rng *stats.RNG, zipf *stats.Zipf, count int, url func(id int) string) (float64, error) {
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	var h hist
	var buf [128]byte
	for i := -count / 10; i < count; i++ {
		id := zipf.Sample(rng) - 1
		start := time.Now()
		resp, err := client.Get(url(id))
		if err != nil {
			return 0, err
		}
		_, _, err = readBody(resp.Body, buf[:])
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("hop read of %d: HTTP %d: %v", id, resp.StatusCode, err)
		}
		if i >= 0 {
			h.record(time.Since(start))
		}
	}
	return h.quantile(0.5), nil
}
