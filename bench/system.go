package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"freshen/internal/core"
	"freshen/internal/fleet"
	"freshen/internal/httpmirror"
	"freshen/internal/persist"
	"freshen/internal/stats"
)

// origin is the in-process source fixture: a SimulatedSource served on
// loopback, its clock frozen until start, and its injected latency
// (when the workload has one) applied only from start on, so setup_s
// measures the mirror's own seeding rather than N injected waits. The
// latency is a timer wait (see timer): with a runtime timer, as in
// FaultInjector, the origin's round trip drifted by up to a
// millisecond from run to run.
type origin struct {
	src  *httpmirror.SimulatedSource
	url  string
	srv  *http.Server
	live atomic.Bool
	t0   time.Time
	stop chan struct{}
	done chan struct{}
}

func newOrigin(w workload, rng *stats.RNG) (*origin, error) {
	g, err := stats.NewGammaMeanStdDev(w.lambdaMean, w.lambdaSD)
	if err != nil {
		return nil, err
	}
	lambdas := g.SampleN(rng, w.n)
	src, err := httpmirror.NewSimulatedSource(lambdas, nil, rng.Int63())
	if err != nil {
		return nil, err
	}
	o := &origin{src: src, stop: make(chan struct{}), done: make(chan struct{})}
	h := src.Handler()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	o.url = "http://" + ln.Addr().String()
	o.srv = &http.Server{Handler: http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if w.originLatency > 0 && o.live.Load() {
			if err := delay(w.originLatency); err != nil {
				http.Error(rw, err.Error(), http.StatusInternalServerError)
				return
			}
		}
		h.ServeHTTP(rw, r)
	})}
	go o.srv.Serve(ln)
	return o, nil
}

// delay waits d on a timer of its own.
func delay(d time.Duration) error {
	t, err := newTimer()
	if err != nil {
		return err
	}
	defer t.close()
	return t.sleepUntil(time.Now().Add(d))
}

// originTick is how often the origin clock advances. Advance walks the
// whole catalog, so a finer tick costs O(N) CPU per tick.
const originTick = 10 * time.Millisecond

// start unfreezes the origin: its clock follows the wall clock from now
// on, one period per period, and injected latency applies.
func (o *origin) start() {
	o.t0 = time.Now()
	o.live.Store(true)
	go func() {
		defer close(o.done)
		t := time.NewTicker(originTick)
		defer t.Stop()
		for {
			select {
			case <-o.stop:
				return
			case now := <-t.C:
				o.src.Advance(now.Sub(o.t0).Seconds() / period.Seconds())
			}
		}
	}()
}

func (o *origin) close() {
	if !o.t0.IsZero() {
		close(o.stop)
		<-o.done
	}
	o.srv.Close()
}

// system is one running system under test: a single mirror or a fleet
// behind its router, built from the constructors the daemon uses.
type system struct {
	w     workload
	front string // base URL the reader talks to
	srv   *http.Server
	dir   string // state dir, removed by close

	mirror  *httpmirror.Mirror // single mirror
	store   *persist.Store
	sources []httpmirror.Source // per refresh pipeline: the mirror's, or each shard's
	fl      *fleet.Fleet
	planCfg core.Config

	cancel context.CancelFunc
	loop   chan error
	// held keeps the mirrors reachable once quiesce has stopped them.
	held []*httpmirror.Mirror
}

// serverFor wraps a handler in an http.Server with freshend's timeouts.
func serverFor(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadTimeout: 10 * time.Second, WriteTimeout: 30 * time.Second}
}

// build constructs and serves the system. With a tracer, the Source,
// Storer and front handler are wrapped in timing layers and the
// single mirror's Step is driven by the benchmark's copy of Run's loop
// (see driveSteps); without one, Mirror.Run drives it, as in freshend.
// The refresh loop does not start until run is called.
func build(ctx context.Context, w workload, o *origin, tr *tracer) (*system, error) {
	dir, err := os.MkdirTemp("", "freshen-bench-")
	if err != nil {
		return nil, err
	}
	s := &system{w: w, dir: dir, planCfg: core.Config{Bandwidth: w.budget, Strategy: core.StrategyExact}}
	if err := s.boot(ctx, o, tr); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *system) boot(ctx context.Context, o *origin, tr *tracer) error {
	var front http.Handler
	if s.w.shards == 0 {
		store, err := persist.Open(s.dir)
		if err != nil {
			return err
		}
		s.store = store
		var storer persist.Storer = store
		var up httpmirror.Source = httpmirror.NewSourceClient(o.url, nil)
		if tr != nil {
			storer = &tracedStore{inner: store, t: tr}
			up = traceSource(up, tr, 0)
		}
		s.sources = []httpmirror.Source{up}
		s.mirror, err = httpmirror.New(ctx, httpmirror.Config{
			Upstream:      up,
			Plan:          s.planCfg,
			ReplanEvery:   s.w.replanEvery,
			SnapshotEvery: s.w.snapshotEvery,
			Persist:       storer,
			Seed:          1,
		})
		if err != nil {
			return err
		}
		front = s.mirror.Handler()
	} else {
		s.sources = make([]httpmirror.Source, s.w.shards)
		cfg := fleet.Config{
			Shards:   s.w.shards,
			Budget:   s.w.budget,
			Upstream: httpmirror.NewSourceClient(o.url, nil),
			ShardUpstream: func(i int) httpmirror.Source {
				var up httpmirror.Source = httpmirror.NewSourceClient(o.url, nil)
				if tr != nil {
					up = traceSource(up, tr, i)
				}
				s.sources[i] = up
				return up
			},
			Mirror: httpmirror.Config{
				Plan:          s.planCfg,
				ReplanEvery:   s.w.replanEvery,
				SnapshotEvery: s.w.snapshotEvery,
				Seed:          1,
			},
			Period:   period,
			StateDir: s.dir,
		}
		if tr != nil {
			cfg.WrapStore = func(i int, st *persist.Store) persist.Storer {
				return &tracedStore{inner: st, t: tr, lane: uint16(i)}
			}
		}
		fl, err := fleet.New(ctx, cfg)
		if err != nil {
			return err
		}
		s.fl = fl
		front = fl.Handler()
	}
	if tr != nil {
		front = traceHandler(front, tr)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.front = "http://" + ln.Addr().String()
	s.srv = serverFor(front)
	go s.srv.Serve(ln)
	return firstRead(ctx, s.front)
}

// firstRead waits for the front to serve its first 200.
func firstRead(ctx context.Context, base string) error {
	// Its own transport: closing the default one's idle connections
	// would also drop the mirror's pooled upstream connections.
	client := &http.Client{Transport: &http.Transport{}, Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()
	for {
		resp, err := client.Get(base + "/object/0")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("first read: HTTP %d", resp.StatusCode)
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("waiting for the first 200: %w (last: %v)", ctx.Err(), err)
		case <-time.After(time.Millisecond):
		}
	}
}

// run starts the refresh loop: Mirror.Run for a plain single mirror,
// driveSteps for a traced one, and the supervisor for a fleet (whose
// shards already run their own loops).
func (s *system) run(tr *tracer) {
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	s.loop = make(chan error, 1)
	go func() {
		switch {
		case s.fl != nil:
			s.loop <- s.fl.Run(ctx)
		case tr != nil:
			s.loop <- driveSteps(ctx, s.mirror, tr)
		default:
			s.loop <- s.mirror.Run(ctx, period)
		}
	}()
}

// awaitReady waits until a fleet routes every shard's keyspace. A
// freshly booted persistent shard answers /readyz 503 until its first
// snapshot, and the router sheds the keyspace of a shard it probed as
// unready; that cold start precedes the warm-up, unmeasured. A single
// mirror serves object reads from the first 200 on.
func (s *system) awaitReady(ctx context.Context) error {
	if s.fl == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	for {
		ready := true
		for i, h := range s.fl.Healthy() {
			ready = ready && h && s.fl.Shard(i).Mirror().Readiness().Ready
		}
		if ready {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("fleet not ready: %w", ctx.Err())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// driveSteps is Mirror.Run's loop (tick = period/100, the same wall to
// period mapping) with every Step timed as a span.
func driveSteps(ctx context.Context, m *httpmirror.Mirror, tr *tracer) error {
	base := m.Status().Now
	start := time.Now()
	ticker := time.NewTicker(period / 100)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-ticker.C:
			now := base + time.Since(start).Seconds()/period.Seconds()
			s0 := tr.now()
			tr.stepStart.Store(s0)
			_, err := m.Step(now)
			tr.stepStart.Store(0)
			tr.record(spanStep, 0, 0, errFlag(err), s0, tr.now())
			if err != nil {
				return err
			}
		}
	}
}

// stopLoop stops the refresh loop run started and waits for it, which
// includes the Step in flight.
func (s *system) stopLoop() {
	if s.cancel != nil {
		s.cancel()
		<-s.loop
		s.cancel = nil
	}
}

// quiesce stops every refresh loop, keeping the mirrors reachable, so
// that a forced collection afterwards sees only retained state: while
// the loops run, refresh commits allocate during the collector's mark
// phase and count as live. A fleet's shards stop gracefully.
func (s *system) quiesce() {
	s.held = s.mirrors()
	s.stopLoop()
	if s.fl != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.fl.Close(ctx)
	}
}

// close tears a system down: the discarded set-ups of a run, the
// failure paths, and tests. The command never closes the measured
// system; the process exits under it.
func (s *system) close() {
	s.stopLoop()
	if s.srv != nil {
		s.srv.Close()
	}
	if s.fl != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		s.fl.Close(ctx)
		cancel()
	}
	if s.store != nil {
		s.store.Close()
	}
	os.RemoveAll(s.dir)
}

// mirrors lists the live mirrors: the single mirror, or every shard's.
func (s *system) mirrors() []*httpmirror.Mirror {
	if s.fl == nil {
		return []*httpmirror.Mirror{s.mirror}
	}
	out := make([]*httpmirror.Mirror, s.w.shards)
	for i := range out {
		out[i] = s.fl.Shard(i).Mirror()
	}
	return out
}

// counters are the Status counters the benchmark reads, summed over
// the live mirrors.
type counters struct {
	fetches, transfers, refreshFailures, skipped, persistErrors int
	retries                                                     int64
	shed                                                        uint64
}

func (c counters) minus(o counters) counters {
	return counters{
		fetches:         c.fetches - o.fetches,
		transfers:       c.transfers - o.transfers,
		refreshFailures: c.refreshFailures - o.refreshFailures,
		skipped:         c.skipped - o.skipped,
		persistErrors:   c.persistErrors - o.persistErrors,
		retries:         c.retries - o.retries,
		shed:            c.shed - o.shed,
	}
}

// statusSample is one reading of every live mirror's Status.
type statusSample struct {
	wall time.Time
	sum  counters
	nows []float64 // each mirror's period clock
}

func (s *system) sample() statusSample {
	out := statusSample{wall: time.Now()}
	for _, m := range s.mirrors() {
		st := m.Status()
		out.nows = append(out.nows, st.Now)
		out.sum.fetches += st.Fetches
		out.sum.transfers += st.Transfers
		out.sum.refreshFailures += st.RefreshFailures
		out.sum.skipped += st.SkippedRefreshes
		out.sum.persistErrors += st.PersistErrors
		out.sum.retries += st.Retries
		out.sum.shed += st.Shed
	}
	return out
}

// lagGrowth is how many periods the slowest refresh clock fell behind
// the wall clock between a and b.
func (a statusSample) lagGrowth(b statusSample) float64 {
	wall := b.wall.Sub(a.wall).Seconds() / period.Seconds()
	worst := math.Inf(-1)
	for i := range a.nows {
		worst = max(worst, wall-(b.nows[i]-a.nows[i]))
	}
	return worst
}

// snapshotBytes is the size of the snapshot files on disk.
func (s *system) snapshotBytes() int64 {
	var total int64
	filepath.WalkDir(s.dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && d.Name() == persist.SnapshotFile {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}
