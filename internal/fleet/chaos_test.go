package fleet

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"freshen/internal/persist"
	"freshen/internal/resilience"
)

// TestShardKillChaos is the fleet's chaos gate: closed-loop traffic
// past every shard's admission cap, through the router, while a shard
// is hard-killed and restarted mid-run and a survivor's disk breaks
// and heals underneath it.
//
// Invariants under fire:
//   - every response is either 200 with the right object's body or
//     503 with a valid jittered Retry-After — never a hang, never a
//     mis-route, never a bare error;
//   - the load is past the knee: live shards shed, and the killed
//     shard's keyspace answers 503 while it is down;
//   - every successful budget leveling conserves the global budget
//     exactly and certifies against the KKT conditions, throughout
//     the outage, and one of them levels with the killed shard
//     unhealthy at a zero slice;
//   - within bounded periods of the restart the fleet's planned PF is
//     back within 1% of the pre-kill steady state and the restarted
//     shard holds budget again.
func TestShardKillChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos gate skipped in -short")
	}

	const (
		numObjects = 24
		killShard  = 1
		diskShard  = 2
		workers    = 16
	)
	var (
		faultMu sync.Mutex
		faults  []*persist.FaultStore
	)
	src := newMemSource(numObjects)
	f, srv := newTestFleet(t, src, func(cfg *Config) {
		cfg.StateDir = t.TempDir()
		cfg.Mirror.SnapshotEvery = 2
		// Each admitted read holds one of 4 slots for 3 ms, so 16
		// unpaced workers over 3 shards (≈5 reads in flight per shard,
		// ≈8 once one is dead) run past every shard's admission cap.
		cfg.Mirror.Overload = resilience.LimiterConfig{MaxInflight: 4}
		cfg.Mirror.ServeFaultLatency = 3 * time.Millisecond
		cfg.WrapStore = func(shard int, s *persist.Store) persist.Storer {
			if shard != diskShard {
				return s
			}
			fs := persist.NewFaultStore(s, persist.FaultPlan{})
			faultMu.Lock()
			faults = append(faults, fs)
			faultMu.Unlock()
			return fs
		}
	})
	place := f.Placement()

	// Every shard runs from New on, cold and persistent included; the
	// baseline is the first certified leveling that conserves the
	// budget across all of them.
	waitFor(t, 10*time.Second, "boot steady state", func() bool {
		for _, h := range f.Healthy() {
			if !h {
				return false
			}
		}
		a, err := f.Allocation()
		return err == nil && a.Conserved(1e-6) == nil
	})
	baseline, err := f.Allocation()
	if err != nil {
		t.Fatal(err)
	}
	p0 := baseline.Perceived
	if p0 <= 0 {
		t.Fatalf("baseline PF %v", p0)
	}

	// Load: workers sweep the catalog through the router for the
	// whole drill, classifying every response.
	type failure struct {
		gid  int
		desc string
	}
	var (
		failMu   sync.Mutex
		failures []failure
		requests int64
		deadSeen atomic.Int64 // 503s on the killed shard's keyspace while it has no mirror
	)
	record := func(gid int, format string, args ...any) {
		failMu.Lock()
		defer failMu.Unlock()
		if len(failures) < 32 {
			failures = append(failures, failure{gid, fmt.Sprintf(format, args...)})
		}
	}
	stop := make(chan struct{})
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConnsPerHost = workers
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: 2 * time.Second}
	// get reads gid once and classifies the response. It reports
	// whether to send the read again: a 503 is retried until the read
	// is admitted, so shedding does not skew the learned profiles,
	// except on the killed shard's keyspace while it has no mirror.
	get := func(gid int) (again bool) {
		resp, err := client.Get(srv.URL + "/object/" + strconv.Itoa(gid))
		if err != nil {
			record(gid, "transport error: %v", err)
			return false
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		failMu.Lock()
		requests++
		failMu.Unlock()
		switch resp.StatusCode {
		case http.StatusOK:
			if !strings.HasPrefix(string(body), fmt.Sprintf("object-%d-v", gid)) {
				record(gid, "mis-routed body %q", body)
			}
			return false
		case http.StatusServiceUnavailable:
			ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
			if err != nil || ra < resilience.RetryAfterSeconds || ra >= resilience.RetryAfterSeconds+resilience.RetryAfterSpread {
				record(gid, "503 with Retry-After %q", resp.Header.Get("Retry-After"))
			}
			// A live shard's 503 is its own shed; only a 503 while the
			// killed shard has no mirror shows the kill itself.
			if place.ShardOf(gid) == killShard && f.Shard(killShard).Mirror() == nil {
				deadSeen.Add(1)
				return false
			}
			return true
		default:
			record(gid, "status %d body %q", resp.StatusCode, body)
			return false
		}
	}
	// The workers claim the catalog round-robin from one shared
	// counter: full keyspace coverage, and every object's admitted
	// reads stay within a couple of each other, so the learned
	// profiles hold ~uniform and the post-drill PF is comparable to
	// the idle baseline.
	var claim atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				gid := int(claim.Add(1)-1) % numObjects
				for again := true; again; again = get(gid) {
					select {
					case <-stop:
						return
					default:
					}
				}
			}
		}()
	}
	// A t.Fatal below must not leave the workers spinning past the
	// test.
	stopLoad := sync.OnceFunc(func() {
		close(stop)
		wg.Wait()
	})
	defer stopLoad()

	// The drill: kill a shard mid-ramp, break a survivor's disk on
	// top of the outage, heal it, then bring the dead shard back —
	// all while the load keeps coming.
	time.Sleep(300 * time.Millisecond)
	if err := f.Kill(killShard); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	faultMu.Lock()
	for _, fs := range faults {
		fs.Break(persist.ErrDiskIO)
	}
	faultMu.Unlock()
	time.Sleep(300 * time.Millisecond)
	faultMu.Lock()
	for _, fs := range faults {
		fs.Heal()
	}
	faultMu.Unlock()
	if err := f.Restart(context.Background(), killShard); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	stopLoad()

	failMu.Lock()
	total := requests
	caught := append([]failure(nil), failures...)
	failMu.Unlock()
	if total < 100 {
		t.Fatalf("load produced only %d requests — the drill did not exercise the router", total)
	}
	for _, fl := range caught {
		owner := place.ShardOf(fl.gid)
		t.Errorf("object %d (shard %d): %s", fl.gid, owner, fl.desc)
	}
	if deadSeen.Load() == 0 {
		t.Errorf("no 503 on shard %d's keyspace while it was down", killShard)
	}
	// Admission shed on the shards that stayed up: the load ran past
	// the knee, not just into the dead keyspace.
	var shed uint64
	for i := range f.shards {
		if i != killShard {
			shed += f.Shard(i).Mirror().Status().Shed
		}
	}
	if shed == 0 {
		t.Error("no read shed by a live shard's admission control; the load never passed the knee")
	}

	// Recovery: the restarted shard holds budget again and the planned
	// fleet PF is back within 1% of the pre-kill baseline.
	defer func() {
		if t.Failed() {
			a, err := f.Allocation()
			t.Logf("final state: healthy=%v allocErr=%v slices=%v perceived=%v (baseline %v)",
				f.Healthy(), err, a.Slices, a.Perceived, p0)
		}
	}()
	waitFor(t, 10*time.Second, "PF recovery after restart", func() bool {
		a, err := f.Allocation()
		return err == nil && a.Healthy[killShard] && a.Slices[killShard] > 0 &&
			math.Abs(a.Perceived-p0) <= 0.01*p0
	})

	// The disk-faulted survivor never left the healthy set's keyspace
	// dark: it is healthy at the end and its shard status says so.
	st := f.Status()
	if st.HealthyShards != st.Shards {
		t.Errorf("%d/%d shards healthy after the drill", st.HealthyShards, st.Shards)
	}
	if !st.ShardStatus[diskShard].Healthy {
		t.Errorf("disk-faulted shard %d unhealthy after heal", diskShard)
	}

	// Budget conservation held at every successful leveling throughout
	// the drill — kill, disk fault, and recovery included.
	history := f.AllocationHistory()
	leveled, outage := 0, 0
	for i, rec := range history {
		if rec.Err != nil {
			continue
		}
		leveled++
		// Conserved scales its tolerance by the budget; this holds the
		// slices' sum to the budget within 1e-6 absolute.
		if err := rec.Allocation.Conserved(1e-6 / rec.Allocation.Budget); err != nil {
			t.Errorf("leveling %d: %v", i, err)
		}
		if rec.Allocation.Cert.StationarityErr > 1e-6 || rec.Allocation.Cert.CutoffErr > 1e-6 {
			t.Errorf("leveling %d: certificate %+v", i, rec.Allocation.Cert)
		}
		if !rec.Allocation.Healthy[killShard] && rec.Allocation.Slices[killShard] == 0 {
			outage++
		}
	}
	if leveled < 3 {
		t.Errorf("only %d successful levelings recorded across the drill", leveled)
	}
	if outage == 0 {
		t.Errorf("no successful leveling with shard %d unhealthy at a zero slice", killShard)
	}
	t.Logf("drill: %d requests (%d shed by live shards, %d dead-shard 503s), %d levelings (%d during the outage, %d recorded), PF baseline %.6f",
		total, shed, deadSeen.Load(), leveled, outage, len(history), p0)
}
