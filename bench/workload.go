package main

import (
	"fmt"
	"time"
)

// workload is one set of inputs the benchmark runs: the topology, the
// catalog and its change process, the refresh budget, the origin's
// latency, and the open-loop read rate. The seed drives only the draws
// from these distributions (change rates, update times, reads).
type workload struct {
	name string
	// shards is 0 for a single mirror, K for a router in front of K
	// hash-placed shards.
	shards int
	// n is the catalog size; every object has unit size.
	n int
	// lambdaMean and lambdaSD parameterize the Gamma the per-object
	// change rates (changes per period) are drawn from.
	lambdaMean, lambdaSD float64
	// budget is B, refreshes per period (the global budget for a fleet).
	budget float64
	// originLatency is added to every origin request once set-up ends.
	originLatency time.Duration
	// readRate is the open-loop arrival rate, reads per second.
	readRate float64
	// replanEvery and snapshotEvery are the mirror cadences in periods.
	replanEvery, snapshotEvery float64
}

// period is the wall-clock length of one scheduling period on every
// workload.
const period = time.Second

// zipfTheta is the skew of the read stream.
const zipfTheta = 1.0

// workloads are the benchmark's inputs. README.md gives the reason for
// each; in short: read-zipf loads the serving path, refresh-rtt the
// serial refresh pipeline, catalog-50k the O(N) commit/learn/solve/
// snapshot work, and fleet-router the router's proxy hop.
var workloads = []workload{
	{
		name: "read-zipf", n: 10_000, lambdaMean: 2, lambdaSD: 1,
		budget: 500, readRate: 5000, replanEvery: 5, snapshotEvery: 5,
	},
	{
		name: "refresh-rtt", n: 5_000, lambdaMean: 2, lambdaSD: 1,
		budget: 300, originLatency: time.Millisecond, readRate: 2000,
		replanEvery: 5, snapshotEvery: 5,
	},
	{
		name: "catalog-50k", n: 50_000, lambdaMean: 0.05, lambdaSD: 0.025,
		budget: 500, readRate: 1000, replanEvery: 5, snapshotEvery: 5,
	},
	{
		name: "fleet-router", shards: 4, n: 20_000, lambdaMean: 2, lambdaSD: 1,
		budget: 1000, readRate: 3000, replanEvery: 5, snapshotEvery: 5,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// phases fixes how long each part of a run lasts.
type phases struct {
	// setups is how many times the system is built; setup_s is their
	// median and the last one is measured.
	setups int
	// warmup runs reads at the open-loop rate until a period after the
	// first replan that learns from them, so the windows measure the
	// learned plan, not the cold uniform one.
	warmup time.Duration
	// open is the open-loop window at the workload's read rate; sat the
	// closed-loop saturation window after it.
	open, sat time.Duration
	// grace is how long after a window's end a read may still finish.
	grace time.Duration
}

// phasesFor splits a run of the given measured length: five eighths
// open loop, three eighths saturation.
func phasesFor(w workload, seconds int) phases {
	total := time.Duration(seconds) * time.Second
	open := total * 5 / 8
	return phases{
		setups: 3,
		warmup: time.Duration((w.replanEvery + 1) * float64(period)),
		open:   open,
		sat:    total - open,
		grace:  time.Second,
	}
}
