package experiment

import (
	"encoding/json"
	"testing"

	"freshen/internal/estimate"
)

// TestColdStartSeparatesEstimators pins the benchmark's headline at the
// standard configuration: the MLE-with-exploration policy steers a cold
// mirror to 99% of the converged-plan freshness within the horizon,
// while the naive changes/elapsed tracker never gets there — its
// censoring bias compounds through the poll-feedback loop (elements
// estimated slow are polled slower, which censors them harder). The
// whole run is seeded, so any drift here means a policy changed.
func TestColdStartSeparatesEstimators(t *testing.T) {
	res, err := RunColdStart(ColdStartOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TargetPF >= res.ConvergedPF || res.TargetPF < 0.98*res.ConvergedPF {
		t.Fatalf("target %v not at 99%% of converged %v", res.TargetPF, res.ConvergedPF)
	}

	byName := make(map[string]ColdStartTrajectory, len(res.Policies))
	for _, p := range res.Policies {
		if len(p.PF) != res.Periods {
			t.Fatalf("%s: %d trajectory points for %d periods", p.Name, len(p.PF), res.Periods)
		}
		byName[p.Name] = p
	}
	mleX, ok := byName["mle+explore"]
	if !ok {
		t.Fatal("no mle+explore policy in result")
	}
	naive, ok := byName["naive"]
	if !ok {
		t.Fatal("no naive policy in result")
	}

	if mleX.PeriodsTo99 < 0 {
		t.Fatalf("mle+explore never reached 99%% of converged PF (final %v, target %v)",
			mleX.PF[len(mleX.PF)-1], res.TargetPF)
	}
	if naive.PeriodsTo99 >= 0 && naive.PeriodsTo99 <= mleX.PeriodsTo99 {
		t.Errorf("naive reached target at period %d, not after mle+explore's %d",
			naive.PeriodsTo99, mleX.PeriodsTo99)
	}
	// The estimate quality behind the plans: principled estimation with
	// exploration ends an order of magnitude closer to the truth.
	if !(mleX.FinalRelErr < naive.FinalRelErr/3) {
		t.Errorf("mle+explore relErr %v not well below naive %v", mleX.FinalRelErr, naive.FinalRelErr)
	}
}

// TestColdStartJSONShape locks the BENCH_obs.json cold_start schema: the
// keys downstream tooling greps for must survive refactors.
func TestColdStartJSONShape(t *testing.T) {
	res, err := RunColdStart(ColdStartOptions{N: 20, Periods: 10, Bandwidth: 5})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"n", "bandwidth", "periods", "converged_pf", "target_pf", "policies"} {
		if _, ok := m[key]; !ok {
			t.Errorf("cold_start JSON missing key %q", key)
		}
	}
	var pols []map[string]json.RawMessage
	if err := json.Unmarshal(m["policies"], &pols); err != nil {
		t.Fatal(err)
	}
	if len(pols) != 4 {
		t.Fatalf("want 4 policies, got %d", len(pols))
	}
	for _, p := range pols {
		for _, key := range []string{"name", "pf_trajectory", "periods_to_99", "final_rel_err"} {
			if _, ok := p[key]; !ok {
				t.Errorf("policy JSON missing key %q", key)
			}
		}
	}
}

// TestColdStartPolicyCoverage checks every estimator kind is exercised
// by some policy, so a new estimator family cannot silently skip the
// closed-loop benchmark.
func TestColdStartPolicyCoverage(t *testing.T) {
	res, err := RunColdStart(ColdStartOptions{N: 20, Periods: 10, Bandwidth: 5})
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool, len(res.Policies))
	for _, p := range res.Policies {
		names[p.Name] = true
	}
	for _, kind := range estimate.Kinds() {
		if !names[kind] {
			t.Errorf("no cold-start policy exercises estimator kind %q", kind)
		}
	}
}
