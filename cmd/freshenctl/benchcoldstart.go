package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"freshen/internal/experiment"
)

// cmdBenchColdStart runs the cold-start convergence benchmark — how
// fast each change-rate estimation policy steers an uninformed mirror
// onto the optimal refresh plan — and merges the result under the
// "cold_start" key of the output JSON, preserving whatever other
// sections (e.g. bench-chainsplit's "chain_split") the file already
// holds.
func cmdBenchColdStart(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("bench-coldstart", flag.ContinueOnError)
	out := fs.String("out", "BENCH_obs.json", "output JSON path (merged, not overwritten)")
	n := fs.Int("n", 0, "catalog size (0 = standard)")
	periods := fs.Int("periods", 0, "horizon in periods (0 = standard)")
	seed := fs.Int64("seed", 0, "workload seed (0 = standard)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	res, err := experiment.RunColdStart(experiment.ColdStartOptions{
		N: *n, Periods: *periods, Seed: *seed,
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "cold start: n=%d bandwidth=%.0f periods=%d converged_pf=%.4f target=%.4f\n",
		res.N, res.Bandwidth, res.Periods, res.ConvergedPF, res.TargetPF)
	fmt.Fprintf(w, "%-12s %12s %12s %10s\n", "policy", "periods_to_99", "final_pf", "rel_err")
	for _, p := range res.Policies {
		final := 0.0
		if len(p.PF) > 0 {
			final = p.PF[len(p.PF)-1]
		}
		to99 := "never"
		if p.PeriodsTo99 >= 0 {
			to99 = fmt.Sprintf("%d", p.PeriodsTo99)
		}
		fmt.Fprintf(w, "%-12s %12s %12.4f %10.3f\n", p.Name, to99, final, p.FinalRelErr)
	}

	return mergeJSONSection(*out, "cold_start", res)
}

// mergeJSONSection writes value under key in the JSON object at path,
// creating the file if absent and leaving every other top-level key
// untouched.
func mergeJSONSection(path, key string, value any) error {
	sections := map[string]json.RawMessage{}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &sections); err != nil {
			return fmt.Errorf("existing %s is not a JSON object: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	enc, err := json.Marshal(value)
	if err != nil {
		return err
	}
	sections[key] = enc
	merged, err := json.MarshalIndent(sections, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(merged, '\n'), 0o644)
}
