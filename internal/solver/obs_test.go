package solver

import (
	"strings"
	"testing"

	"freshen/internal/freshness"
	"freshen/internal/obs"
)

// TestInstrumentRecordsSolves pins the solver's metric surface: a
// solve through the instrumented engine must produce a latency
// observation, an iteration count, the funded-element gauge, and a
// solve-counter increment — and the series names must match the ones
// the daemon's metrics contract exports.
func TestInstrumentRecordsSolves(t *testing.T) {
	reg := obs.NewRegistry()
	Instrument(reg)
	defer metrics.Store(nil) // other tests must see an uninstrumented solver

	elems := []freshness.Element{
		{ID: 0, Lambda: 2, AccessProb: 0.5, Size: 1},
		{ID: 1, Lambda: 1, AccessProb: 0.3, Size: 1},
		{ID: 2, Lambda: 0.5, AccessProb: 0.2, Size: 1},
	}
	// A degenerate solve (zero budget) must count too; it runs first so
	// the funded gauge below reflects the real solve.
	if _, err := WaterFill(Problem{Elements: elems, Bandwidth: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := WaterFill(Problem{Elements: elems, Bandwidth: 2}); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	e, err := obs.ParseExposition(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := e.Value("freshen_solver_solves_total"); !ok || v < 2 {
		t.Errorf("freshen_solver_solves_total = %v, %v; want >= 2", v, ok)
	}
	if v, ok := e.Value("freshen_solver_solve_seconds_count"); !ok || v < 2 {
		t.Errorf("freshen_solver_solve_seconds_count = %v, %v; want >= 2", v, ok)
	}
	if v, ok := e.Value("freshen_solver_funded_elements"); !ok || v < 1 || v > 3 {
		t.Errorf("freshen_solver_funded_elements = %v, %v; want within [1, 3]", v, ok)
	}
	if v, ok := e.Value("freshen_solver_bisection_iterations_count"); !ok || v < 2 {
		t.Errorf("iteration histogram count = %v, %v", v, ok)
	}

	// A tied catalog solves as one class, but the gauge counts the
	// elements that class funds.
	const n = 5_000
	if _, err := WaterFill(Problem{Elements: tiedCatalog(n), Bandwidth: 250}); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if e, err = obs.ParseExposition(strings.NewReader(b.String())); err != nil {
		t.Fatal(err)
	}
	if v, ok := e.Value("freshen_solver_funded_elements"); !ok || v != n {
		t.Errorf("freshen_solver_funded_elements = %v, %v after a tied solve; want %d", v, ok, n)
	}
}
