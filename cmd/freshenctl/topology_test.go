package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"freshen/internal/core"
	"freshen/internal/hierarchy"
	"freshen/internal/httpmirror"
)

// chainFixture stands up an in-process origin → regional → edge chain
// and returns the edge's base URL.
func chainFixture(t *testing.T) (edgeURL, regionalURL string) {
	t.Helper()
	src, err := httpmirror.NewSimulatedSource([]float64{2, 1, 0.5}, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	originSrv := httptest.NewServer(src.Handler())
	t.Cleanup(originSrv.Close)

	newMirror := func(up httpmirror.Source) *httpmirror.Mirror {
		m, err := httpmirror.New(context.Background(), httpmirror.Config{
			Upstream:    up,
			Plan:        core.Config{Bandwidth: 2},
			ReplanEvery: 50,
			Seed:        5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	regional := newMirror(httpmirror.NewSourceClient(originSrv.URL, originSrv.Client()))
	regSrv := httptest.NewServer(regional.Handler())
	t.Cleanup(regSrv.Close)
	edge := newMirror(hierarchy.NewMirrorSource(regSrv.URL, regSrv.Client()))
	edgeSrv := httptest.NewServer(edge.Handler())
	t.Cleanup(edgeSrv.Close)
	for now := 1.0; now <= 2; now++ {
		if _, err := regional.Step(now); err != nil {
			t.Fatal(err)
		}
		if _, err := edge.Step(now); err != nil {
			t.Fatal(err)
		}
	}
	return edgeSrv.URL, regSrv.URL
}

func TestCmdTopologyStatus(t *testing.T) {
	edgeURL, regionalURL := chainFixture(t)
	var sb strings.Builder
	if err := cmdTopologyStatus(&sb, []string{"-url", edgeURL}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if first, _, _ := strings.Cut(out, "\n"); first != "chain: 2 level(s), edge first" {
		t.Errorf("first line %q, want %q:\n%s", first, "chain: 2 level(s), edge first", out)
	}
	for _, want := range []string{"edge", "root", edgeURL, regionalURL} {
		if !strings.Contains(out, want) {
			t.Errorf("topology output missing %q:\n%s", want, out)
		}
	}
	// Starting the walk at the regional shows a single root level.
	sb.Reset()
	if err := cmdTopologyStatus(&sb, []string{"-url", regionalURL}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "chain: 1 level(s)") {
		t.Errorf("regional walk:\n%s", sb.String())
	}

	if err := cmdTopologyStatus(&sb, []string{"-url", "http://127.0.0.1:1"}); err == nil {
		t.Error("unreachable edge must fail")
	}
}

func TestCmdBenchChainSplit(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	// Pre-seed a sibling section: the merge must preserve it.
	if err := os.WriteFile(out, []byte(`{"cold_start": {"n": 1}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := cmdBenchChainSplit(&sb, []string{"-out", out, "-n", "60", "-edges", "3"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "optimized") || !strings.Contains(sb.String(), "proportional") {
		t.Errorf("bench output:\n%s", sb.String())
	}

	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var sections map[string]json.RawMessage
	if err := json.Unmarshal(raw, &sections); err != nil {
		t.Fatal(err)
	}
	if _, ok := sections["cold_start"]; !ok {
		t.Error("merge dropped the cold_start section")
	}
	var res chainSplitResult
	if err := json.Unmarshal(sections["chain_split"], &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Naive) != 2 {
		t.Fatalf("recorded %d naive splits, want 2", len(res.Naive))
	}
	for _, naive := range res.Naive {
		if res.Optimized.PF < naive.PF {
			t.Errorf("optimized PF %v below %s's %v", res.Optimized.PF, naive.Name, naive.PF)
		}
	}
}
