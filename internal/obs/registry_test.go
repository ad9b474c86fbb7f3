package obs

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_requests_total", "Requests served.").Add(3)
	r.Gauge("test_temperature", "Current temperature.").Set(-1.5)
	r.GaugeFunc("test_clock", "A computed gauge.", func() float64 { return 42 })
	r.CounterVec("test_by_route_total", "Per-route requests.", "route", "code").
		With("/object", "200").Add(2)
	h := r.Histogram("test_latency_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP test_requests_total Requests served.\n",
		"# TYPE test_requests_total counter\n",
		"test_requests_total 3\n",
		"# TYPE test_temperature gauge\n",
		"test_temperature -1.5\n",
		"# TYPE test_clock gauge\n",
		"test_clock 42\n",
		`test_by_route_total{route="/object",code="200"} 2` + "\n",
		"# TYPE test_latency_seconds histogram\n",
		`test_latency_seconds_bucket{le="0.1"} 1` + "\n",
		`test_latency_seconds_bucket{le="1"} 2` + "\n",
		`test_latency_seconds_bucket{le="+Inf"} 3` + "\n",
		"test_latency_seconds_sum 5.55\n",
		"test_latency_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q; got:\n%s", want, out)
		}
	}
	// Families must be sorted by name.
	if strings.Index(out, "test_by_route_total") > strings.Index(out, "test_clock") {
		t.Error("families not sorted by name")
	}
}

func TestRegistryRoundTripsThroughParser(t *testing.T) {
	r := NewRegistry()
	r.Counter("rt_total", "").Add(7)
	r.GaugeVec("rt_state", "", "kind").With(`we"ird\value` + "\n").Set(2)
	hv := r.HistogramVec("rt_seconds", "", []float64{1, 2}, "outcome")
	hv.With("success").Observe(1.5)

	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	e, err := ParseExposition(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if e.BadLines != 0 {
		t.Errorf("%d bad lines round-tripping own exposition", e.BadLines)
	}
	if v, ok := e.Value("rt_total"); !ok || v != 7 {
		t.Errorf("rt_total = %v, %v", v, ok)
	}
	if v, ok := e.Value("rt_state", "kind", `we"ird\value`+"\n"); !ok || v != 2 {
		t.Errorf("escaped label round trip failed: %v, %v", v, ok)
	}
	if v, ok := e.Value("rt_seconds_bucket", "outcome", "success", "le", "2"); !ok || v != 1 {
		t.Errorf("histogram bucket = %v, %v", v, ok)
	}
	if e.Types["rt_seconds"] != "histogram" {
		t.Errorf("TYPE for rt_seconds = %q", e.Types["rt_seconds"])
	}
	fams := e.Families()
	want := []string{"rt_seconds", "rt_state", "rt_total"}
	if len(fams) != len(want) {
		t.Fatalf("families = %v, want %v", fams, want)
	}
	for i := range want {
		if fams[i] != want[i] {
			t.Fatalf("families = %v, want %v", fams, want)
		}
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("same_total", "")
	b := r.Counter("same_total", "")
	if a != b {
		t.Error("re-registering the same counter returned a new instance")
	}
	v := r.CounterVec("vec_total", "", "k")
	if v.With("x") != v.With("x") {
		t.Error("same label values returned different children")
	}
	if v.With("x") == v.With("y") {
		t.Error("different label values shared a child")
	}
}

// TestCodeCounter checks a CodeCounter lands every code on its own
// child and counts the hot codes without allocating.
func TestCodeCounter(t *testing.T) {
	v := NewRegistry().CounterVec("codes_total", "", "route", "code")
	c := v.Codes("/r", 200, 304)
	for _, code := range []int{200, 200, 304, 404} {
		c.Inc(code)
	}
	for code, want := range map[string]float64{"200": 2, "304": 1, "404": 1, "503": 0} {
		if got := v.With("/r", code).Value(); got != want {
			t.Errorf("code %s counted %v, want %v", code, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { c.Inc(304) }); n != 0 {
		t.Errorf("hot-code Inc allocates %v per op, want 0", n)
	}
}

func TestRegistrySchemaMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("clash_total", "")
	for _, reg := range []func(){
		func() { r.Gauge("clash_total", "") },
		func() { r.CounterVec("clash_total", "", "k") },
		func() { r.Counter("", "") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("schema mismatch did not panic")
				}
			}()
			reg()
		}()
	}
}

func TestRegistryVecCardinalityPanics(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("card_total", "", "a", "b")
	defer func() {
		if recover() == nil {
			t.Error("wrong label cardinality did not panic")
		}
	}()
	v.With("only-one")
}

func TestRegistryHandlerContract(t *testing.T) {
	r := NewRegistry()
	r.Counter("h_total", "").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	e, err := ParseExposition(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := e.Value("h_total"); !ok || v != 1 {
		t.Errorf("h_total = %v, %v", v, ok)
	}

	post, err := http.Post(srv.URL, "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics = %d, want 405", post.StatusCode)
	}
}

func TestTypeLinesPresentBeforeFirstChild(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("lazy_total", "Never incremented.", "k")
	var b strings.Builder
	r.WriteTo(&b)
	if !strings.Contains(b.String(), "# TYPE lazy_total counter") {
		t.Errorf("childless family missing from exposition:\n%s", b.String())
	}
}

func TestDescribe(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "")
	r.HistogramVec("a_seconds", "", []float64{1}, "outcome")
	d := r.Describe()
	if len(d) != 2 || d[0].Name != "a_seconds" || d[1].Name != "b_total" {
		t.Fatalf("Describe = %+v", d)
	}
	if d[0].Type != "histogram" || len(d[0].Labels) != 1 || d[0].Labels[0] != "outcome" {
		t.Errorf("a_seconds desc = %+v", d[0])
	}
}
