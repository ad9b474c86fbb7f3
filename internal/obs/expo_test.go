package obs

import (
	"strings"
	"testing"
)

func TestParseExpositionTolerant(t *testing.T) {
	in := `
# HELP good_total fine
# TYPE good_total counter
good_total 12
this line is garbage
also{unterminated 3
good_labeled{a="x",b="y"} 4.5
{empty_name} 1
no_value_here
`
	e, err := ParseExposition(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if e.BadLines != 4 {
		t.Errorf("BadLines = %d, want 4", e.BadLines)
	}
	if v, ok := e.Value("good_total"); !ok || v != 12 {
		t.Errorf("good_total = %v, %v", v, ok)
	}
	if v, ok := e.Value("good_labeled", "a", "x", "b", "y"); !ok || v != 4.5 {
		t.Errorf("good_labeled = %v, %v", v, ok)
	}
	if _, ok := e.Value("good_labeled", "a", "nope"); ok {
		t.Error("constraint mismatch still matched")
	}
}

func TestParseExpositionAllGarbage(t *testing.T) {
	if _, err := ParseExposition(strings.NewReader("complete nonsense\nmore nonsense\n")); err == nil {
		t.Error("fully malformed exposition accepted")
	}
}

func TestParseExpositionEmpty(t *testing.T) {
	e, err := ParseExposition(strings.NewReader(""))
	if err != nil {
		t.Fatalf("empty exposition must parse: %v", err)
	}
	if len(e.Samples) != 0 {
		t.Errorf("samples from empty input: %v", e.Samples)
	}
}

func TestFamiliesFoldsHistogramSeries(t *testing.T) {
	in := `
# TYPE a_seconds histogram
a_seconds_bucket{le="+Inf"} 1
a_seconds_sum 0.5
a_seconds_count 1
b_total 2
`
	e, err := ParseExposition(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	fams := e.Families()
	if len(fams) != 2 || fams[0] != "a_seconds" || fams[1] != "b_total" {
		t.Errorf("Families = %v, want [a_seconds b_total]", fams)
	}
}
