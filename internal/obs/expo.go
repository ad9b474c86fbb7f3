package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Sample is one parsed exposition sample.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Label returns one label's value ("" when absent).
func (s Sample) Label(name string) string { return s.Labels[name] }

// Exposition is a parsed scrape: samples in document order plus the
// schema comments.
type Exposition struct {
	Samples []Sample
	// Types maps family name -> declared type, from # TYPE lines.
	Types map[string]string
	// BadLines counts lines that could not be parsed and were skipped.
	BadLines int
}

// Value returns the first sample matching name and the given
// label-value constraints (pairs of key, value), and whether one
// exists.
func (e *Exposition) Value(name string, constraints ...string) (float64, bool) {
	for _, s := range e.Samples {
		if s.Name != name {
			continue
		}
		ok := true
		for i := 0; i+1 < len(constraints); i += 2 {
			if s.Labels[constraints[i]] != constraints[i+1] {
				ok = false
				break
			}
		}
		if ok {
			return s.Value, true
		}
	}
	return 0, false
}

// Families returns the distinct family names present (bucket/sum/
// count suffixes folded into their histogram's name when the TYPE is
// known), sorted.
func (e *Exposition) Families() []string {
	seen := make(map[string]bool)
	for _, s := range e.Samples {
		seen[e.familyOf(s.Name)] = true
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// familyOf maps a sample name to its family, folding histogram
// series suffixes.
func (e *Exposition) familyOf(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base := strings.TrimSuffix(name, suf); base != name && e.Types[base] == "histogram" {
			return base
		}
	}
	return name
}

// ParseExposition parses Prometheus text-format exposition
// tolerantly: unparseable lines are counted in BadLines and skipped
// rather than failing the scrape — one mangled series must not blind
// a monitoring loop to the rest. It fails only when the input yields
// no samples at all (and is not simply empty of metrics).
func ParseExposition(r io.Reader) (*Exposition, error) {
	e := &Exposition{Types: make(map[string]string)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lines := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		lines++
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 4 && fields[1] == "TYPE" {
				e.Types[fields[2]] = fields[3]
			}
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			e.BadLines++
			continue
		}
		e.Samples = append(e.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading exposition: %w", err)
	}
	if lines > 0 && len(e.Samples) == 0 && len(e.Types) == 0 {
		return nil, fmt.Errorf("obs: exposition contained no parseable samples (%d bad lines)", e.BadLines)
	}
	return e, nil
}

// parseSampleLine parses `name{k="v",...} value [timestamp]`.
func parseSampleLine(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ \t"); i < 0 {
		return s, fmt.Errorf("no value")
	} else {
		s.Name = rest[:i]
		rest = rest[i:]
	}
	if s.Name == "" {
		return s, fmt.Errorf("empty name")
	}
	if strings.HasPrefix(rest, "{") {
		end := strings.LastIndex(rest, "}")
		if end < 0 {
			return s, fmt.Errorf("unterminated label set")
		}
		if err := parseLabels(rest[1:end], s.Labels); err != nil {
			return s, err
		}
		rest = rest[end+1:]
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return s, fmt.Errorf("no value")
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q", fields[0])
	}
	s.Value = v
	return s, nil
}

// parseLabels parses `k="v",k2="v2"` into out, unescaping values.
func parseLabels(s string, out map[string]string) error {
	for s = strings.TrimSpace(s); s != ""; s = strings.TrimSpace(s) {
		eq := strings.Index(s, "=")
		if eq <= 0 {
			return fmt.Errorf("bad label pair %q", s)
		}
		key := strings.TrimSpace(s[:eq])
		s = strings.TrimSpace(s[eq+1:])
		if !strings.HasPrefix(s, `"`) {
			return fmt.Errorf("unquoted label value for %q", key)
		}
		s = s[1:]
		var val strings.Builder
		i := 0
		for ; i < len(s); i++ {
			c := s[i]
			if c == '\\' && i+1 < len(s) {
				i++
				switch s[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(s[i])
				}
				continue
			}
			if c == '"' {
				break
			}
			val.WriteByte(c)
		}
		if i >= len(s) {
			return fmt.Errorf("unterminated label value for %q", key)
		}
		out[key] = val.String()
		s = s[i+1:]
		s = strings.TrimPrefix(strings.TrimSpace(s), ",")
	}
	return nil
}
