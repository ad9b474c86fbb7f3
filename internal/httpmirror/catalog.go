package httpmirror

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
)

// The GET /catalog wire format lives in this file. Every server in
// this package writes the canonical form, [{"id":0,"size":1},...] and
// a newline, with appendCatalog: byte for byte what json.Encoder
// writes for a []CatalogEntry. SourceClient.Catalog parses that form
// by hand and hands any other body (whitespace, other key orders or
// spellings, unknown keys, numbers json does not take, trailing data)
// to encoding/json, which stays the reference decode for origins
// outside this package.

// CatalogEntry describes one object a source offers.
type CatalogEntry struct {
	ID   int     `json:"id"`
	Size float64 `json:"size"`
}

// catalogEntryBytes is a canonical entry's typical length with its
// comma ({"id":123456,"size":1},), used to presize an encoding.
const catalogEntryBytes = 24

// serveCatalog answers GET /catalog with list's entries, Content-Length
// set. A size that is not finite answers 500 with the message
// json.Encoder's error carries.
func serveCatalog(w http.ResponseWriter, r *http.Request, list func() []CatalogEntry) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	entries := list()
	body, err := appendCatalog(make([]byte, 0, catalogEntryBytes*len(entries)+3), entries)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// appendCatalog appends the canonical encoding of entries, newline
// included. A NaN or infinite size is the error json.Marshal returns
// for it.
func appendCatalog(dst []byte, entries []CatalogEntry) ([]byte, error) {
	dst = append(dst, '[')
	for i, e := range entries {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"id":`...)
		dst = strconv.AppendInt(dst, int64(e.ID), 10)
		dst = append(dst, `,"size":`...)
		var err error
		if dst, err = appendSize(dst, e.Size); err != nil {
			return nil, err
		}
		dst = append(dst, '}')
	}
	return append(dst, "]\n"...), nil
}

// appendSize appends f as encoding/json writes a float64: shortest
// digits, in exponent form outside [1e-6, 1e21), with e-07 written
// e-7.
func appendSize(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return nil, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	// A whole size below 2⁵³ (a byte count, say) has its integer's
	// digits as its shortest form, and AppendInt skips the search for
	// them. -0 has a sign bit, and takes the general path.
	if f == math.Trunc(f) && f < 1<<53 && !math.Signbit(f) {
		return strconv.AppendInt(dst, int64(f), 10), nil
	}
	format := byte('f')
	if a := math.Abs(f); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

// decodeCatalog decodes a whole GET /catalog body: by hand when it is
// canonical, otherwise with json.Decoder, whose entries or error it
// returns. Like the decoder, it ignores whatever follows the array.
func decodeCatalog(body []byte) ([]CatalogEntry, error) {
	if entries, ok := parseCatalog(body); ok {
		return entries, nil
	}
	var entries []CatalogEntry
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&entries)
	return entries, err
}

// parseCatalog parses a canonical catalog body: no whitespace, keys
// "id" and "size" in that order and nothing else, at most one newline
// after the array. It reports false for any other body, and for
// numbers json.Decoder would not store (an id that is not an integer
// in int's range, a size ParseFloat rejects), so a body it accepts
// decodes to exactly what json.Decoder gives.
func parseCatalog(b []byte) ([]CatalogEntry, bool) {
	b = bytes.TrimSuffix(b, []byte{'\n'})
	if len(b) < 2 || b[0] != '[' || b[len(b)-1] != ']' {
		return nil, false
	}
	b = b[1 : len(b)-1]
	entries := make([]CatalogEntry, 0, bytes.Count(b, []byte{'{'}))
	for len(b) > 0 {
		if len(entries) > 0 {
			if b[0] != ',' {
				return nil, false
			}
			b = b[1:]
		}
		e, rest, ok := cutEntry(b)
		if !ok {
			return nil, false
		}
		entries = append(entries, e)
		b = rest
	}
	return entries, true
}

// cutEntry cuts one canonical {"id":…,"size":…} object off the front
// of b.
func cutEntry(b []byte) (e CatalogEntry, rest []byte, ok bool) {
	b, ok = bytes.CutPrefix(b, []byte(`{"id":`))
	tok, b, integer := cutNumber(b)
	if !ok || !integer {
		return e, nil, false
	}
	if e.ID, ok = parseInt(tok); !ok {
		return e, nil, false
	}
	b, ok = bytes.CutPrefix(b, []byte(`,"size":`))
	tok, b, _ = cutNumber(b)
	if !ok || len(tok) == 0 {
		return e, nil, false
	}
	if b, ok = bytes.CutPrefix(b, []byte{'}'}); !ok {
		return e, nil, false
	}
	var err error
	if e.Size, err = strconv.ParseFloat(string(tok), 64); err != nil {
		return e, nil, false
	}
	return e, b, true
}

// cutNumber cuts the longest prefix of b in JSON's number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and reports whether
// the number is an integer (no fraction or exponent). tok is empty,
// and integer false, when b starts with no number.
func cutNumber(b []byte) (tok, rest []byte, integer bool) {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digitsEnd(b, i+1)
	default:
		return nil, b, false
	}
	intEnd := i
	if i < len(b) && b[i] == '.' && digitsEnd(b, i+1) > i+1 {
		i = digitsEnd(b, i+1)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		j := i + 1
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		if k := digitsEnd(b, j); k > j {
			i = k
		}
	}
	return b[:i], b[i:], i == intEnd
}

// digitsEnd returns the index of the first non-digit in b at or after i.
func digitsEnd(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// parseInt converts an integer token from cutNumber as json.Decoder
// stores one in an int: ok is false when it overflows int.
func parseInt(tok []byte) (int, bool) {
	d := bytes.TrimPrefix(tok, []byte{'-'})
	if len(d) > 9 { // may not fit a 32-bit int; strconv decides
		v, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
		return int(v), err == nil
	}
	v := 0
	for _, c := range d {
		v = v*10 + int(c-'0')
	}
	if len(d) < len(tok) {
		v = -v
	}
	return v, true
}
