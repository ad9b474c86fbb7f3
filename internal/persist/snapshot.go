package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
)

// FormatVersion is the current snapshot payload version. Decoders
// accept only payloads whose embedded version they understand. Version
// 2 folds the online estimator's O(1) state into each element; version
// 1 carried full per-element poll histories and is refused. Version 2
// payloads written while elements still carried id, size, lambda,
// access_prob, stored_version, last_poll, fetched_at and fetches, or
// while the snapshot still carried the plan, decode unchanged:
// encoding/json skips the retired keys. The retired plan key is the
// one a decoder from before its retirement cannot do without: it
// refuses a plan-less snapshot ("plan has 0 frequencies") and recovers
// from the journal alone, saying so in its readiness report.
const FormatVersion = 2

// snapshotMagic identifies a snapshot file and pins its framing
// version; bumping the framing bumps the trailing digits.
var snapshotMagic = []byte("FRSNAP01")

// castagnoli is the CRC-32C table; Castagnoli detects the short burst
// errors torn writes produce better than the IEEE polynomial.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Snapshot is the durable image of a mirror's learned state — the
// knowledge that is expensive to lose, not the object bodies (those
// are re-fetched from the origin on boot) and not the refresh plan
// (recovery solves it from this knowledge).
type Snapshot struct {
	// Version is the payload format version (FormatVersion).
	Version int `json:"format_version"`
	// LastSeq is the journal sequence number of the newest record this
	// snapshot folds in; recovery replays only records beyond it.
	LastSeq uint64 `json:"last_seq"`
	// Now is the mirror's period clock at snapshot time.
	Now float64 `json:"now_periods"`
	// Breaker is the upstream circuit breaker's state.
	Breaker BreakerSnap `json:"breaker"`
	// Elements holds per-element learned state, indexed by element id.
	Elements []ElementState `json:"elements"`
	// Counters are the mirror's lifetime counters.
	Counters Counters `json:"counters"`
}

// BreakerSnap is the circuit breaker's persisted state. State uses the
// breaker's integer encoding (closed / open / half-open).
type BreakerSnap struct {
	State    int     `json:"state"`
	Fails    int     `json:"fails"`
	OpenedAt float64 `json:"opened_at"`
	Trips    int     `json:"trips"`
}

// ElementState is one element's durable state: the access count,
// quarantine state, and the change-rate estimator's state. An
// element's id is its position in Snapshot.Elements, and its size is
// the catalog's. Its change rate and access probability are derived
// from the estimator's state and the access counts, so they are not
// stored. An element never read, polled or failed encodes as {}.
type ElementState struct {
	Accesses int `json:"accesses,omitempty"`

	Quarantined   bool    `json:"quarantined,omitempty"`
	QuarantinedAt float64 `json:"quarantined_at,omitempty"`
	LastProbe     float64 `json:"last_probe,omitempty"`
	ConsecFails   int     `json:"consec_fails,omitempty"`

	// The online MLE's O(1) state (estimate.ElementState): running
	// rate, Fisher information, poll and change counts, and total
	// observed time. All zero, and omitted, until the first poll.
	EstLambda  float64 `json:"est_lambda,omitempty"`
	EstInfo    float64 `json:"est_info,omitempty"`
	Polls      int     `json:"polls,omitempty"`
	Changes    int     `json:"changes,omitempty"`
	SumElapsed float64 `json:"sum_elapsed,omitempty"`
}

// Counters are the mirror's lifetime counters, persisted so restarts
// don't zero the operational record.
type Counters struct {
	Accesses         int `json:"accesses"`
	Fetches          int `json:"fetches"`
	Transfers        int `json:"transfers"`
	Replans          int `json:"replans"`
	RefreshFailures  int `json:"refresh_failures"`
	SkippedRefreshes int `json:"skipped_refreshes"`
	QuarantineEvents int `json:"quarantine_events"`
	Recoveries       int `json:"recoveries"`
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Validate rejects snapshots that decode but describe impossible
// state; a snapshot that fails validation is never loaded.
func (s *Snapshot) Validate() error {
	if s.Version != FormatVersion {
		return fmt.Errorf("persist: unsupported snapshot version %d (want %d)", s.Version, FormatVersion)
	}
	if !finite(s.Now) || s.Now < 0 {
		return fmt.Errorf("persist: invalid clock %v", s.Now)
	}
	if st := s.Breaker.State; st < 0 || st > 2 {
		return fmt.Errorf("persist: invalid breaker state %d", st)
	}
	for i := range s.Elements {
		e := &s.Elements[i]
		if e.Accesses < 0 {
			return fmt.Errorf("persist: element %d has negative access count %d", i, e.Accesses)
		}
		if !finite(e.EstLambda) || e.EstLambda < 0 {
			return fmt.Errorf("persist: estimator element %d has invalid rate %v", i, e.EstLambda)
		}
		if !finite(e.EstInfo) || e.EstInfo < 0 {
			return fmt.Errorf("persist: estimator element %d has invalid information %v", i, e.EstInfo)
		}
		if e.Polls < 0 || e.Changes < 0 || e.Changes > e.Polls {
			return fmt.Errorf("persist: estimator element %d has %d changes over %d polls", i, e.Changes, e.Polls)
		}
		// Every poll observes a positive elapsed time, so a polled
		// element has a positive total.
		if !finite(e.SumElapsed) || e.SumElapsed < 0 || (e.Polls > 0 && e.SumElapsed == 0) {
			return fmt.Errorf("persist: estimator element %d has invalid observed time %v over %d polls", i, e.SumElapsed, e.Polls)
		}
	}
	return nil
}

// EncodeSnapshot frames a snapshot for disk: magic, payload length,
// CRC-32C of the payload, then the JSON payload.
func EncodeSnapshot(s *Snapshot) ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	payload, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("persist: encoding snapshot: %w", err)
	}
	var buf bytes.Buffer
	buf.Grow(len(snapshotMagic) + 8 + len(payload))
	buf.Write(snapshotMagic)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	buf.Write(hdr[:])
	buf.Write(payload)
	return buf.Bytes(), nil
}

// DecodeSnapshot parses and verifies a framed snapshot. Any framing,
// checksum, encoding, or semantic failure is an error: a snapshot
// either loads whole and valid or not at all.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	if len(data) < len(snapshotMagic)+8 {
		return nil, fmt.Errorf("persist: snapshot too short (%d bytes)", len(data))
	}
	if !bytes.Equal(data[:len(snapshotMagic)], snapshotMagic) {
		return nil, fmt.Errorf("persist: bad snapshot magic %q", data[:len(snapshotMagic)])
	}
	rest := data[len(snapshotMagic):]
	size := binary.LittleEndian.Uint32(rest[0:4])
	sum := binary.LittleEndian.Uint32(rest[4:8])
	payload := rest[8:]
	if uint32(len(payload)) != size {
		return nil, fmt.Errorf("persist: snapshot payload is %d bytes, header says %d", len(payload), size)
	}
	if got := crc32.Checksum(payload, castagnoli); got != sum {
		return nil, fmt.Errorf("persist: snapshot checksum mismatch (stored %08x, computed %08x)", sum, got)
	}
	var s Snapshot
	if err := json.Unmarshal(payload, &s); err != nil {
		return nil, fmt.Errorf("persist: decoding snapshot payload: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// writeSnapshotFile writes the framed snapshot atomically: temp file
// in the same directory, fsync, rename over the final name, fsync the
// directory so the rename itself is durable. It returns the framed
// size in bytes, for the store's instrumentation.
func writeSnapshotFile(dir, name string, s *Snapshot) (int, error) {
	data, err := EncodeSnapshot(s)
	if err != nil {
		return 0, err
	}
	tmp, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return 0, fmt.Errorf("persist: creating snapshot temp file: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() { tmp.Close(); os.Remove(tmpName) }
	if _, err := tmp.Write(data); err != nil {
		cleanup()
		return 0, fmt.Errorf("persist: writing snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return 0, fmt.Errorf("persist: syncing snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return 0, fmt.Errorf("persist: closing snapshot: %w", err)
	}
	if err := os.Rename(tmpName, filepath.Join(dir, name)); err != nil {
		os.Remove(tmpName)
		return 0, fmt.Errorf("persist: installing snapshot: %w", err)
	}
	return len(data), syncDir(dir)
}

// syncDir fsyncs a directory so a completed rename survives power
// loss. Filesystems that refuse to sync directories are tolerated.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("persist: opening state dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !os.IsPermission(err) {
		return fmt.Errorf("persist: syncing state dir: %w", err)
	}
	return nil
}
