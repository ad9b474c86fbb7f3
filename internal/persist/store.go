package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"freshen/internal/obs"
)

const (
	// SnapshotFile is the snapshot's file name inside the state dir.
	SnapshotFile = "snapshot.frsnap"
	// JournalFile is the journal's file name inside the state dir.
	JournalFile = "journal.frwal"
)

// RecoveryResult is what Open salvaged from the state directory.
type RecoveryResult struct {
	// Snapshot is the verified snapshot, or nil when none was usable.
	Snapshot *Snapshot
	// SnapshotErr records why an existing snapshot was discarded
	// (checksum, decoding, or validation failure); nil when the
	// snapshot loaded or none existed.
	SnapshotErr error
	// Records are the journal records to replay, already filtered to
	// Seq > Snapshot.LastSeq and in order.
	Records []Record
	// JournalTruncated reports that the journal had a torn or
	// corrupted tail which was cut back to the last good record.
	JournalTruncated bool
}

// Recovered reports whether any durable state survived.
func (r RecoveryResult) Recovered() bool {
	return r.Snapshot != nil || len(r.Records) > 0
}

// Storer is the durability surface the mirror programs against:
// recovery at boot, fsynced record appends, atomic snapshot commits,
// and a bare fsync used as a disk-health probe. *Store implements it
// directly; FaultStore wraps any Storer-producing *Store to inject
// failures for chaos testing.
type Storer interface {
	Recovery() RecoveryResult
	Append(Record) error
	Commit(*Snapshot) error
	Sync() error
}

var _ Storer = (*Store)(nil)

// Store is a state directory opened for use: the recovered state plus
// an append position in the journal. Methods are safe for concurrent
// use.
type Store struct {
	dir string

	mu       sync.Mutex
	journal  *os.File
	seq      uint64 // last sequence number assigned or seen
	recovery RecoveryResult
	closed   bool
	metrics  *storeMetrics // nil until Instrument
}

// storeMetrics is the store's optional instrumentation: write
// latencies (the fsyncs dominate) and byte volumes for both the
// journal and the snapshot path, plus an error counter.
type storeMetrics struct {
	appendSeconds   *obs.Histogram
	snapshotSeconds *obs.Histogram
	journalBytes    *obs.Counter
	snapshotBytes   *obs.Counter
	appends         *obs.Counter
	snapshots       *obs.Counter
	errors          *obs.Counter
}

// Instrument registers the store's metrics on reg and starts
// recording journal-append and snapshot-commit latencies, byte
// volumes, and write errors. Call once, before the store is shared.
func (s *Store) Instrument(reg *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metrics = &storeMetrics{
		appendSeconds: reg.Histogram("freshen_persist_journal_append_seconds",
			"Latency of one fsynced journal append.", obs.LatencyBuckets()),
		snapshotSeconds: reg.Histogram("freshen_persist_snapshot_seconds",
			"Latency of one atomic snapshot commit (write, fsync, rename, journal reset).", obs.LatencyBuckets()),
		journalBytes: reg.Counter("freshen_persist_journal_bytes_total",
			"Bytes appended to the journal."),
		snapshotBytes: reg.Counter("freshen_persist_snapshot_bytes_total",
			"Bytes written by snapshot commits."),
		appends: reg.Counter("freshen_persist_journal_records_total",
			"Journal records durably appended."),
		snapshots: reg.Counter("freshen_persist_snapshots_total",
			"Snapshots durably committed."),
		errors: reg.Counter("freshen_persist_errors_total",
			"Journal or snapshot writes that failed (state kept in memory)."),
	}
}

// Open opens (creating if needed) a state directory and performs
// recovery: the snapshot is loaded and verified, the journal is walked
// to its last good record and physically truncated there, and the
// sequence counter resumes past everything seen. A corrupt snapshot is
// discarded — never loaded silently-wrong — and recovery degrades to
// journal-only; a corrupt journal tail is truncated, keeping the good
// prefix. Open never fails on corruption, only on I/O errors.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("persist: state dir must not be empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: creating state dir: %w", err)
	}
	s := &Store{dir: dir}

	// Snapshot: load whole and valid, or record why not.
	snapPath := filepath.Join(dir, SnapshotFile)
	if data, err := os.ReadFile(snapPath); err == nil {
		snap, derr := DecodeSnapshot(data)
		if derr != nil {
			s.recovery.SnapshotErr = derr
		} else {
			s.recovery.Snapshot = snap
			s.seq = snap.LastSeq
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("persist: reading snapshot: %w", err)
	}

	// Journal: walk to the last good record, truncate the tear, and
	// open for appends at the clean end.
	jPath := filepath.Join(dir, JournalFile)
	data, err := os.ReadFile(jPath)
	switch {
	case os.IsNotExist(err):
		if err := s.resetJournalLocked(); err != nil {
			return nil, err
		}
	case err != nil:
		return nil, fmt.Errorf("persist: reading journal: %w", err)
	default:
		recs, goodLen, clean := DecodeJournal(data)
		if goodLen == 0 {
			// Empty file or unusable header: start the journal over.
			// Nothing after a bad header can be trusted.
			s.recovery.JournalTruncated = !clean
			if err := s.resetJournalLocked(); err != nil {
				return nil, err
			}
		} else {
			s.recovery.JournalTruncated = !clean
			f, err := os.OpenFile(jPath, os.O_RDWR, 0o644)
			if err != nil {
				return nil, fmt.Errorf("persist: opening journal: %w", err)
			}
			if !clean {
				if err := f.Truncate(int64(goodLen)); err != nil {
					f.Close()
					return nil, fmt.Errorf("persist: truncating torn journal: %w", err)
				}
				if err := f.Sync(); err != nil {
					f.Close()
					return nil, fmt.Errorf("persist: syncing truncated journal: %w", err)
				}
			}
			if _, err := f.Seek(int64(goodLen), 0); err != nil {
				f.Close()
				return nil, fmt.Errorf("persist: seeking journal: %w", err)
			}
			s.journal = f
			// Filter to records the snapshot hasn't folded in; a crash
			// between snapshot rename and journal reset leaves them
			// behind, and replaying them would double-count polls.
			for _, r := range recs {
				if r.Seq > s.seq {
					s.recovery.Records = append(s.recovery.Records, r)
				}
			}
			if n := len(recs); n > 0 && recs[n-1].Seq > s.seq {
				s.seq = recs[n-1].Seq
			}
		}
	}
	return s, nil
}

// resetJournalLocked replaces the journal with a fresh, empty,
// fsynced one containing only the magic header.
func (s *Store) resetJournalLocked() error {
	if s.journal != nil {
		s.journal.Close()
		s.journal = nil
	}
	path := filepath.Join(s.dir, JournalFile)
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("persist: creating journal: %w", err)
	}
	if _, err := f.Write(journalMagic); err != nil {
		f.Close()
		return fmt.Errorf("persist: writing journal header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("persist: syncing journal header: %w", err)
	}
	s.journal = f
	return syncDir(s.dir)
}

// Dir returns the state directory.
func (s *Store) Dir() string { return s.dir }

// Recovery returns what Open salvaged. The records are the caller's to
// replay once; the slice is shared, not copied.
func (s *Store) Recovery() RecoveryResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovery
}

// ReleaseRecovery drops the recovered snapshot and journal records
// once the caller has applied them, so the store does not hold them
// for the process lifetime. SnapshotErr and JournalTruncated stay, so
// Recovery still reports what Open found on disk.
func (s *Store) ReleaseRecovery() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recovery.Snapshot, s.recovery.Records = nil, nil
}

// Append journals one record, assigning its sequence number, and
// fsyncs before returning: once Append returns nil the observation
// survives a crash.
func (s *Store) Append(r Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("persist: store is closed")
	}
	r.Seq = s.seq + 1
	frame, err := encodeRecord(&r)
	if err != nil {
		s.countErrorLocked()
		return err
	}
	start := time.Now()
	if _, err := s.journal.Write(frame); err != nil {
		s.countErrorLocked()
		return fmt.Errorf("persist: appending record: %w", err)
	}
	if err := s.journal.Sync(); err != nil {
		s.countErrorLocked()
		return fmt.Errorf("persist: syncing journal: %w", err)
	}
	if m := s.metrics; m != nil {
		m.appendSeconds.Observe(time.Since(start).Seconds())
		m.journalBytes.Add(float64(len(frame)))
		m.appends.Inc()
	}
	s.seq = r.Seq
	return nil
}

// countErrorLocked bumps the error counter when instrumented.
func (s *Store) countErrorLocked() {
	if m := s.metrics; m != nil {
		m.errors.Inc()
	}
}

// Sync fsyncs the journal without writing anything: a pure disk-health
// probe. A nil return is evidence the device accepts and flushes
// writes — the mirror uses it at boot to decide whether to start in
// persist-degraded mode, and its failure counts like any persist
// failure.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("persist: store is closed")
	}
	if err := s.journal.Sync(); err != nil {
		s.countErrorLocked()
		return fmt.Errorf("persist: probing journal sync: %w", err)
	}
	return nil
}

// Seq returns the last assigned sequence number.
func (s *Store) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Commit durably installs a snapshot and resets the journal: the
// snapshot is stamped with the store's current sequence number, written
// atomically, and only then is the journal emptied. A crash between
// the two steps is safe — the leftover records carry sequence numbers
// the snapshot already covers, so recovery skips them.
func (s *Store) Commit(snap *Snapshot) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("persist: store is closed")
	}
	snap.LastSeq = s.seq
	start := time.Now()
	size, err := writeSnapshotFile(s.dir, SnapshotFile, snap)
	if err != nil {
		s.countErrorLocked()
		return err
	}
	if err := s.resetJournalLocked(); err != nil {
		s.countErrorLocked()
		return err
	}
	if m := s.metrics; m != nil {
		m.snapshotSeconds.Observe(time.Since(start).Seconds())
		m.snapshotBytes.Add(float64(size))
		m.snapshots.Inc()
	}
	return nil
}

// Close releases the journal handle. It does not flush state: Append
// and Commit are already durable when they return.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.journal != nil {
		err := s.journal.Close()
		s.journal = nil
		return err
	}
	return nil
}
