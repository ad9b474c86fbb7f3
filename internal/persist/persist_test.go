package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// testSnapshot builds a small valid snapshot.
func testSnapshot(now float64) *Snapshot {
	return &Snapshot{
		Version: FormatVersion,
		Now:     now,
		Breaker: BreakerSnap{State: 0, Fails: 1, Trips: 2},
		Elements: []ElementState{
			{Accesses: 7, EstLambda: 1.5, EstInfo: 2, Polls: 4, Changes: 3, SumElapsed: 2},
			{Quarantined: true, QuarantinedAt: 1, ConsecFails: 3,
				EstLambda: 0.2, EstInfo: 5, Polls: 1, SumElapsed: 2},
			// Never read or polled: no state at all.
			{},
		},
		Counters: Counters{Fetches: 6, Transfers: 3, Replans: 2},
	}
}

// frameSnapshot frames a raw payload the way EncodeSnapshot does but
// without validating it, so tests can plant payloads persist itself
// would refuse to write.
func frameSnapshot(payload []byte) []byte {
	var buf bytes.Buffer
	buf.Write(snapshotMagic)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	buf.Write(hdr[:])
	buf.Write(payload)
	return buf.Bytes()
}

// formatV1Payload is a snapshot payload in the version-1 format, which
// carried every poll of every element in a "history" array.
const formatV1Payload = `{"format_version":1,"last_seq":0,"now_periods":2.5,` +
	`"plan":{"freqs":[2],"perceived":0.8,"avg_freshness":0.7,"bandwidth_used":2},` +
	`"breaker":{"state":0,"fails":0,"opened_at":0,"trips":0},` +
	`"elements":[{"id":0,"lambda":1.5,"access_prob":1,"size":1,"stored_version":3,` +
	`"fetched_at":0,"last_poll":2.5,"fetches":4,"accesses":0,` +
	`"history":[{"elapsed":0.5,"changed":true},{"elapsed":0.5,"changed":false}]}],` +
	`"counters":{"accesses":0,"fetches":4,"transfers":1,"replans":1}}`

// TestDecodeSnapshotRefusesFormatV1 pins the migration rule: a
// well-framed version-1 snapshot is refused by the version gate, with
// the version named in the error, never half-loaded.
func TestDecodeSnapshotRefusesFormatV1(t *testing.T) {
	snap, err := DecodeSnapshot(frameSnapshot([]byte(formatV1Payload)))
	if snap != nil || err == nil || !strings.Contains(err.Error(), "unsupported snapshot version 1") {
		t.Fatalf("version-1 snapshot: got %+v, %v", snap, err)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	want := testSnapshot(3.25)
	data, err := EncodeSnapshot(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the snapshot:\n got %+v\nwant %+v", got, want)
	}
}

func TestDecodeSnapshotRejectsCorruption(t *testing.T) {
	data, err := EncodeSnapshot(testSnapshot(1))
	if err != nil {
		t.Fatal(err)
	}
	// Every single-byte flip anywhere in the file must be detected:
	// the magic, the header, or the CRC-protected payload.
	for i := 0; i < len(data); i++ {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		if _, err := DecodeSnapshot(mut); err == nil {
			t.Fatalf("flip at byte %d loaded silently", i)
		}
	}
	for _, short := range [][]byte{nil, data[:4], data[:len(snapshotMagic)+7], data[:len(data)-1]} {
		if _, err := DecodeSnapshot(short); err == nil {
			t.Fatalf("truncated snapshot (%d bytes) loaded", len(short))
		}
	}
}

func TestSnapshotValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Snapshot)
	}{
		{"wrong version", func(s *Snapshot) { s.Version = 99 }},
		{"negative clock", func(s *Snapshot) { s.Now = -1 }},
		{"NaN clock", func(s *Snapshot) { s.Now = math.NaN() }},
		{"bad breaker state", func(s *Snapshot) { s.Breaker.State = 7 }},
		{"negative accesses", func(s *Snapshot) { s.Elements[2].Accesses = -1 }},
		{"zero elapsed poll", func(s *Snapshot) { s.Elements[0].SumElapsed = 0 }},
		{"estimator negative rate", func(s *Snapshot) { s.Elements[0].EstLambda = -1 }},
		{"estimator NaN information", func(s *Snapshot) { s.Elements[1].EstInfo = math.NaN() }},
		{"estimator changes exceed polls", func(s *Snapshot) { s.Elements[0].Changes = 9 }},
		{"estimator negative observed time", func(s *Snapshot) { s.Elements[1].SumElapsed = -2 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := testSnapshot(1)
			tc.mut(s)
			if err := s.Validate(); err == nil {
				t.Error("invalid snapshot validated")
			}
		})
	}
}

func TestStoreColdOpen(t *testing.T) {
	s, err := Open(t.TempDir() + "/state")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec := s.Recovery()
	if rec.Recovered() || rec.Snapshot != nil || len(rec.Records) != 0 || rec.SnapshotErr != nil {
		t.Errorf("cold open recovered state: %+v", rec)
	}
}

func TestStoreAppendRecoverCommit(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Kind: KindRefresh, Element: 0, At: 0.5, Elapsed: 0.5, Changed: true, Version: 2},
		{Kind: KindFailure, Element: 1, At: 0.75},
		{Kind: KindRefresh, Element: 1, At: 1.0, Elapsed: 1.0},
	}
	for _, r := range recs {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Crash before any snapshot: all three records replay.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := s2.Recovery()
	if len(got.Records) != 3 || got.JournalTruncated {
		t.Fatalf("recovered %d records (truncated=%v), want 3 clean", len(got.Records), got.JournalTruncated)
	}
	for i, r := range got.Records {
		if r.Seq != uint64(i+1) || r.Kind != recs[i].Kind || r.Element != recs[i].Element {
			t.Errorf("record %d = %+v", i, r)
		}
	}

	// Snapshot folds them in; the journal resets.
	if err := s2.Commit(testSnapshot(1.5)); err != nil {
		t.Fatal(err)
	}
	if err := s2.Append(Record{Kind: KindRefresh, Element: 0, At: 2, Elapsed: 1.5}); err != nil {
		t.Fatal(err)
	}
	s2.Close()

	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	got = s3.Recovery()
	if got.Snapshot == nil || got.Snapshot.LastSeq != 3 {
		t.Fatalf("snapshot not recovered or wrong LastSeq: %+v", got.Snapshot)
	}
	if len(got.Records) != 1 || got.Records[0].Seq != 4 {
		t.Fatalf("post-snapshot records = %+v, want the one Seq-4 record", got.Records)
	}
}

// TestStoreSkipsRecordsSnapshotCovers simulates a crash between
// "snapshot renamed into place" and "journal reset": the journal still
// holds records the snapshot already folded in, and recovery must not
// replay them.
func TestStoreSkipsRecordsSnapshotCovers(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Append(Record{Kind: KindRefresh, Element: i, At: float64(i), Elapsed: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// Write the snapshot the way Commit would — but "crash" before the
	// journal reset by writing it directly.
	snap := testSnapshot(3)
	snap.LastSeq = s.Seq()
	if _, err := writeSnapshotFile(dir, SnapshotFile, snap); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec := s2.Recovery()
	if rec.Snapshot == nil {
		t.Fatal("snapshot lost")
	}
	if len(rec.Records) != 0 {
		t.Errorf("replayed %d records the snapshot already covers", len(rec.Records))
	}
	// New appends must continue the sequence, not reuse covered ones.
	if err := s2.Append(Record{Kind: KindRefresh, Element: 0, At: 4, Elapsed: 1}); err != nil {
		t.Fatal(err)
	}
	if got := s2.Seq(); got != 4 {
		t.Errorf("post-recovery Seq = %d, want 4", got)
	}
}

// TestStoreTruncatesTornJournal cuts the journal mid-record and checks
// recovery keeps the good prefix, truncates the tear, and appends
// cleanly afterwards.
func TestStoreTruncatesTornJournal(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Append(Record{Kind: KindRefresh, Element: i, At: float64(i), Elapsed: 1}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	path := filepath.Join(dir, JournalFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear off the last 5 bytes — a torn final record.
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := s2.Recovery()
	if !rec.JournalTruncated {
		t.Error("torn tail not reported")
	}
	if len(rec.Records) != 2 {
		t.Fatalf("recovered %d records, want 2", len(rec.Records))
	}
	// The file must be physically truncated and appendable.
	if err := s2.Append(Record{Kind: KindRefresh, Element: 9, At: 5, Elapsed: 1}); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	rec = s3.Recovery()
	if rec.JournalTruncated || len(rec.Records) != 3 {
		t.Errorf("after repair: truncated=%v records=%d, want clean 3", rec.JournalTruncated, len(rec.Records))
	}
	if last := rec.Records[2]; last.Element != 9 || last.Seq != 3 {
		t.Errorf("repaired append = %+v", last)
	}
}

// TestStoreCorruptMidJournal flips a byte inside the second of three
// records: recovery keeps record one and discards the rest.
func TestStoreCorruptMidJournal(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Append(Record{Kind: KindRefresh, Element: i, At: float64(i), Elapsed: 1}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	path := filepath.Join(dir, JournalFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, _ := DecodeJournal(data)
	if len(recs) != 3 {
		t.Fatalf("setup: %d records", len(recs))
	}
	// Locate record 2's frame by re-walking: flip a byte two frames in.
	off := len(journalMagic)
	for i := 0; i < 1; i++ {
		size := int(uint32(data[off]) | uint32(data[off+1])<<8 | uint32(data[off+2])<<16 | uint32(data[off+3])<<24)
		off += 8 + size
	}
	data[off+10] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec := s2.Recovery()
	if !rec.JournalTruncated || len(rec.Records) != 1 {
		t.Errorf("truncated=%v records=%d, want truncation after record 1", rec.JournalTruncated, len(rec.Records))
	}
}

// TestStoreCorruptSnapshotDegradesGracefully corrupts the snapshot:
// recovery must discard it (reporting why) and still replay the
// journal, never load a snapshot whose checksum fails.
func TestStoreCorruptSnapshotDegradesGracefully(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(testSnapshot(2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(Record{Kind: KindRefresh, Element: 0, At: 3, Elapsed: 1}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	path := filepath.Join(dir, SnapshotFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec := s2.Recovery()
	if rec.Snapshot != nil {
		t.Fatal("corrupt snapshot loaded")
	}
	if rec.SnapshotErr == nil {
		t.Error("snapshot discard not reported")
	}
	if len(rec.Records) != 1 {
		t.Errorf("journal lost with the snapshot: %d records", len(rec.Records))
	}
}

// TestStoreRejectsPoisonedEstimatorState plants a snapshot whose
// framing is intact — magic, length, CRC all good — but whose
// per-element estimator state carries values the estimator could never
// have produced. Validation must refuse the whole snapshot (a torn write
// can't make a CRC pass, so this is the bit-rot/foreign-writer case)
// and recovery must degrade to the journal, reporting why.
func TestStoreRejectsPoisonedEstimatorState(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(testSnapshot(2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(Record{Kind: KindRefresh, Element: 0, At: 3, Elapsed: 1}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Rewrite the snapshot in place with a negative rate, re-framing by
	// hand: EncodeSnapshot validates, and the point is a frame persist
	// itself would refuse to write.
	path := filepath.Join(dir, SnapshotFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	snap.Elements[0].EstLambda = -1
	payload, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, frameSnapshot(payload), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec := s2.Recovery()
	if rec.Snapshot != nil {
		t.Fatal("snapshot with poisoned estimator state loaded")
	}
	if rec.SnapshotErr == nil || !strings.Contains(rec.SnapshotErr.Error(), "estimator element 0") {
		t.Errorf("discard reason does not name the estimator: %v", rec.SnapshotErr)
	}
	if len(rec.Records) != 1 {
		t.Errorf("journal lost with the snapshot: %d records", len(rec.Records))
	}
}

// TestStoreAtomicSnapshotInstall verifies a leftover temp file (a
// crash mid-write) never shadows the installed snapshot.
func TestStoreAtomicSnapshotInstall(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := testSnapshot(7)
	if err := s.Commit(want); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Simulate a later crash mid-write: garbage in a temp file.
	if err := os.WriteFile(filepath.Join(dir, SnapshotFile+".tmp-123"), []byte("partial garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := s2.Recovery().Snapshot
	if got == nil || got.Now != 7 {
		t.Fatalf("recovered %+v, want the committed snapshot", got)
	}
}

func TestDecodeJournalGarbageHeader(t *testing.T) {
	for _, data := range [][]byte{[]byte("x"), []byte("WRONGMAG"), bytes.Repeat([]byte{0xFF}, 64)} {
		recs, goodLen, clean := DecodeJournal(data)
		if len(recs) != 0 || goodLen != 0 || clean {
			t.Errorf("garbage header %q: recs=%d goodLen=%d clean=%v", data, len(recs), goodLen, clean)
		}
	}
	// An empty file predates the header write: clean, nothing lost.
	if recs, goodLen, clean := DecodeJournal(nil); len(recs) != 0 || goodLen != 0 || !clean {
		t.Errorf("empty journal: recs=%d goodLen=%d clean=%v", len(recs), goodLen, clean)
	}
}

func TestRecordValidate(t *testing.T) {
	cases := []Record{
		{Kind: "mystery", Element: 0, At: 1},
		{Kind: KindRefresh, Element: -1, At: 1},
		{Kind: KindRefresh, Element: 0, At: math.Inf(1)},
		{Kind: KindRefresh, Element: 0, At: -1},
		{Kind: KindRefresh, Element: 0, At: 1, Elapsed: -0.5},
		{Kind: KindRefresh, Element: 0, At: 1, Elapsed: math.NaN()},
	}
	for _, r := range cases {
		if err := r.Validate(); err == nil {
			t.Errorf("invalid record validated: %+v", r)
		}
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("empty dir accepted")
	}
}

func TestAppendAfterClose(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := s.Append(Record{Kind: KindRefresh, At: 1}); err == nil {
		t.Error("append after close accepted")
	}
	if err := s.Commit(testSnapshot(1)); err == nil {
		t.Error("commit after close accepted")
	}
	if err := s.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}
