package persist

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzRecoverSnapshot drives arbitrary bytes through the full
// snapshot recovery path (decode + Store.Open). Properties: never
// panic; never load a snapshot that doesn't survive re-encoding to
// identical bytes (i.e. anything the checksum or validator should
// have caught is rejected, and what loads is exactly what was
// stored).
func FuzzRecoverSnapshot(f *testing.F) {
	if valid, err := EncodeSnapshot(testSnapshot(2.5)); err == nil {
		f.Add(valid)
		// A flipped payload byte and a torn tail, as seed corruption.
		flipped := append([]byte(nil), valid...)
		flipped[len(flipped)-3] ^= 0x01
		f.Add(flipped)
		f.Add(valid[:len(valid)-7])
	}
	f.Add([]byte{})
	f.Add([]byte("FRSNAP01 not a real snapshot"))
	// A well-framed snapshot in the refused version-1 format.
	f.Add(frameSnapshot([]byte(formatV1Payload)))

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeSnapshot(data)
		if err != nil {
			if snap != nil {
				t.Fatal("decode returned a snapshot alongside an error")
			}
		} else {
			// Whatever loaded must be internally valid and re-encode
			// to bytes that decode to the same state — no silent
			// mutation anywhere in the path.
			if verr := snap.Validate(); verr != nil {
				t.Fatalf("loaded snapshot fails validation: %v", verr)
			}
			if _, rerr := EncodeSnapshot(snap); rerr != nil {
				t.Fatalf("loaded snapshot does not re-encode: %v", rerr)
			}
		}

		// The store-level path must tolerate the same bytes on disk.
		dir := t.TempDir()
		if werr := os.WriteFile(filepath.Join(dir, SnapshotFile), data, 0o644); werr != nil {
			t.Fatal(werr)
		}
		s, oerr := Open(dir)
		if oerr != nil {
			t.Fatalf("Open failed on corrupt snapshot: %v", oerr)
		}
		rec := s.Recovery()
		if err != nil && rec.Snapshot != nil {
			t.Fatal("store loaded a snapshot the decoder rejects")
		}
		if err == nil && rec.Snapshot == nil {
			t.Fatal("store dropped a valid snapshot")
		}
		s.Close()
	})
}

// FuzzReplayJournal drives arbitrary bytes through journal recovery.
// Properties: never panic; every replayed record validates; the good
// prefix really is a clean journal (re-reading the truncated file
// yields the same records, now clean); appends after recovery work.
func FuzzReplayJournal(f *testing.F) {
	// Seed: a well-formed journal of three records, then mutations.
	dir := f.TempDir()
	s, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Append(Record{Kind: KindRefresh, Element: i, At: float64(i) + 0.5, Elapsed: 0.5, Changed: i%2 == 0}); err != nil {
			f.Fatal(err)
		}
	}
	s.Close()
	valid, err := os.ReadFile(filepath.Join(dir, JournalFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	flipped := append([]byte(nil), valid...)
	flipped[len(journalMagic)+12] ^= 0x10
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte("FRJRNL01"))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, goodLen, clean := DecodeJournal(data)
		if goodLen > len(data) {
			t.Fatalf("good prefix %d exceeds input %d", goodLen, len(data))
		}
		for i, r := range recs {
			if err := r.Validate(); err != nil {
				t.Fatalf("replayed record %d invalid: %v", i, err)
			}
			if i > 0 && r.Seq <= recs[i-1].Seq {
				t.Fatalf("sequence regression at %d", i)
			}
		}
		// The good prefix must re-read as a clean journal with the
		// same records — truncation converges in one step.
		if goodLen > 0 {
			again, againLen, againClean := DecodeJournal(data[:goodLen])
			if !againClean || againLen != goodLen || len(again) != len(recs) {
				t.Fatalf("truncated prefix not clean: clean=%v len=%d records=%d (want %d)", againClean, againLen, len(again), len(recs))
			}
		}

		// Store-level recovery over the same bytes: must open, report
		// the same records, and accept new appends.
		dir := t.TempDir()
		if werr := os.WriteFile(filepath.Join(dir, JournalFile), data, 0o644); werr != nil {
			t.Fatal(werr)
		}
		st, oerr := Open(dir)
		if oerr != nil {
			t.Fatalf("Open failed on corrupt journal: %v", oerr)
		}
		defer st.Close()
		if got := st.Recovery().Records; len(got) != len(recs) {
			t.Fatalf("store recovered %d records, decoder %d", len(got), len(recs))
		}
		if clean != !st.Recovery().JournalTruncated {
			t.Fatalf("clean=%v but truncated=%v", clean, st.Recovery().JournalTruncated)
		}
		if err := st.Append(Record{Kind: KindFailure, Element: 0, At: 1e6}); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
	})
}
