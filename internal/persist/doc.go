// Package persist is the mirror's crash-safe state subsystem. It
// combines two durable artifacts in one state directory:
//
//   - A snapshot: a single versioned, CRC-checksummed file holding the
//     full learned state of a mirror (the online estimator's O(1)
//     per-element state, breaker and quarantine state, per-object
//     access counts, lifetime counters). It holds no refresh plan: a
//     recovering mirror solves its first plan from this state and the
//     replayed journal, as a cold one solves from the prior. Its size
//     does not grow with uptime. Snapshots are written atomically —
//     temp file, fsync, rename, directory fsync — so a crash at any
//     instant leaves either the previous snapshot or the new one,
//     never a torn hybrid.
//
//   - A write-ahead journal: an append-only log of per-refresh
//     observations made since the last snapshot. Every record is
//     length-prefixed and CRC-checksummed and fsynced on append, so a
//     refresh outcome survives a crash the moment Append returns. A
//     torn or corrupted tail truncates recovery at the first bad
//     record instead of failing it: everything before the tear is
//     kept, everything after is discarded.
//
// Records carry monotone sequence numbers and each snapshot embeds the
// last sequence it folded in, so a crash between "snapshot renamed"
// and "journal reset" never double-applies an observation: recovery
// replays only records with Seq > Snapshot.LastSeq.
//
// Corruption is never loaded silently: a snapshot whose checksum,
// encoding, or semantic validation fails is discarded (with the reason
// surfaced to the caller) and recovery degrades to journal-only or
// cold start — the estimator's correctness is preserved at the cost of
// what it had learned, never the other way around. A snapshot from an
// older format version is refused the same way.
package persist
