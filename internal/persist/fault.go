package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

// Canonical disk faults for injection. Real kernels surface exactly
// these from a dying or full device, so chaos runs exercise the same
// error values production would.
var (
	// ErrDiskIO is a device-level I/O error (EIO).
	ErrDiskIO = error(syscall.EIO)
	// ErrDiskFull is an out-of-space error (ENOSPC).
	ErrDiskFull = error(syscall.ENOSPC)
)

// FaultPlan is a deterministic fault schedule counted in persist
// operations (Append, Commit, and Sync each advance the op counter by
// one). The zero value injects nothing.
type FaultPlan struct {
	// FailFrom is the 1-based op index at which injected failures
	// start; 0 disables the scheduled window.
	FailFrom int
	// FailOps is how many consecutive ops fail from FailFrom on;
	// 0 with FailFrom > 0 means the fault never heals on its own.
	FailOps int
	// Err is the injected error; nil means ErrDiskIO.
	Err error
	// AppendLatency and CommitLatency are added to every corresponding
	// op (failed or not), modelling a device that degrades before it
	// dies. Sync shares CommitLatency.
	AppendLatency time.Duration
	CommitLatency time.Duration
	// TornAppend writes a partial garbage frame to the journal file on
	// the first failed append, simulating a crash mid-write: the tear
	// is only visible to a later Open (the inner store's own file
	// offset overwrites it on the next successful append), exactly like
	// a real torn tail.
	TornAppend bool
}

// FaultStore wraps a *Store and injects faults on a deterministic
// schedule, plus manual Break/Heal control for chaos tests. It
// implements Storer; the inner store is never touched by a failed op
// (except the deliberate TornAppend garbage), so its durability
// invariants hold across injected faults. Methods are safe for
// concurrent use.
type FaultStore struct {
	inner *Store

	mu       sync.Mutex
	plan     FaultPlan
	ops      int
	manual   error // non-nil: Break() forced failures until Heal()
	torn     bool  // TornAppend garbage already written
	injected uint64
}

var _ Storer = (*FaultStore)(nil)

// NewFaultStore wraps inner with the given fault schedule.
func NewFaultStore(inner *Store, plan FaultPlan) *FaultStore {
	if plan.Err == nil {
		plan.Err = ErrDiskIO
	}
	return &FaultStore{inner: inner, plan: plan}
}

// Inner returns the wrapped store (tests re-open its directory to
// verify on-disk state).
func (f *FaultStore) Inner() *Store { return f.inner }

// Break forces every subsequent op to fail with err (nil means the
// plan's error) until Heal.
func (f *FaultStore) Break(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err == nil {
		err = f.plan.Err
	}
	f.manual = err
}

// Heal clears a manual Break and disarms any remaining scheduled
// window: the disk works again.
func (f *FaultStore) Heal() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.manual = nil
	f.plan.FailFrom = 0
}

// Injected is the lifetime count of injected failures.
func (f *FaultStore) Injected() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// fault advances the op counter and decides this op's fate, returning
// (error to inject, whether a torn append should be written).
func (f *FaultStore) fault(isAppend bool) (error, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops++
	err := f.manual
	if err == nil && f.plan.FailFrom > 0 && f.ops >= f.plan.FailFrom &&
		(f.plan.FailOps <= 0 || f.ops < f.plan.FailFrom+f.plan.FailOps) {
		err = f.plan.Err
	}
	if err == nil {
		return nil, false
	}
	f.injected++
	tear := isAppend && f.plan.TornAppend && !f.torn
	if tear {
		f.torn = true
	}
	return err, tear
}

// tearJournal appends a partial garbage frame through a separate
// O_APPEND handle. The inner store's own descriptor keeps its offset,
// so a following successful append overwrites the garbage — the tear
// survives only a crash, which is the scenario it models.
func (f *FaultStore) tearJournal() {
	path := filepath.Join(f.inner.Dir(), JournalFile)
	fd, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return // the disk is "dead"; failing to tear is in character
	}
	defer fd.Close()
	fd.Write([]byte{0x00, 0x00, 0x00}) // truncated length prefix
	fd.Sync()
}

// Recovery passes through to the inner store: recovery happened at
// Open time, before any injection.
func (f *FaultStore) Recovery() RecoveryResult { return f.inner.Recovery() }

// Append injects per the schedule, then delegates.
func (f *FaultStore) Append(r Record) error {
	if d := f.plan.AppendLatency; d > 0 {
		time.Sleep(d)
	}
	if err, tear := f.fault(true); err != nil {
		if tear {
			f.tearJournal()
		}
		return fmt.Errorf("persist: injected append fault: %w", err)
	}
	return f.inner.Append(r)
}

// Commit injects per the schedule, then delegates.
func (f *FaultStore) Commit(snap *Snapshot) error {
	if d := f.plan.CommitLatency; d > 0 {
		time.Sleep(d)
	}
	if err, _ := f.fault(false); err != nil {
		return fmt.Errorf("persist: injected commit fault: %w", err)
	}
	return f.inner.Commit(snap)
}

// Sync injects per the schedule, then delegates: a broken disk fails
// its health probe too.
func (f *FaultStore) Sync() error {
	if d := f.plan.CommitLatency; d > 0 {
		time.Sleep(d)
	}
	if err, _ := f.fault(false); err != nil {
		return fmt.Errorf("persist: injected sync fault: %w", err)
	}
	return f.inner.Sync()
}
