package txn

import (
	"context"
	"errors"
	"testing"

	"repro/internal/lockmgr"
)

func newManagers() (*Manager, *lockmgr.Manager) {
	lm := lockmgr.New(lockmgr.Config{InitialPages: 32 * 8})
	return NewManager(lm), lm
}

func TestCommitReleasesLocks(t *testing.T) {
	m, lm := newManagers()
	app := lm.RegisterApp()
	tx := m.Begin(app)
	if err := tx.LockRow(context.Background(), 1, 10, lockmgr.ModeX); err != nil {
		t.Fatal(err)
	}
	if got := lm.UsedStructs(); got != 2 { // intent + row
		t.Fatalf("used = %d, want 2", got)
	}
	tx.Commit()
	if tx.State() != StateCommitted {
		t.Fatalf("state = %v", tx.State())
	}
	if got := lm.UsedStructs(); got != 0 {
		t.Fatalf("used after commit = %d", got)
	}
	commits, aborts, active := m.Stats()
	if commits != 1 || aborts != 0 || active != 0 {
		t.Fatalf("stats = %d/%d/%d", commits, aborts, active)
	}
}

func TestAbortReleasesLocks(t *testing.T) {
	m, lm := newManagers()
	tx := m.Begin(lm.RegisterApp())
	if err := tx.LockRow(context.Background(), 1, 10, lockmgr.ModeS); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	if tx.State() != StateAborted {
		t.Fatalf("state = %v", tx.State())
	}
	if got := lm.UsedStructs(); got != 0 {
		t.Fatalf("used after abort = %d", got)
	}
}

func TestFinishIsIdempotent(t *testing.T) {
	m, lm := newManagers()
	tx := m.Begin(lm.RegisterApp())
	tx.Commit()
	tx.Abort() // must not flip the state or double count
	if tx.State() != StateCommitted {
		t.Fatalf("state = %v", tx.State())
	}
	commits, aborts, _ := m.Stats()
	if commits != 1 || aborts != 0 {
		t.Fatalf("stats = %d/%d", commits, aborts)
	}
}

func TestLockAfterFinishFails(t *testing.T) {
	m, lm := newManagers()
	tx := m.Begin(lm.RegisterApp())
	tx.Commit()
	if err := tx.LockRow(context.Background(), 1, 1, lockmgr.ModeS); !errors.Is(err, ErrNotActive) {
		t.Fatalf("err = %v, want ErrNotActive", err)
	}
	if err := tx.LockTable(context.Background(), 1, lockmgr.ModeS); !errors.Is(err, ErrNotActive) {
		t.Fatalf("err = %v, want ErrNotActive", err)
	}
	op := tx.AcquireRow(1, 1, lockmgr.ModeS, 1)
	if op.Poll() != OpDenied || !errors.Is(op.Err(), ErrNotActive) {
		t.Fatalf("op = %v err=%v", op.Poll(), op.Err())
	}
}

func TestLockRowTakesIntentFirst(t *testing.T) {
	m, lm := newManagers()
	// Another transaction holds table X: LockRow must block at the intent
	// lock. Use the async API to observe the waiting state.
	blocker := m.Begin(lm.RegisterApp())
	if err := blocker.LockTable(context.Background(), 1, lockmgr.ModeX); err != nil {
		t.Fatal(err)
	}
	tx := m.Begin(lm.RegisterApp())
	op := tx.AcquireRow(1, 5, lockmgr.ModeS, 1)
	if op.Poll() != OpWaiting {
		t.Fatalf("op state = %v, want waiting at intent", op.Poll())
	}
	blocker.Commit()
	if op.Poll() != OpGranted {
		t.Fatalf("op state = %v after blocker commit", op.Poll())
	}
	if tx.RowsLocked() != 1 {
		t.Fatalf("rows locked = %d", tx.RowsLocked())
	}
	tx.Commit()
}

func TestAcquireRowImmediateGrant(t *testing.T) {
	m, lm := newManagers()
	tx := m.Begin(lm.RegisterApp())
	op := tx.AcquireRow(2, 7, lockmgr.ModeX, 1)
	if op.Poll() != OpGranted {
		t.Fatalf("op = %v err=%v", op.Poll(), op.Err())
	}
	// Second phase ran: both intent and row held.
	if got := lm.UsedStructs(); got != 2 {
		t.Fatalf("used = %d, want 2", got)
	}
	tx.Commit()
}

func TestAcquireRowSecondPhaseBlocks(t *testing.T) {
	m, lm := newManagers()
	holder := m.Begin(lm.RegisterApp())
	if err := holder.LockRow(context.Background(), 1, 5, lockmgr.ModeX); err != nil {
		t.Fatal(err)
	}
	tx := m.Begin(lm.RegisterApp())
	op := tx.AcquireRow(1, 5, lockmgr.ModeS, 1)
	// Intent (IS vs IX) grants; row blocks.
	if op.Poll() != OpWaiting {
		t.Fatalf("op = %v, want waiting at row", op.Poll())
	}
	holder.Commit()
	if op.Poll() != OpGranted {
		t.Fatalf("op = %v", op.Poll())
	}
	tx.Commit()
}

func TestAcquireTable(t *testing.T) {
	m, lm := newManagers()
	tx := m.Begin(lm.RegisterApp())
	op := tx.AcquireTable(4, lockmgr.ModeS)
	if op.Poll() != OpGranted {
		t.Fatalf("op = %v", op.Poll())
	}
	if got := lm.UsedStructs(); got != 1 {
		t.Fatalf("used = %d, want 1", got)
	}
	tx.Commit()
}

func TestWeightedAcquire(t *testing.T) {
	m, lm := newManagers()
	tx := m.Begin(lm.RegisterApp())
	op := tx.AcquireRow(1, 0, lockmgr.ModeS, 64)
	if op.Poll() != OpGranted {
		t.Fatalf("op = %v err=%v", op.Poll(), op.Err())
	}
	if got := lm.UsedStructs(); got != 65 { // 64 + intent
		t.Fatalf("used = %d, want 65", got)
	}
	tx.Commit()
}

func TestAbortWhileWaitingDeniesOp(t *testing.T) {
	m, lm := newManagers()
	holder := m.Begin(lm.RegisterApp())
	if err := holder.LockRow(context.Background(), 1, 5, lockmgr.ModeX); err != nil {
		t.Fatal(err)
	}
	tx := m.Begin(lm.RegisterApp())
	op := tx.AcquireRow(1, 5, lockmgr.ModeX, 1)
	if op.Poll() != OpWaiting {
		t.Fatalf("op = %v", op.Poll())
	}
	tx.Abort()
	if op.Poll() != OpDenied {
		t.Fatalf("op after abort = %v", op.Poll())
	}
	holder.Commit()
	if got := lm.UsedStructs(); got != 0 {
		t.Fatalf("used = %d", got)
	}
}

func TestStateStrings(t *testing.T) {
	if StateActive.String() != "active" || StateCommitted.String() != "committed" ||
		StateAborted.String() != "aborted" || State(7).String() != "State(7)" {
		t.Fatal("state strings wrong")
	}
}

func TestLockRange(t *testing.T) {
	m, lm := newManagers()
	tx := m.Begin(lm.RegisterApp())
	if err := tx.LockRange(context.Background(), 5, 100, lockmgr.ModeS, 64); err != nil {
		t.Fatal(err)
	}
	// 64 structures for the range + 1 intent.
	if got := lm.UsedStructs(); got != 65 {
		t.Fatalf("structs = %d, want 65", got)
	}
	if got := tx.RowsLocked(); got != 64 {
		t.Fatalf("rows locked = %d, want 64", got)
	}
	if err := tx.LockRange(context.Background(), 5, 200, lockmgr.ModeX, 0); err == nil {
		t.Fatal("zero-weight range accepted")
	}
	tx.Commit()
	if err := tx.LockRange(context.Background(), 5, 0, lockmgr.ModeS, 8); !errors.Is(err, ErrNotActive) {
		t.Fatalf("err = %v, want ErrNotActive", err)
	}
	if got := lm.UsedStructs(); got != 0 {
		t.Fatalf("leak: %d", got)
	}
}

func TestAcquireTableBlocksAndResolves(t *testing.T) {
	m, lm := newManagers()
	holder := m.Begin(lm.RegisterApp())
	if err := holder.LockTable(context.Background(), 9, lockmgr.ModeX); err != nil {
		t.Fatal(err)
	}
	tx := m.Begin(lm.RegisterApp())
	op := tx.AcquireTable(9, lockmgr.ModeS)
	if op.Poll() != OpWaiting {
		t.Fatalf("op = %v, want waiting", op.Poll())
	}
	holder.Commit()
	if op.Poll() != OpGranted {
		t.Fatalf("op = %v after holder commit", op.Poll())
	}
	tx.Commit()
}

// TestPollAfterFinishIssuesNoRequest: an op whose intent phase was granted
// but never polled before its transaction committed must not advance to
// the row phase afterwards. The transaction's lock owner is recycled at
// commit, so a row request issued then would lock the row for whichever
// transaction reuses the owner.
func TestPollAfterFinishIssuesNoRequest(t *testing.T) {
	m, lm := newManagers()
	app := lm.RegisterApp()

	blocker := m.Begin(app)
	if err := blocker.LockTable(context.Background(), 1, lockmgr.ModeX); err != nil {
		t.Fatal(err)
	}
	tx := m.Begin(app)
	op := tx.AcquireRow(1, 7, lockmgr.ModeX, 1)
	if st := op.Poll(); st != OpWaiting {
		t.Fatalf("intent behind a table X lock: %v, want waiting", st)
	}
	blocker.Commit() // grants tx's intent lock; op is not polled
	tx.Commit()
	if tx.Owner() != nil {
		t.Fatal("finished transaction still exposes its lock owner")
	}

	// The next transactions may reuse tx's owner.
	next, other := m.Begin(app), m.Begin(app)
	if st := op.Poll(); st != OpDenied || !errors.Is(op.Err(), ErrNotActive) {
		t.Fatalf("poll after commit: state=%v err=%v, want denied with ErrNotActive", st, op.Err())
	}
	for _, n := range []*Txn{next, other} {
		if got := lm.HeldMode(n.Owner(), lockmgr.RowName(1, 7)); got != lockmgr.ModeNone {
			t.Fatalf("a later transaction holds row 7 in %v", got)
		}
	}
	if got := lm.UsedStructs(); got != 0 {
		t.Fatalf("UsedStructs = %d after the poll, want 0", got)
	}
	next.Commit()
	other.Commit()
	if err := lm.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
