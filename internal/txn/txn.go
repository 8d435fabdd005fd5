// Package txn implements strict two-phase-locking transactions over the
// lock manager. A transaction acquires a table intent lock before each row
// lock (the multigranularity protocol escalation relies on) and releases
// everything at commit or abort.
//
// Two acquisition styles are provided:
//
//   - Lock / LockRow: blocking calls for goroutine-per-connection use;
//   - AcquireRow / AcquireTable returning an *Op that a discrete simulation
//     polls each tick, so thousands of clients can run deterministically on
//     one goroutine.
package txn

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/lockmgr"
	"repro/internal/storage"
)

// State is a transaction's lifecycle state.
type State uint8

const (
	// StateActive — running, may acquire locks.
	StateActive State = iota
	// StateCommitted — finished successfully; locks released.
	StateCommitted
	// StateAborted — rolled back; locks released.
	StateAborted
)

func (s State) String() string {
	switch s {
	case StateActive:
		return "active"
	case StateCommitted:
		return "committed"
	case StateAborted:
		return "aborted"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// ErrNotActive is returned when locking on a finished transaction.
var ErrNotActive = errors.New("txn: transaction not active")

// Manager creates transactions bound to a lock manager. The counters are
// atomics: Begin and commit/abort sit on the transaction fast path, and a
// shared mutex there would serialize exactly the commits the touched-shard
// release walk just unserialized.
type Manager struct {
	locks *lockmgr.Manager

	active  atomic.Int64
	commits atomic.Int64
	aborts  atomic.Int64

	// tokBufs recycles ReadOnly transactions' token slices (*tokenBuf):
	// a scan reuses the capacity an earlier one grew instead of regrowing
	// its slice from nil.
	tokBufs sync.Pool
}

// NewManager returns a transaction manager over the given lock manager.
func NewManager(locks *lockmgr.Manager) *Manager {
	return &Manager{locks: locks}
}

// Stats returns cumulative commits and aborts and the active count. The
// three loads are independent atomics, so the triple is fuzzy — fine for
// monitoring, which is its only caller.
func (m *Manager) Stats() (commits, aborts int64, active int) {
	return m.commits.Load(), m.aborts.Load(), int(m.active.Load())
}

// Txn is one transaction. Not safe for concurrent use by multiple
// goroutines (like a database connection).
type Txn struct {
	mgr   *Manager
	owner *lockmgr.Owner
	state State

	isolation Isolation
	cursor    *lockmgr.Name // CS: the currently locked cursor position

	// RO: optimistic read tokens awaiting commit validation, plus a
	// one-entry cache of the table whose IS token is already stamped
	// (scans revisit one table; a map would be overkill). tokens lives in
	// tokBuf, taken from the manager's pool at the first token and handed
	// back at finish; optReads keeps the token count past that point.
	tokens     []lockmgr.OptToken
	tokBuf     *tokenBuf
	optReads   int64
	tokTable   uint32
	tokTableOK bool

	rowsLocked int64
}

// Begin starts a transaction for the given application.
func (m *Manager) Begin(app *lockmgr.App) *Txn {
	m.active.Add(1)
	return &Txn{mgr: m, owner: m.locks.NewOwner(app)}
}

// State returns the transaction state.
func (t *Txn) State() State { return t.state }

// RowsLocked returns the number of row-lock acquisitions performed.
func (t *Txn) RowsLocked() int64 { return t.rowsLocked }

// Owner exposes the underlying lock owner (for diagnostics).
func (t *Txn) Owner() *lockmgr.Owner { return t.owner }

func (t *Txn) finish(to State, committed bool) {
	if t.state != StateActive {
		return
	}
	t.state = to
	if t.tokBuf != nil {
		t.optReads = int64(len(t.tokens))
		clear(t.tokens)
		t.tokBuf.toks = t.tokens[:0]
		t.mgr.tokBufs.Put(t.tokBuf)
		t.tokBuf, t.tokens = nil, nil
	}
	// finish runs at most once (state guard) and the Txn owns its lock
	// owner exclusively, so the owner can be handed back for recycling.
	t.mgr.locks.FinishOwner(t.owner)
	t.mgr.active.Add(-1)
	if committed {
		t.mgr.commits.Add(1)
	} else {
		t.mgr.aborts.Add(1)
	}
}

// Commit ends the transaction, releasing all locks. Idempotent. A
// ReadOnly transaction validates its optimistic read tokens here and
// silently aborts when one fails — callers that need the verdict use
// CommitValidated (or RunReadOnly, which retries).
func (t *Txn) Commit() {
	if len(t.tokens) > 0 && t.state == StateActive && !t.validateTokens() {
		t.finish(StateAborted, false)
		return
	}
	t.finish(StateCommitted, true)
}

// Abort rolls the transaction back, releasing all locks. Idempotent.
func (t *Txn) Abort() { t.finish(StateAborted, false) }

// LockTable blocks until a table lock of the given mode is held.
func (t *Txn) LockTable(ctx context.Context, table storage.TableID, mode lockmgr.Mode) error {
	if t.state != StateActive {
		return ErrNotActive
	}
	if t.isolation == ReadOnly {
		if mode != lockmgr.ModeS && mode != lockmgr.ModeIS {
			return ErrReadOnlyWrite
		}
		if tok, ok := t.mgr.locks.TryOptimisticRead(lockmgr.TableName(uint32(table)), mode); ok {
			t.addToken(tok)
			return nil
		}
	}
	return t.mgr.locks.Acquire(ctx, t.owner, lockmgr.TableName(uint32(table)), mode, 1)
}

// LockRow blocks until the row lock (and its table intent lock) is held.
// Under CursorStability an S lock releases the previous cursor position;
// under UncommittedRead S reads take only the table intent lock.
func (t *Txn) LockRow(ctx context.Context, table storage.TableID, row uint64, mode lockmgr.Mode) error {
	if t.state != StateActive {
		return ErrNotActive
	}
	if t.isolation == ReadOnly {
		if mode != lockmgr.ModeS {
			return ErrReadOnlyWrite
		}
		if tt, rt, ok := t.readOptimisticRow(table, row); ok {
			t.noteTokens(table, tt, rt)
			return nil
		}
		// Token miss (unpublished header, conflicting holder, fence):
		// fall through to the locking tiers below; the real S lock is
		// held to commit and cannot be invalidated.
	}
	intent := lockmgr.IntentFor(mode)
	if err := t.mgr.locks.Acquire(ctx, t.owner, lockmgr.TableName(uint32(table)), intent, 1); err != nil {
		return fmt.Errorf("txn: intent lock: %w", err)
	}
	if mode == lockmgr.ModeS && !t.applyIsolationBeforeRead(table, row) {
		return nil // UR: no row lock
	}
	if err := t.mgr.locks.Acquire(ctx, t.owner, lockmgr.RowName(uint32(table), row), mode, 1); err != nil {
		return err
	}
	t.rowsLocked++
	if mode == lockmgr.ModeS {
		t.noteRead(table, row)
	}
	return nil
}

// OpState is the state of a polled lock operation.
type OpState uint8

const (
	// OpWaiting — still blocked; poll again next tick.
	OpWaiting OpState = iota
	// OpGranted — all locks held.
	OpGranted
	// OpDenied — failed; see Err.
	OpDenied
)

// Op is a two-phase (intent, then row) lock acquisition driven by polling.
// AcquireRow and AcquireTable return the shared, read-only grantedOp for
// every acquisition that completes at once; only an Op that waits or is
// denied is allocated. Poll and Err never write to a finished Op.
type Op struct {
	txn     *Txn
	table   uint32
	row     uint64
	mode    lockmgr.Mode
	weight  int
	rowOp   bool
	phase   int // 0 = intent in flight, 1 = row in flight
	pending *lockmgr.Pending
	state   OpState
	err     error
}

// grantedOp is the finished Op returned for every acquisition that
// completes at once. It is shared by all transactions and never written.
var grantedOp = &Op{state: OpGranted}

// deniedOp returns a finished, denied Op.
func deniedOp(err error) *Op { return &Op{state: OpDenied, err: err} }

// AcquireRow starts acquiring a row lock (intent lock first) of the given
// mode and weight. Poll the returned Op each tick until it completes. An
// acquisition granted at once allocates nothing and returns the shared
// grantedOp.
func (t *Txn) AcquireRow(table storage.TableID, row uint64, mode lockmgr.Mode, weight int) *Op {
	if t.state != StateActive {
		return deniedOp(ErrNotActive)
	}
	if t.isolation == ReadOnly {
		if mode != lockmgr.ModeS {
			return deniedOp(ErrReadOnlyWrite)
		}
		if tt, rt, ok := t.readOptimisticRow(table, row); ok {
			// Zero-CAS hit: the op completes instantly with no Pending at
			// all — nothing was acquired, so there is nothing to poll.
			t.noteTokens(table, tt, rt)
			return grantedOp
		}
	}
	op := Op{txn: t, table: uint32(table), row: row, mode: mode, weight: weight, rowOp: true}
	if mode == lockmgr.ModeS && !t.applyIsolationBeforeRead(table, row) {
		op.rowOp = false // UR: the intent lock is the whole operation
	}
	op.pending = t.mgr.locks.AcquireAsync(t.owner, lockmgr.TableName(op.table), lockmgr.IntentFor(mode), 1)
	return op.start()
}

// AcquireTable starts acquiring a table lock of the given mode. Like
// AcquireRow, an immediate grant returns the shared grantedOp.
func (t *Txn) AcquireTable(table storage.TableID, mode lockmgr.Mode) *Op {
	if t.state != StateActive {
		return deniedOp(ErrNotActive)
	}
	op := Op{txn: t, table: uint32(table), mode: mode, weight: 1, phase: 1}
	op.pending = t.mgr.locks.AcquireAsync(t.owner, lockmgr.TableName(op.table), mode, 1)
	return op.start()
}

// start polls a just-issued op, which the caller built on its stack, and
// returns what the caller hands out: the shared grantedOp if the op
// completed at once, otherwise a heap copy to poll later.
func (op *Op) start() *Op {
	if op.Poll() == OpGranted {
		return grantedOp
	}
	h := new(Op)
	*h = *op
	return h
}

// Poll advances the operation and returns its state. Safe to call after
// completion.
func (op *Op) Poll() OpState {
	for {
		if op.state != OpWaiting {
			return op.state
		}
		st, err := op.pending.Status()
		switch st {
		case lockmgr.StatusWaiting:
			return OpWaiting
		case lockmgr.StatusDenied:
			op.state, op.err = OpDenied, err
			return op.state
		}
		// Granted: advance the phase.
		if op.phase == 0 && op.rowOp {
			op.phase = 1
			op.pending = op.txn.mgr.locks.AcquireAsync(
				op.txn.owner, lockmgr.RowName(op.table, op.row), op.mode, op.weight)
			continue
		}
		op.state = OpGranted
		if op.rowOp {
			op.txn.rowsLocked++
			if op.mode == lockmgr.ModeS {
				op.txn.noteRead(storage.TableID(op.table), op.row)
			}
		}
		return op.state
	}
}

// Err returns the denial reason after OpDenied.
func (op *Op) Err() error { return op.err }

// LockRange blocks until a weighted row lock covering `rows` contiguous
// rows starting at row is held (one lock request accounting `rows` lock
// structures), plus the table intent lock. Range locks follow the write
// discipline: they are held to commit regardless of isolation level.
func (t *Txn) LockRange(ctx context.Context, table storage.TableID, row uint64, mode lockmgr.Mode, rows int) error {
	if t.state != StateActive {
		return ErrNotActive
	}
	if rows < 1 {
		return fmt.Errorf("txn: invalid range weight %d", rows)
	}
	if t.isolation == ReadOnly {
		if mode != lockmgr.ModeS {
			return ErrReadOnlyWrite
		}
		// A token carries no weight — it consumes no lock structures —
		// so a range read is the same single-header seqlock read as a row
		// read.
		if tt, rt, ok := t.readOptimisticRow(table, row); ok {
			t.noteTokens(table, tt, rt)
			return nil
		}
	}
	intent := lockmgr.IntentFor(mode)
	if err := t.mgr.locks.Acquire(ctx, t.owner, lockmgr.TableName(uint32(table)), intent, 1); err != nil {
		return fmt.Errorf("txn: intent lock: %w", err)
	}
	if err := t.mgr.locks.Acquire(ctx, t.owner, lockmgr.RowName(uint32(table), row), mode, rows); err != nil {
		return err
	}
	t.rowsLocked += int64(rows)
	return nil
}
