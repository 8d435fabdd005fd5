package txn

// ReadOnly transactions over the lock manager's zero-CAS optimistic read
// tier. A ReadOnly transaction's reads acquire epoch-stamped tokens
// instead of locks: nothing is written to any shared line, no lock
// structure is consumed, and commit validates every token against its
// header's epoch. Validation failure means some writer (or fence, or a
// settle-seq wrap) intervened inside a read window — the transaction
// aborts with ErrReadInvalidated and the caller reruns it; RunReadOnly
// packages that retry loop with a bounded backoff and a final fallback to
// plain RR two-phase locking, whose real S locks cannot be invalidated.

import (
	"errors"
	"runtime"

	"repro/internal/lockmgr"
	"repro/internal/storage"
)

// ErrReadInvalidated is returned by CommitValidated when an optimistic
// read token failed validation: a conflicting writer touched a read
// header inside the transaction's read window, so the reads do not form a
// consistent snapshot. The transaction has been aborted; rerun it.
var ErrReadInvalidated = errors.New("txn: optimistic read invalidated at commit")

// ErrReadOnlyWrite is returned when a ReadOnly transaction requests a
// write (or any non-shared) lock mode.
var ErrReadOnlyWrite = errors.New("txn: write lock requested in readonly transaction")

// OptimisticReads returns the number of reads this transaction satisfied
// with optimistic tokens (vs rowsLocked, the reads that fell back to real
// locks). The count stays valid after commit or abort.
func (t *Txn) OptimisticReads() int64 { return t.optReads + int64(len(t.tokens)) }

// tokenBuf carries a token slice between ReadOnly transactions through the
// manager's pool (a pointer, so pooling it allocates nothing).
type tokenBuf struct{ toks []lockmgr.OptToken }

// addToken records an optimistic read token, taking a recycled slice from
// the manager's pool at the transaction's first token.
func (t *Txn) addToken(tok lockmgr.OptToken) {
	if t.tokBuf == nil {
		t.tokBuf, _ = t.mgr.tokBufs.Get().(*tokenBuf)
		if t.tokBuf == nil {
			t.tokBuf = new(tokenBuf)
		}
		t.tokens = t.tokBuf.toks
	}
	t.tokens = append(t.tokens, tok)
}

// readOptimisticRow satisfies a ReadOnly row read: an IS token on the
// table (cached per table — scans revisit the same one) and an S token on
// the row. Either token miss falls back to the locking tiers via the
// normal acquire path; the fallback locks are held to commit and released
// by FinishOwner like any other.
func (t *Txn) readOptimisticRow(table storage.TableID, row uint64) (tableTok, rowTok lockmgr.OptToken, ok2 bool) {
	locks := t.mgr.locks
	if t.tokTableOK && t.tokTable == uint32(table) {
		tableTok = lockmgr.OptToken{} // already stamped this table's IS
	} else if tok, ok := locks.TryOptimisticRead(lockmgr.TableName(uint32(table)), lockmgr.ModeIS); ok {
		tableTok = tok
	} else {
		return lockmgr.OptToken{}, lockmgr.OptToken{}, false
	}
	rowTok, ok := locks.TryOptimisticRead(lockmgr.RowName(uint32(table), row), lockmgr.ModeS)
	if !ok {
		// The table token (if any) is simply dropped: an unvalidated token
		// mutated nothing and needs no release.
		return lockmgr.OptToken{}, lockmgr.OptToken{}, false
	}
	return tableTok, rowTok, true
}

// noteTokens records a successful optimistic row read.
func (t *Txn) noteTokens(table storage.TableID, tableTok, rowTok lockmgr.OptToken) {
	if tableTok.Valid() {
		t.addToken(tableTok)
		t.tokTable, t.tokTableOK = uint32(table), true
	}
	t.addToken(rowTok)
}

// validateTokens closes every optimistic read window. It validates all
// tokens (not first-failure-exit) so the failure counters reflect every
// invalidated window.
func (t *Txn) validateTokens() bool {
	ok := true
	for _, tok := range t.tokens {
		if !t.mgr.locks.ValidateOptimistic(tok) {
			ok = false
		}
	}
	return ok
}

// CommitValidated ends the transaction like Commit, but surfaces
// optimistic read validation: if any token fails, the transaction aborts
// and ErrReadInvalidated is returned. For non-ReadOnly transactions (no
// tokens) it always commits and returns nil.
func (t *Txn) CommitValidated() error {
	if t.state != StateActive {
		return ErrNotActive
	}
	if !t.validateTokens() {
		t.finish(StateAborted, false)
		return ErrReadInvalidated
	}
	t.finish(StateCommitted, true)
	return nil
}

// roBackoff yields the scheduler a bounded, exponentially growing number
// of times between ReadOnly retry attempts: enough to let the conflicting
// writer's window close, without ever parking the goroutine (simulation
// ticks and benchmark loops both poll through here).
func roBackoff(attempt int) {
	spins := 8 << uint(attempt)
	if spins > 256 {
		spins = 256
	}
	for i := 0; i < spins; i++ {
		runtime.Gosched()
	}
}

// RunReadOnly runs fn inside a ReadOnly transaction, retrying on
// ErrReadInvalidated with a bounded backoff (maxRetries optimistic
// attempts). If every optimistic attempt is invalidated — a hot writer
// keeps touching the read set — the final attempt runs under plain
// RepeatableRead two-phase locking, which takes real S locks and cannot be
// invalidated, so RunReadOnly always terminates with fn's own error or
// nil. fn must be idempotent (it reruns on retry) and must only read.
func (m *Manager) RunReadOnly(app *lockmgr.App, maxRetries int, fn func(*Txn) error) error {
	if maxRetries < 1 {
		maxRetries = 1
	}
	for attempt := 0; attempt < maxRetries; attempt++ {
		t := m.Begin(app)
		t.isolation = ReadOnly
		if err := fn(t); err != nil {
			t.Abort()
			return err
		}
		err := t.CommitValidated()
		if err == nil {
			return nil
		}
		if !errors.Is(err, ErrReadInvalidated) {
			return err
		}
		roBackoff(attempt)
	}
	// Pessimistic fallback: real locks, guaranteed progress.
	t := m.Begin(app)
	if err := fn(t); err != nil {
		t.Abort()
		return err
	}
	t.Commit()
	return nil
}
