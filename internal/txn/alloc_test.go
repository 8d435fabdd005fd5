package txn

import (
	"fmt"
	"testing"

	"repro/internal/lockmgr"
)

// allocRowCounts spans both sides of the lock manager's inline owner
// indexes (8 rows per table, 10 held locks), so the spill maps are covered
// too.
var allocRowCounts = []int{1, 8, 64}

// TestAllocsUncontendedTxn pins the allocation-free lock path: once the
// box caches and the owner pool are warm, an uncontended Begin → N ×
// AcquireRow → Commit allocates at most one object, the Txn itself, for
// any N. Rows alternate X (latched admission) and S (grant-word CAS once
// the header is published).
func TestAllocsUncontendedTxn(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, n := range allocRowCounts {
		t.Run(fmt.Sprintf("rows=%d", n), func(t *testing.T) {
			m, lm := newManagers()
			app := lm.RegisterApp()
			run := func() {
				tx := m.Begin(app)
				for i := 0; i < n; i++ {
					mode := lockmgr.ModeX
					if i%2 == 1 {
						mode = lockmgr.ModeS
					}
					if st := tx.AcquireRow(1, uint64(i), mode, 1).Poll(); st != OpGranted {
						t.Fatalf("row %d: %v", i, st)
					}
				}
				tx.Commit()
			}
			for i := 0; i < 16; i++ {
				run() // warm the caches
			}
			if a := testing.AllocsPerRun(200, run); a > 1 {
				t.Fatalf("%v allocations per transaction, want ≤ 1 (the Txn)", a)
			}
			if err := lm.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAllocsReadOnlyScan: a ReadOnly scan of published rows allocates
// only the Txn — the token slice is recycled across transactions — and
// OptimisticReads still reports the scan after commit.
func TestAllocsReadOnlyScan(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, n := range allocRowCounts {
		t.Run(fmt.Sprintf("rows=%d", n), func(t *testing.T) {
			m, lm := newManagers()
			app := lm.RegisterApp()
			for i := 0; i < n; i++ {
				publishRow(t, m, lm, app, 1, uint64(i))
			}
			var last *Txn
			run := func() {
				tx := m.Begin(app)
				if err := tx.SetIsolation(ReadOnly); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < n; i++ {
					if st := tx.AcquireRow(1, uint64(i), lockmgr.ModeS, 1).Poll(); st != OpGranted {
						t.Fatalf("row %d: %v", i, st)
					}
				}
				if err := tx.CommitValidated(); err != nil {
					t.Fatal(err)
				}
				last = tx
			}
			for i := 0; i < 16; i++ {
				run()
			}
			if a := testing.AllocsPerRun(200, run); a > 1 {
				t.Fatalf("%v allocations per scan, want ≤ 1 (the Txn)", a)
			}
			// One table IS token, then per row an S token or — where the
			// row's header could not be published (fast-slot collision) —
			// a real S lock; the tokens stay counted after the slice went
			// back to the pool.
			opt, locked := last.OptimisticReads(), last.RowsLocked()
			if opt < 2 || opt+locked != int64(n+1) {
				t.Fatalf("after commit: %d optimistic reads + %d locked rows, want %d in all, tokens > 1",
					opt, locked, n+1)
			}
		})
	}
}
