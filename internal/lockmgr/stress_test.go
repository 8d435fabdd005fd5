package lockmgr

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Concurrency stress tests for the sharded lock table. They are written to
// run under the race detector (`go test -race ./internal/lockmgr`) and
// assert the two properties the sharding refactor must preserve:
//
//  1. per-lock FIFO grant order survives concurrent completion, and
//  2. UsedStructs + FreeStructs == CapacityStructs holds exactly at every
//     "tuning interval" (here: every background sweep), even while shard
//     lease pools hold batched structures mid-flight.

// TestStressFIFOOrder enqueues a known sequence of waiters on one hot row
// and lets concurrent goroutines complete them. The grant order observed
// must match the enqueue order exactly.
func TestStressFIFOOrder(t *testing.T) {
	const waiters = 64
	m := newMgr(Config{})
	app := m.RegisterApp()

	holder := m.NewOwner(app)
	row := RowName(1, 1)
	mustGrant(t, m.AcquireAsync(holder, row, ModeX, 1), "holder X")

	// Enqueue from a single goroutine so the FIFO order is well defined.
	owners := make([]*Owner, waiters)
	pendings := make([]*Pending, waiters)
	for i := range owners {
		owners[i] = m.NewOwner(app)
		pendings[i] = m.AcquireAsync(owners[i], row, ModeX, 1)
		mustWait(t, pendings[i], "queued waiter")
	}

	// Each goroutine waits for its grant, records its position in the
	// observed grant sequence, and releases — unblocking the next waiter.
	var seq atomic.Int64
	order := make([]int64, waiters)
	var wg sync.WaitGroup
	for i := range owners {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-pendings[i].Done()
			if st, err := pendings[i].Status(); st != StatusGranted {
				t.Errorf("waiter %d: status=%v err=%v", i, st, err)
				return
			}
			order[i] = seq.Add(1) - 1
			m.ReleaseAll(owners[i])
		}(i)
	}
	m.ReleaseAll(holder)
	wg.Wait()

	for i, got := range order {
		if got != int64(i) {
			t.Fatalf("FIFO violated: waiter %d granted at position %d", i, got)
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestStressShardedTable runs transactional workers over disjoint and hot
// rows while a background sweeper performs the cross-shard operations
// (deadlock detection, timeouts, resize) and validates the memory
// accounting at every interval. Deadlocks are expected — hot-row upgrades
// collide — and are handled by aborting the transaction, exactly as the
// engine does.
func TestStressShardedTable(t *testing.T) {
	const (
		workers     = 8
		txPerWorker = 250
		rowsPerTx   = 8
		hotRows     = 4
	)
	if testing.Short() {
		t.Skip("stress test")
	}
	m := newMgr(Config{InitialPages: 32 * 64, Shards: 8})

	var (
		wg       sync.WaitGroup
		stop     = make(chan struct{})
		sweeps   atomic.Int64
		aborts   atomic.Int64
		invErrMu sync.Mutex
		invErr   error
	)

	// Background sweeper: the stand-in for the engine's tuning interval.
	// Each pass breaks deadlocks, flexes the chain size to force lease
	// repatriation, and asserts the exact accounting identity. The pass is
	// stop-the-world, so it must be paced: an unthrottled loop starves the
	// workers outright under the race detector on small machines.
	var sweeperWG sync.WaitGroup
	sweeperWG.Add(1)
	go func() {
		defer sweeperWG.Done()
		shrunk := false
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			m.DetectDeadlocks()
			m.SweepTimeouts()
			if shrunk {
				m.Resize(32 * 64)
			} else {
				m.Resize(32 * 48)
			}
			shrunk = !shrunk
			// CheckInvariants asserts used + free == capacity with the
			// world stopped; reading the three gauges here, while the
			// workers run, would compare values from different instants.
			// A violation is recorded and the sweeps go on, so deadlocks
			// are still broken and the workers finish: the test reports
			// the violation rather than hanging.
			if err := m.CheckInvariants(); err != nil {
				invErrMu.Lock()
				if invErr == nil {
					invErr = err
				}
				invErrMu.Unlock()
			}
			sweeps.Add(1)
		}
	}()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			app := m.RegisterApp()
			rng := rand.New(rand.NewSource(int64(w)))
			table := uint32(100 + w)
			for tx := 0; tx < txPerWorker; tx++ {
				o := m.NewOwner(app)
				ok := true
				// Disjoint rows: private table, always grantable.
				for r := 0; r < rowsPerTx; r++ {
					p := m.AcquireAsync(o, RowName(table, uint64(tx*rowsPerTx+r)), ModeX, 1)
					if st, err := p.Status(); st != StatusGranted {
						t.Errorf("disjoint acquire: status=%v err=%v", st, err)
						ok = false
						break
					}
				}
				// Hot rows in ascending order, sometimes upgrading S→X.
				// Upgrades from concurrent S holders deadlock; the sweeper
				// picks a victim and we abort.
				for h := 0; ok && h < hotRows; h++ {
					if rng.Intn(2) == 0 {
						continue
					}
					mode := ModeS
					if rng.Intn(4) == 0 {
						mode = ModeX
					}
					err := m.Acquire(context.Background(), o, RowName(99, uint64(h)), mode, 1)
					if err == nil && mode == ModeS && rng.Intn(4) == 0 {
						err = m.Acquire(context.Background(), o, RowName(99, uint64(h)), ModeX, 1)
					}
					if err != nil {
						if !errors.Is(err, ErrDeadlock) && !errors.Is(err, ErrTimeout) {
							t.Errorf("hot acquire: %v", err)
						}
						aborts.Add(1)
						ok = false
					}
				}
				m.ReleaseAll(o)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	sweeperWG.Wait()

	invErrMu.Lock()
	err := invErr
	invErrMu.Unlock()
	if err != nil {
		t.Fatalf("invariant violated during run: %v", err)
	}
	if sweeps.Load() == 0 {
		t.Fatal("sweeper never completed a pass")
	}
	// All transactions released: the table must be empty and the exact
	// accounting identity must hold after lease reconciliation.
	if got := m.UsedStructs(); got != 0 {
		t.Fatalf("used structs after run = %d, want 0", got)
	}
	if u, f, c := m.UsedStructs(), m.FreeStructs(), m.CapacityStructs(); u+f != c {
		t.Fatalf("used %d + free %d != capacity %d", u, f, c)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	t.Logf("sweeps=%d aborts=%d latchWaits=%d", sweeps.Load(), aborts.Load(), m.LatchWaits())
}
