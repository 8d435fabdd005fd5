package lockmgr

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// These tests pin down the concurrent control plane's two promises:
//
//  1. Liveness/steady-state: DetectDeadlocks, SweepTimeouts, Stats,
//     ShardStatsSnapshot, and DumpLocks never take the all-shard latch
//     (GlobalRuns stays flat) — asserted directly on the counter, not on
//     timing.
//  2. Safety under churn (-race): continuous detection against a churning
//     acyclic workload denies no one (no false victims), while injected
//     cycles are still found and broken within two detector passes (no
//     lost deadlocks).

// TestControlPlaneStaysOffGlobalPath drives ordinary traffic — including
// real wait queues — through the fast path, exercises every steady-state
// control-plane entry point, and asserts the all-shard latch was never
// taken.
func TestControlPlaneStaysOffGlobalPath(t *testing.T) {
	m := newMgr(Config{LockTimeout: time.Hour})
	app := m.RegisterApp()

	// Contended traffic: o1 holds X on a hot row, o2 queues behind it,
	// plus a spread of uncontended locks across shards.
	o1 := m.NewOwner(app)
	o2 := m.NewOwner(app)
	hot := RowName(1, 7)
	mustGrant(t, m.AcquireAsync(o1, hot, ModeX, 1), "o1 hot")
	for i := 0; i < 64; i++ {
		mustGrant(t, m.AcquireAsync(o1, RowName(2, uint64(i)), ModeS, 1), "spread")
	}
	pw := m.AcquireAsync(o2, hot, ModeX, 1)
	mustWait(t, pw, "o2 queued behind o1")

	// Steady-state control plane: none of these may enter global mode.
	if n := m.DetectDeadlocks(); n != 0 {
		t.Fatalf("acyclic table produced %d victims", n)
	}
	m.SweepTimeouts()
	_ = m.Stats()
	_ = m.ShardStatsSnapshot()
	_ = m.DumpLocks()
	if n := m.DetectDeadlocks(); n != 0 {
		t.Fatalf("second pass produced %d victims", n)
	}

	if runs := m.GlobalRuns(); runs != 0 {
		t.Fatalf("steady-state control plane took the all-shard latch %d times", runs)
	}
	if hold := m.GlobalHoldMax(); hold != 0 {
		t.Fatalf("GlobalHoldMax = %v with no global runs", hold)
	}

	m.ReleaseAll(o1)
	mustGrant(t, pw, "o2 after o1 release")
	m.ReleaseAll(o2)
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// CheckInvariants is the deliberate runGlobal survivor; now the
	// gauges must show it.
	if m.GlobalRuns() == 0 {
		t.Fatal("CheckInvariants did not register a global run")
	}
}

// TestGlobalGaugesTrackEscalation: the admission path of last resort is a
// runGlobal survivor, and its stall must be visible in the gauges.
func TestGlobalGaugesTrackEscalation(t *testing.T) {
	m := New(Config{InitialPages: 32, Quota: fixedQuota(10)})
	app := m.RegisterApp()
	o := m.NewOwner(app)
	mustGrant(t, m.AcquireAsync(o, TableName(1), ModeIS, 1), "intent")
	for i := 0; m.Stats().Escalations == 0; i++ {
		if i > 400 {
			t.Fatal("no escalation")
		}
		mustGrant(t, m.AcquireAsync(o, RowName(1, uint64(i)), ModeS, 1), "row")
	}
	if m.GlobalRuns() == 0 {
		t.Fatal("escalation did not go through the global path")
	}
	if m.GlobalHoldMax() <= 0 {
		t.Fatal("global hold gauge not recorded")
	}
	m.ReleaseAll(o)
}

// TestDetectStressNoFalseVictims runs continuous deadlock detection against
// a churning, deadlock-free workload and asserts nobody is ever denied.
// Workers lock strictly in ascending (table, row) order with no mode
// upgrades, so the waits-for graph is acyclic by construction: every
// ErrDeadlock would be a false victim, and every detector pass must return
// 0. Run under -race this also exercises the export/validate phases against
// concurrent grants and releases.
func TestDetectStressNoFalseVictims(t *testing.T) {
	m := newMgr(Config{InitialPages: 32 * 16})
	app := m.RegisterApp()

	const (
		workers = 8
		iters   = 300
		hotRows = 4 // contended X rows -> real wait queues for the detector
	)
	ctx := context.Background()
	stop := make(chan struct{})
	var detPasses atomic.Int64

	// Teardown runs from t.Cleanup too, so a failing run cannot leak the
	// detector goroutine into later tests.
	var detWG sync.WaitGroup
	stopDetector := sync.OnceFunc(func() { close(stop); detWG.Wait() })
	t.Cleanup(stopDetector)
	detWG.Add(1)
	go func() {
		defer detWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := m.DetectDeadlocks(); n != 0 {
				t.Errorf("detector denied %d victims on an acyclic workload", n)
				return
			}
			detPasses.Add(1)
			runtime.Gosched()
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < iters; n++ {
				o := m.NewOwner(app)
				// Private S spread (different shard homes), then the
				// shared hot X rows in ascending order.
				for r := 0; r < 3; r++ {
					name := RowName(2, uint64(w)<<20|uint64(n*4+r))
					if err := m.Acquire(ctx, o, name, ModeS, 1); err != nil {
						t.Errorf("worker %d: private S: %v", w, err)
						return
					}
				}
				for r := 0; r < hotRows; r++ {
					if err := m.Acquire(ctx, o, RowName(3, uint64(r)), ModeX, 1); err != nil {
						t.Errorf("worker %d: hot X row %d: %v", w, r, err)
						return
					}
				}
				m.ReleaseAll(o)
			}
		}(w)
	}
	wg.Wait()
	stopDetector()

	if detPasses.Load() == 0 {
		t.Fatal("detector never completed a pass")
	}
	if got := m.Stats().Deadlocks; got != 0 {
		t.Fatalf("deadlock stat = %d on an acyclic workload", got)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDetectStressInjectedCycles repeatedly injects a genuine two-owner
// cycle while an acyclic churn workload runs alongside, and asserts every
// cycle is broken within two detector passes, the victim is the younger
// owner, the survivor proceeds, and the churn never produces a victim (no
// lost deadlocks, no false victims — under -race).
func TestDetectStressInjectedCycles(t *testing.T) {
	m := newMgr(Config{InitialPages: 32 * 16})
	app := m.RegisterApp()

	stop := make(chan struct{})
	ctx := context.Background()
	// The churn is stopped from t.Cleanup as well: a t.Fatalf in the cycle
	// loop below must not leave churn goroutines running into later tests
	// (they would race those tests' package-level hooks).
	var churnWG sync.WaitGroup
	stopChurn := sync.OnceFunc(func() { close(stop); churnWG.Wait() })
	t.Cleanup(stopChurn)
	for w := 0; w < 4; w++ {
		churnWG.Add(1)
		go func(w int) {
			defer churnWG.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				o := m.NewOwner(app)
				for r := 0; r < 2; r++ {
					if err := m.Acquire(ctx, o, RowName(10, uint64(r)), ModeX, 1); err != nil {
						t.Errorf("churn %d: %v", w, err)
						return
					}
				}
				m.ReleaseAll(o)
			}
		}(w)
	}

	const cycles = 50
	for c := 0; c < cycles; c++ {
		o1 := m.NewOwner(app)
		o2 := m.NewOwner(app) // younger: the designated victim
		a := RowName(20, uint64(c*2))
		b := RowName(20, uint64(c*2+1))
		mustGrant(t, m.AcquireAsync(o1, a, ModeX, 1), "o1 a")
		mustGrant(t, m.AcquireAsync(o2, b, ModeX, 1), "o2 b")
		p1 := m.AcquireAsync(o1, b, ModeX, 1)
		p2 := m.AcquireAsync(o2, a, ModeX, 1)
		mustWait(t, p1, "o1 behind o2")
		mustWait(t, p2, "o2 behind o1")

		// The cycle is fully formed; it must be broken within two passes.
		denied := m.DetectDeadlocks()
		if denied == 0 {
			denied = m.DetectDeadlocks()
		}
		if denied == 0 {
			t.Fatalf("cycle %d not broken within 2 detector passes", c)
		}
		st2, err2 := p2.Status()
		if st2 != StatusDenied || !errors.Is(err2, ErrDeadlock) {
			t.Fatalf("cycle %d: younger owner not the victim (status=%v err=%v)", c, st2, err2)
		}
		if st1, err1 := p1.Status(); st1 == StatusDenied {
			t.Fatalf("cycle %d: survivor denied too: %v", c, err1)
		}
		m.ReleaseAll(o2) // victim aborts; survivor must proceed
		mustGrant(t, p1, fmt.Sprintf("cycle %d survivor", c))
		m.ReleaseAll(o1)
	}
	stopChurn()

	// Every denial must belong to an injected cycle; churn is acyclic.
	if got, want := m.Stats().Deadlocks, int64(cycles); got != want {
		t.Fatalf("deadlock stat = %d, want exactly %d (one per injected cycle)", got, want)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDetectorThroughputOverhead measures grant throughput with the
// detector running at the simulator cadence versus detector-off, and
// asserts the detector costs no more than 10% — the acceptance bound for
// taking stop-the-world out of the control plane. The workload mirrors the
// engine benchmark: private X ranges plus a shared hot row, so wait queues
// are real. Multiple attempts absorb scheduler noise; the bound must hold
// on at least one attempt.
func TestDetectorThroughputOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput measurement; skipped in -short mode")
	}
	const (
		workers  = 8
		iters    = 400
		per      = 6   // locks per transaction
		detEvery = 250 // commits per detector pass (sim cadence ~5 ticks)
	)
	run := func(detector bool) float64 {
		m := newMgr(Config{InitialPages: 32 * 16})
		app := m.RegisterApp()
		ctx := context.Background()
		stop := make(chan struct{})
		var commits atomic.Int64
		var detWG sync.WaitGroup
		if detector {
			detWG.Add(1)
			go func() {
				defer detWG.Done()
				next := int64(detEvery)
				for {
					select {
					case <-stop:
						return
					default:
					}
					if commits.Load() < next {
						runtime.Gosched()
						continue
					}
					next += detEvery
					m.SweepTimeouts()
					m.DetectDeadlocks()
				}
			}()
		}
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for n := 0; n < iters; n++ {
					o := m.NewOwner(app)
					base := uint64(w)<<20 | uint64(n*per)
					for r := 0; r < per-1; r++ {
						if err := m.Acquire(ctx, o, RowName(2, base+uint64(r)), ModeX, 1); err != nil {
							t.Error(err)
							return
						}
					}
					if err := m.Acquire(ctx, o, RowName(3, uint64(n%4)), ModeX, 1); err != nil {
						t.Error(err)
						return
					}
					m.ReleaseAll(o)
					commits.Add(1)
				}
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(start)
		close(stop)
		detWG.Wait()
		return float64(workers*iters) / elapsed.Seconds()
	}

	const attempts = 5
	var best float64
	for a := 0; a < attempts; a++ {
		off := run(false)
		on := run(true)
		ratio := on / off
		if ratio > best {
			best = ratio
		}
		if best >= 0.90 {
			return
		}
	}
	t.Fatalf("detector-on throughput stuck at %.0f%% of detector-off (bound 90%%) across %d attempts",
		best*100, attempts)
}
