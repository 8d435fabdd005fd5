package lockmgr

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestAllocsWaitedOwnerCycle: a transaction whose request waited recycles
// its owner like any other, so a holder/waiter pair costs one allocation —
// the waiter's request box, whose Pending the caller may keep.
func TestAllocsWaitedOwnerCycle(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	m := newMgr(Config{Shards: 1})
	app := m.RegisterApp()
	row := RowName(1, 1)
	run := func() {
		holder := m.NewOwner(app)
		mustGrant(t, m.AcquireAsync(holder, row, ModeX, 1), "holder")
		waiter := m.NewOwner(app)
		p := m.AcquireAsync(waiter, row, ModeX, 1)
		mustWait(t, p, "waiter")
		m.FinishOwner(holder)
		mustGrant(t, p, "waiter after the holder's commit")
		m.FinishOwner(waiter)
	}
	for i := 0; i < 8; i++ {
		run() // warm the caches and the owner pool
	}
	if a := testing.AllocsPerRun(200, run); a > 1 {
		t.Fatalf("%v allocations per holder/waiter pair, want ≤ 1 (the waiter's box)", a)
	}
	if got := m.PinnedOwners(); got != 0 {
		t.Fatalf("PinnedOwners = %d with no continuations, want 0", got)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAllocsDetectDeadlocks: a detector pass over a cycle-free wait graph
// reuses the manager's scratch and allocates nothing once warm, and leaves
// the scratch referencing no owner or request.
func TestAllocsDetectDeadlocks(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const hot, waiters = 4, 64
	m := newMgr(Config{Shards: 4})
	app := m.RegisterApp()
	for r := 0; r < hot; r++ {
		mustGrant(t, m.AcquireAsync(m.NewOwner(app), RowName(1, uint64(r)), ModeX, 1), "holder")
	}
	for i := 0; i < waiters; i++ {
		mustWait(t, m.AcquireAsync(m.NewOwner(app), RowName(1, uint64(i%hot)), ModeX, 1), "waiter")
	}
	pass := func() {
		if n := m.DetectDeadlocks(); n != 0 {
			t.Fatalf("cycle-free graph: %d requests denied", n)
		}
	}
	for i := 0; i < 4; i++ {
		pass()
	}
	if a := testing.AllocsPerRun(50, pass); a > 0 {
		t.Fatalf("%v allocations per detector pass over %d waiters, want 0", a, waiters)
	}
	assertDetectScratchEmpty(t, m)
}

// assertDetectScratchEmpty fails unless the detector scratch holds no
// owner or request anywhere in its capacity.
func assertDetectScratchEmpty(t *testing.T, m *Manager) {
	t.Helper()
	d := &m.det
	if len(d.num) != 0 {
		t.Fatalf("detector owner index holds %d owners between passes", len(d.num))
	}
	for _, o := range d.owners[:cap(d.owners)] {
		if o != nil {
			t.Fatal("detector owner list pins an owner between passes")
		}
	}
	for _, w := range d.waits[:cap(d.waits)] {
		if w.req != nil {
			t.Fatal("detector waits list pins a request between passes")
		}
	}
	for _, e := range d.edges[:cap(d.edges)] {
		if e.via != nil {
			t.Fatal("detector edge list pins a request between passes")
		}
	}
	for _, e := range d.cycles[:cap(d.cycles)] {
		if e.from != nil || e.to != nil || e.via != nil {
			t.Fatal("detector cycle list pins an owner between passes")
		}
	}
	for _, f := range d.stack[:cap(d.stack)] {
		if f.via != nil {
			t.Fatal("detector stack pins a request between passes")
		}
	}
	for _, o := range d.to[:cap(d.to)] {
		if o != nil {
			t.Fatal("detector edge buffer pins an owner between passes")
		}
	}
	if len(d.edges) != 0 || len(d.cycles) != 0 || len(d.ends) != 0 || len(d.rest) != 0 {
		t.Fatal("detector scratch not emptied after the pass")
	}
}

// TestRecycledOwnerCulledRetryRace: with a throttle ceiling of 1 every
// contended request is culled and comes back through a retry continuation,
// while FinishOwner hands owners straight to the next NewOwner — some of
// them aborted with their request still culled or queued. A retry must
// never land a lock in the transaction that reuses its owner: every fresh
// owner starts empty, a granted transaction holds exactly its own lock,
// and the invariants (queued retries pin their owners) hold throughout.
func TestRecycledOwnerCulledRetryRace(t *testing.T) {
	m := newMgr(Config{Throttle: 1, Shards: 2, LockTimeout: 2 * time.Second})
	app := m.RegisterApp()
	rows := [2]Name{RowName(3, 1), RowName(3, 2)}
	held := func(o *Owner) int {
		o.mu.Lock()
		defer o.mu.Unlock()
		return o.held.n + len(o.held.m)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	stopAll := sync.OnceFunc(func() { close(stop); wg.Wait() })
	t.Cleanup(stopAll)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				o := m.NewOwner(app)
				if n := held(o); n != 0 {
					t.Errorf("g%d: a fresh owner holds %d locks", g, n)
					return
				}
				p := m.AcquireAsync(o, rows[(g+i)%2], ModeX, 1)
				if st, _ := p.Status(); st == StatusWaiting && (g+i)%3 == 0 {
					m.FinishOwner(o) // abort while queued or culled
					continue
				}
				select {
				case <-p.Done():
				case <-time.After(10 * time.Second):
					t.Errorf("g%d: request never completed", g)
					return
				}
				switch st, err := p.Status(); {
				case st == StatusGranted:
					runtime.Gosched() // hold across a yield: contention even on one P
					if n := held(o); n != 1 {
						t.Errorf("g%d: granted transaction holds %d locks, want 1", g, n)
						return
					}
				case !errors.Is(err, ErrTimeout):
					t.Errorf("g%d: status=%v err=%v", g, st, err)
					return
				}
				m.FinishOwner(o)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := m.CheckInvariants(); err != nil {
				t.Errorf("invariants: %v", err)
				return
			}
			m.DetectDeadlocks()
			m.SweepTimeouts()
			time.Sleep(time.Millisecond)
		}
	}()

	time.Sleep(200 * time.Millisecond)
	stopAll()
	m.SweepTimeouts()
	m.flushConts()
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := m.UsedStructs(); got != 0 {
		t.Fatalf("UsedStructs = %d after every transaction finished, want 0", got)
	}
	if m.nOwners != 0 {
		t.Fatalf("%d owners still registered", m.nOwners)
	}
	if m.ThrottleCulled() == 0 {
		t.Fatal("the ceiling culled no waiter; the retry path was not exercised")
	}
	throttleIdentity(t, m)
	t.Logf("culled %d, pinned owners left to the GC %d", m.ThrottleCulled(), m.PinnedOwners())
}
