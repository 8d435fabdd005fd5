package lockmgr

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/trace"
)

// TestHotLockBlameDeterministic drives contention single-threaded on the
// simulated clock and checks the sketch against exactly computed blame.
// With fewer distinct contended locks than slots per stripe the sketch's
// documented bound collapses to exactness (Err == 0): blame is the sum of
// clock-measured wait time plus hotEventBlameNs per enqueue.
func TestHotLockBlameDeterministic(t *testing.T) {
	clk := clock.NewSim()
	m := New(Config{InitialPages: 64, Clock: clk})

	rowA, rowB := RowName(1, 1), RowName(2, 2)
	expect := map[Name]struct{ blame, wait int64 }{}

	// rowA: one 5ms wait, one 7ms wait (sequential, so each is one
	// enqueue charging hotEventBlameNs plus its measured duration).
	for _, d := range []time.Duration{5 * time.Millisecond, 7 * time.Millisecond} {
		h := m.NewOwner(m.RegisterApp())
		w := m.NewOwner(m.RegisterApp())
		mustGrant(t, m.AcquireAsync(h, rowA, ModeX, 1), "holder X")
		p := m.AcquireAsync(w, rowA, ModeS, 1)
		mustWait(t, p, "waiter S")
		clk.Advance(d)
		m.ReleaseAll(h)
		mustGrant(t, p, "waiter granted on release")
		m.ReleaseAll(w)
		e := expect[rowA]
		e.blame += hotEventBlameNs + d.Nanoseconds()
		e.wait += d.Nanoseconds()
		expect[rowA] = e
	}

	// rowB: one 3ms wait.
	h := m.NewOwner(m.RegisterApp())
	w := m.NewOwner(m.RegisterApp())
	mustGrant(t, m.AcquireAsync(h, rowB, ModeX, 1), "holder X")
	p := m.AcquireAsync(w, rowB, ModeS, 1)
	mustWait(t, p, "waiter S")
	clk.Advance(3 * time.Millisecond)
	m.ReleaseAll(h)
	mustGrant(t, p, "waiter granted on release")
	m.ReleaseAll(w)
	expect[rowB] = struct{ blame, wait int64 }{hotEventBlameNs + 3e6, 3e6}

	hot := m.HotLocks(10)
	if len(hot) != 2 {
		t.Fatalf("tracked %d locks, want 2: %+v", len(hot), hot)
	}
	// Highest blame first: rowA (12ms + 2µs) over rowB (3ms + 1µs).
	if hot[0].Name != rowA.String() {
		t.Fatalf("top lock %s, want %s", hot[0].Name, rowA.String())
	}
	for _, hl := range hot {
		var want struct{ blame, wait int64 }
		switch hl.Name {
		case rowA.String():
			want = expect[rowA]
		case rowB.String():
			want = expect[rowB]
		default:
			t.Fatalf("unexpected lock %q", hl.Name)
		}
		if hl.BlameNs != want.blame || hl.ErrNs != 0 {
			t.Errorf("%s: blame %d err %d, want exactly %d err 0", hl.Name, hl.BlameNs, hl.ErrNs, want.blame)
		}
		if hl.WaitNs != want.wait {
			t.Errorf("%s: wait %d, want %d", hl.Name, hl.WaitNs, want.wait)
		}
		if hl.QueueDepthMax != 1 {
			t.Errorf("%s: queue max %d, want 1 (one waiter at a time)", hl.Name, hl.QueueDepthMax)
		}
	}

	wantTotal := expect[rowA].blame + expect[rowB].blame
	if got := m.HotLockBlameNs(); got != wantTotal {
		t.Fatalf("total blame %d, want %d", got, wantTotal)
	}
	// Decay halves the ranking; the total follows deterministically.
	m.DecayHotLocks()
	if got := m.HotLockBlameNs(); got != expect[rowA].blame/2+expect[rowB].blame/2 {
		t.Fatalf("decayed total %d", got)
	}

	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("invariants with populated sketch: %v", err)
	}
}

// TestDumpWaitersConvoy parks four waiters behind one X holder and checks
// the blocked-on report sees the convoy — holder, every blocked owner, the
// lock — without ever taking the all-shard latch.
func TestDumpWaitersConvoy(t *testing.T) {
	clk := clock.NewSim()
	m := New(Config{InitialPages: 64, Clock: clk})
	row := RowName(4, 8)
	holder := m.NewOwner(m.RegisterApp())
	mustGrant(t, m.AcquireAsync(holder, row, ModeX, 1), "holder X")

	const nWaiters = 4
	waiters := make([]*Owner, nWaiters)
	pending := make([]*Pending, nWaiters)
	for i := range waiters {
		waiters[i] = m.NewOwner(m.RegisterApp())
		pending[i] = m.AcquireAsync(waiters[i], row, ModeS, 1)
		mustWait(t, pending[i], "convoy waiter")
	}
	clk.Advance(2 * time.Millisecond)

	g0 := m.GlobalRuns()
	rep := m.DumpWaiters()
	if got := m.GlobalRuns(); got != g0 {
		t.Fatalf("DumpWaiters took the all-shard latch: GlobalRuns %d → %d", g0, got)
	}

	if rep.Waiters != nWaiters {
		t.Fatalf("waiters = %d, want %d", rep.Waiters, nWaiters)
	}
	// Queue predecessors block too, so earlier waiters head their own
	// smaller convoys; the most crowded — the holder with every waiter
	// behind it — sorts first.
	if len(rep.Convoys) == 0 || rep.Convoys[0].HolderID != holder.id ||
		rep.Convoys[0].Waiters != nWaiters || rep.Convoys[0].Lock != row.String() {
		t.Fatalf("convoys = %+v", rep.Convoys)
	}
	// Every waiter appears blocked behind the holder with the advanced
	// clock's wait duration.
	behindHolder := 0
	for _, e := range rep.Edges {
		if e.HolderID == holder.id {
			behindHolder++
			if e.WaitNs != (2 * time.Millisecond).Nanoseconds() {
				t.Errorf("edge wait %d, want 2ms", e.WaitNs)
			}
			if e.Mode != "S" || e.Lock != row.String() {
				t.Errorf("edge %+v", e)
			}
		}
	}
	if behindHolder != nWaiters {
		t.Fatalf("%d edges behind holder, want %d", behindHolder, nWaiters)
	}
	if rep.LongestChainLen != nWaiters+1 {
		t.Fatalf("chain len %d, want %d (last waiter through the queue to the holder)",
			rep.LongestChainLen, nWaiters+1)
	}

	// The rendered report carries the same picture.
	report := m.ContentionReport(5)
	if !strings.Contains(report, "convoy: 4 waiters") || !strings.Contains(report, row.String()) {
		t.Fatalf("report missing convoy:\n%s", report)
	}

	m.ReleaseAll(holder)
	for i, p := range pending {
		mustGrant(t, p, "waiter after release")
		m.ReleaseAll(waiters[i])
	}
	if rep := m.DumpWaiters(); rep.Waiters != 0 {
		t.Fatalf("waiters after drain = %d", rep.Waiters)
	}
}

// TestFlightRecorder checks the per-shard flight rings capture the
// wait → grant → (sampled) release lifecycle with manager-clock
// timestamps, and that the shard/last query knobs work.
func TestFlightRecorder(t *testing.T) {
	clk := clock.NewSim()
	m := New(Config{InitialPages: 64, Clock: clk})
	row := RowName(3, 3)
	h := m.NewOwner(m.RegisterApp())
	w := m.NewOwner(m.RegisterApp())
	mustGrant(t, m.AcquireAsync(h, row, ModeX, 1), "holder X")
	p := m.AcquireAsync(w, row, ModeS, 1)
	mustWait(t, p, "waiter")
	clk.Advance(time.Millisecond)
	m.ReleaseAll(h)
	mustGrant(t, p, "granted")

	evs := m.FlightEvents(-1, 0)
	var sawWait, sawGrant bool
	for _, e := range evs {
		switch e.Kind {
		case trace.KindWait:
			sawWait = true
			if !strings.Contains(e.Detail, row.String()) || !strings.Contains(e.Detail, "depth=1") {
				t.Errorf("wait detail %q", e.Detail)
			}
		case trace.KindGrant:
			sawGrant = true
			if !strings.Contains(e.Detail, "waited=1ms") {
				t.Errorf("grant detail %q", e.Detail)
			}
		}
	}
	if !sawWait || !sawGrant {
		t.Fatalf("lifecycle missing (wait=%v grant=%v): %v", sawWait, sawGrant, evs)
	}

	// last=1 returns only the newest event of the merged view.
	if got := m.FlightEvents(-1, 1); len(got) != 1 {
		t.Fatalf("last=1 returned %d events", len(got))
	}
	// Selecting the row's home shard keeps the events; every other shard's
	// ring is empty of this lock's lifecycle.
	home := int(uint64(m.shardOf(row)))
	homeEvs := m.FlightEvents(home, 0)
	if len(homeEvs) == 0 {
		t.Fatalf("home shard %d has no events", home)
	}
	total := 0
	for i := 0; i < int(m.shardMask)+1; i++ {
		total += len(m.FlightEvents(i, 0))
	}
	if total != len(evs) {
		t.Fatalf("per-shard sum %d != merged %d", total, len(evs))
	}
}

// TestProfilerDisabled checks ProfileDisabled turns every surface into a
// cheap no-op while the blocked-on export (pure lock-table state) stays up.
func TestProfilerDisabled(t *testing.T) {
	clk := clock.NewSim()
	m := New(Config{InitialPages: 64, Clock: clk, ProfileDisabled: true})
	h := m.NewOwner(m.RegisterApp())
	w := m.NewOwner(m.RegisterApp())
	row := RowName(1, 1)
	mustGrant(t, m.AcquireAsync(h, row, ModeX, 1), "X")
	p := m.AcquireAsync(w, row, ModeS, 1)
	mustWait(t, p, "S")
	clk.Advance(time.Millisecond)

	if got := m.HotLocks(5); got != nil {
		t.Fatalf("HotLocks = %v", got)
	}
	if m.HotLockBlameNs() != 0 || m.FlightEvents(-1, 0) != nil || m.LatchProfile() != nil {
		t.Fatal("disabled profiler leaked state")
	}
	m.DecayHotLocks() // must not panic

	if rep := m.DumpWaiters(); rep.Waiters != 1 {
		t.Fatalf("DumpWaiters with profiler off: %+v", rep)
	}
	if !strings.Contains(m.ContentionReport(3), "no contention recorded") {
		t.Fatal("report should say the sketch is empty")
	}
	m.ReleaseAll(h)
}

// TestProfilerConcurrentReads races every profiler read surface —
// HotLocks, DumpWaiters, FlightEvents, ContentionReport, Decay — against
// live contended traffic. Run under -race (the race gate covers this
// package); correctness here is "no race, no panic, invariants hold".
func TestProfilerConcurrentReads(t *testing.T) {
	m := New(Config{InitialPages: 128, LockTimeout: 5 * time.Second, ObsSampleStride: 8})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Stopped from t.Cleanup as well, so a failure in the body cannot
	// leave the goroutines running into later tests.
	stopAll := sync.OnceFunc(func() { close(stop); wg.Wait() })
	t.Cleanup(stopAll)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			app := m.RegisterApp()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Hot rows shared across goroutines: real waits, enqueues
				// and flight events, one transaction (and recycled owner)
				// per lock.
				o := m.NewOwner(app)
				p := m.AcquireAsync(o, RowName(1, uint64(i%4)), ModeX, 1)
				<-p.Done()
				runtime.Gosched() // hold across a yield: contention even on one P
				m.FinishOwner(o)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = m.HotLocks(5)
			_ = m.DumpWaiters()
			_ = m.FlightEvents(-1, 16)
			_ = m.HotLockBlameNs()
			if i%10 == 0 {
				m.DecayHotLocks()
				_ = m.ContentionReport(3)
			}
		}
	}()
	time.Sleep(200 * time.Millisecond)
	stopAll()
	if m.Stats().Waits == 0 {
		t.Fatal("no request ever waited; the readers observed no contention")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestLatchProfileSampling drives enough acquisitions through the latched
// path to cross the 1-in-64 hold sampling stride and checks samples land
// in the merged histogram.
func TestLatchProfileSampling(t *testing.T) {
	m := New(Config{InitialPages: 64, Shards: 1, ObsSampleStride: 64})
	lp := m.LatchProfile()
	if lp == nil {
		t.Fatal("latch profile nil with sampling on")
	}
	o := m.NewOwner(m.RegisterApp())
	for i := 0; i < 1000; i++ {
		mustGrant(t, m.AcquireAsync(o, RowName(1, uint64(i)), ModeX, 1), "X")
	}
	m.ReleaseAll(o)
	if got := lp.MergedHold().Total; got == 0 {
		t.Fatal("no latch holds sampled after 1000 latched acquisitions")
	}
}
