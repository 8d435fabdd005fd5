package lockmgr

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// Tests of the Pending contract: a request granted before AcquireAsync
// returns hands out the shared grantedSingleton, a request's own Pending
// escapes only when it waits or is denied, and the box behind a request
// whose Pending never escaped is recycled.

// TestSyncGrantsShareGrantedPending walks every way a request can be
// granted during admission — latched, grant-word CAS, covered by a table
// lock, already held strongly enough, converted in place — and checks
// each returns the shared Pending, while a wait and a denial return the
// request's own.
func TestSyncGrantsShareGrantedPending(t *testing.T) {
	m := newMgr(Config{})
	app := m.RegisterApp()
	o, other := m.NewOwner(app), m.NewOwner(app)

	shared := func(p *Pending, what string) {
		t.Helper()
		mustGrant(t, p, what)
		if p != grantedSingleton {
			t.Fatalf("%s: granted at once but handed out its own Pending", what)
		}
	}
	shared(m.AcquireAsync(o, RowName(1, 1), ModeX, 1), "latched X")
	shared(m.AcquireAsync(o, TableName(1), ModeIX, 1), "table IX (publishes)")
	shared(m.AcquireAsync(other, TableName(1), ModeIX, 1), "grant-word IX")
	shared(m.AcquireAsync(o, RowName(1, 1), ModeS, 1), "already held X")
	shared(m.AcquireAsync(o, RowName(1, 2), ModeS, 1), "latched S")
	shared(m.AcquireAsync(o, RowName(1, 2), ModeX, 1), "S→X converted in place")
	shared(m.AcquireAsync(o, TableName(2), ModeS, 1), "table S")
	shared(m.AcquireAsync(o, RowName(2, 9), ModeS, 1), "row covered by table S")

	pw := m.AcquireAsync(other, RowName(1, 1), ModeS, 1)
	mustWait(t, pw, "S behind X")
	if pw == grantedSingleton {
		t.Fatal("waiting request handed out the shared Pending")
	}
	pd := m.AcquireAsync(o, RowName(3, 1), ModeX, 0)
	if st, _ := pd.Status(); st != StatusDenied || pd == grantedSingleton {
		t.Fatalf("invalid weight: status %v, shared %v", st, pd == grantedSingleton)
	}

	m.FinishOwner(o)
	mustGrant(t, pw, "S after X released")
	m.FinishOwner(other)
	if st, err := pw.Status(); st != StatusGranted || err != nil {
		t.Fatalf("own Pending after FinishOwner: %v %v", st, err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestUninstalledGrantRecyclesBoxAtOnce: a covered row request installs
// nothing, so its box goes straight back to the shard cache and a steady
// stream of them allocates nothing.
func TestUninstalledGrantRecyclesBoxAtOnce(t *testing.T) {
	m := newMgr(Config{})
	o := m.NewOwner(m.RegisterApp())
	mustGrant(t, m.AcquireAsync(o, TableName(4), ModeX, 1), "table X")
	row := RowName(4, 1)
	s := &m.shards[m.ShardOf(row)]
	before := len(s.rfree)
	mustGrant(t, m.AcquireAsync(o, row, ModeX, 1), "covered row")
	if got := len(s.rfree); got != before+1 {
		t.Fatalf("box cache %d → %d, want the covered request's box back at once", before, got)
	}
	if a := testing.AllocsPerRun(100, func() { m.AcquireAsync(o, row, ModeX, 1) }); a != 0 {
		t.Fatalf("covered grant allocates %v objects", a)
	}
	m.ReleaseAll(o)
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckInvariantsCatchesDirtyCachedBox: the invariant checker rejects a
// cached box that was not zeroed, and one cached twice.
func TestCheckInvariantsCatchesDirtyCachedBox(t *testing.T) {
	m := newMgr(Config{})
	s := &m.shards[0]
	dirty := &requestAndPending{}
	dirty.req.mode = ModeS
	s.rfree = append(s.rfree, dirty)
	s.rfreeN.Store(int32(len(s.rfree)))
	if err := m.CheckInvariants(); err == nil {
		t.Fatal("dirty cached box not reported")
	}
	dirty.req = request{}
	s.rfree = append(s.rfree, dirty)
	s.rfreeN.Store(int32(len(s.rfree)))
	if err := m.CheckInvariants(); err == nil {
		t.Fatal("box cached twice not reported")
	}
}

// TestWaitingPendingSurvivesBoxRecycling (run under -race): workers commit
// transactions whose private rows never wait — so their boxes recycle at
// every commit — around one hot row they queue on. Every Pending a worker
// waited on is kept past its own commit and must keep reading granted
// while the boxes around it are recycled and reused; a concurrent
// invariant checker asserts no live request ever uses a cached box.
func TestWaitingPendingSurvivesBoxRecycling(t *testing.T) {
	m := newMgr(Config{InitialPages: 32 * 16})
	app := m.RegisterApp()
	hot := RowName(1, 0)
	const (
		workers = 6
		txns    = 200
	)

	var checkWG sync.WaitGroup
	stop := make(chan struct{})
	stopChecker := sync.OnceFunc(func() { close(stop); checkWG.Wait() })
	t.Cleanup(stopChecker)
	checkWG.Add(1)
	go func() {
		defer checkWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := m.CheckInvariants(); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(100 * time.Microsecond) // pace the stopped-world sweeps
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var kept []*Pending
			for n := 0; n < txns; n++ {
				o := m.NewOwner(app)
				for r := 0; r < 4; r++ {
					mode := ModeX
					if r%2 == 1 {
						mode = ModeS
					}
					p := m.AcquireAsync(o, RowName(2, uint64(w)<<20|uint64(n*4+r)), mode, 1)
					if p != grantedSingleton {
						t.Errorf("worker %d: uncontended row handed out its own Pending", w)
						return
					}
				}
				p := m.AcquireAsync(o, hot, ModeX, 1)
				if p != grantedSingleton {
					<-p.Done()
					kept = append(kept, p)
				}
				if st, err := p.Status(); st != StatusGranted {
					t.Errorf("worker %d: hot row %v %v", w, st, err)
					return
				}
				runtime.Gosched() // let the others queue behind the hot row, even on one P
				m.FinishOwner(o)
				for _, kp := range kept {
					if st, err := kp.Status(); st != StatusGranted || err != nil {
						t.Errorf("worker %d: kept Pending reads %v %v", w, st, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	stopChecker()
	if m.Stats().Waits == 0 {
		t.Fatal("no request ever waited on the hot row")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
