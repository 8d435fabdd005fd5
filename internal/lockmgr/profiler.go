// profiler.go is the lock manager's contention profiler: the hot-lock
// blame sketch, the blocked-on blame export behind /debug/waiters, the
// per-shard flight recorder, and the latch hold/wait profile. Everything
// here rides existing hot-path state — the sketch records with one or two
// uncontended atomic adds, the blame export reuses the deadlock detector's
// per-shard edge walk (one shard latch at a time, GlobalRuns unchanged),
// and latch hold times are sampled on a per-shard counter that advances
// under the latch it measures, so the profiler adds no shared cache line
// to any fast path.
package lockmgr

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

const (
	// hotSlotsPerStripe sizes each shard's space-saving slot array. Eight
	// slots per shard tracks 8×shards keys exactly and keeps the scan in
	// one cache line pair.
	hotSlotsPerStripe = 8
	// hotEventBlameNs is the fixed blame (1 µs) charged per contention
	// event that has no duration of its own: an enqueue or an
	// optimistic-validation failure. It ranks "lots of cheap friction"
	// against "few long waits" on one nanosecond scale. Fast-path
	// fallbacks carry no blame — every latched acquisition is a fallback,
	// so their counter rides along on already-tracked keys only.
	hotEventBlameNs = 1000
	// flightRingCap is each shard's flight-recorder capacity. 256 events
	// of recent grant/wait/release history per shard is an incident
	// window, not an archive.
	flightRingCap = 256
	// latchSampleStride samples one in 64 latch holds (power of two; the
	// mask is stride−1).
	latchSampleStride = 64
)

// initProfiler wires the contention profiler into a freshly built manager.
// The sketch and flight recorder run on the manager's clock (deterministic
// under the simulated clock) and stay on unless ProfileDisabled; the latch
// profile is wall-clock and additionally obeys the ObsSampleStride switch
// (negative = wall-clock sampling off), like the hold/admission
// histograms.
func (m *Manager) initProfiler(cfg Config, ns int, wallStride int) {
	if cfg.ProfileDisabled {
		return
	}
	m.hot = obs.NewHotSketch[Name](ns, hotSlotsPerStripe)
	m.flight = make([]flightRing, ns)
	if wallStride > 0 {
		m.latchProf = obs.NewLatchProf(ns)
		m.latchSampleMask = latchSampleStride - 1
	}
}

// hotObserve charges blame to a lock name on its home stripe. Nil-safe and
// lock-free; see obs.HotSketch.
func (m *Manager) hotObserve(si int, name Name, scoreDelta int64, metric int, delta int64) {
	m.hot.Observe(si, name, scoreDelta, metric, delta)
}

// flightForm is the shape of one flight-recorder event: it fixes the
// event's kind and the layout of its Detail string.
type flightForm uint8

const (
	flightWait        flightForm = iota // queued behind the holders
	flightConvertWait                   // a conversion queued behind the holders
	flightCulledWait                    // diverted into the culled set
	flightGrant                         // granted after a wait
	flightRelease                       // sampled latched release
	flightFastRelease                   // sampled grant-word release
	flightEscalation                    // table escalation
)

// flightRec is one flight-recorder event in structured form. The hot paths
// (under the shard latch) store these fields; FlightEvents formats them,
// so recording costs no string building.
type flightRec struct {
	at    time.Time
	name  Name
	owner uint64
	n     int64 // queue depth, or a duration in ns (waited, held)
	app   int
	form  flightForm
	mode  Mode // requested/held mode, conversion or escalation target
}

// event renders the record as the trace.Event /debug/flight serves.
func (r *flightRec) event() trace.Event {
	e := trace.Event{Time: r.at, AppID: r.app}
	switch r.form {
	case flightWait:
		e.Kind, e.Detail = trace.KindWait, fmt.Sprintf("%s mode=%s owner=%d depth=%d", r.name, r.mode, r.owner, r.n)
	case flightConvertWait:
		e.Kind, e.Detail = trace.KindWait, fmt.Sprintf("%s convert=%s owner=%d depth=%d", r.name, r.mode, r.owner, r.n)
	case flightCulledWait:
		e.Kind, e.Detail = trace.KindWait, fmt.Sprintf("%s mode=%s owner=%d culled depth=%d", r.name, r.mode, r.owner, r.n)
	case flightGrant:
		e.Kind, e.Detail = trace.KindGrant, fmt.Sprintf("%s mode=%s owner=%d waited=%s", r.name, r.mode, r.owner, time.Duration(r.n))
	case flightRelease:
		e.Kind, e.Detail = trace.KindRelease, fmt.Sprintf("%s mode=%s owner=%d held=%s", r.name, r.mode, r.owner, time.Duration(r.n))
	case flightFastRelease:
		e.Kind, e.Detail = trace.KindRelease, fmt.Sprintf("%s mode=%s owner=%d held=%s (fast)", r.name, r.mode, r.owner, time.Duration(r.n))
	case flightEscalation:
		e.Kind, e.Detail = trace.KindEscalation, fmt.Sprintf("%s to=%s owner=%d", r.name, r.mode, r.owner)
	}
	return e
}

// flightRing is one shard's flight recorder: a fixed ring of the most
// recent flightRingCap records, oldest overwritten first.
type flightRing struct {
	mu    sync.Mutex
	buf   [flightRingCap]flightRec
	next  int
	count int
}

func (r *flightRing) add(rec flightRec) {
	r.mu.Lock()
	r.buf[r.next] = rec
	r.next = (r.next + 1) % flightRingCap
	if r.count < flightRingCap {
		r.count++
	}
	r.mu.Unlock()
}

// events returns the retained records as events, oldest first. The
// records are copied under the mutex and formatted after it is dropped.
func (r *flightRing) events() []trace.Event {
	r.mu.Lock()
	recs := make([]flightRec, 0, r.count)
	start := (r.next - r.count + flightRingCap) % flightRingCap
	for i := 0; i < r.count; i++ {
		recs = append(recs, r.buf[(start+i)%flightRingCap])
	}
	r.mu.Unlock()
	evs := make([]trace.Event, len(recs))
	for i := range recs {
		evs[i] = recs[i].event()
	}
	return evs
}

// flightAdd appends one record to shard si's flight ring, stamped on the
// manager's clock. Callers guard with m.flight != nil, so disabled
// profilers pay nothing.
func (m *Manager) flightAdd(si int, rec flightRec) {
	if m.flight == nil {
		return
	}
	rec.at = m.clk.Now()
	m.flight[si].add(rec)
}

// FlightEvents returns flight-recorder events, oldest first. shard ≥ 0
// selects one shard's ring; negative merges every shard's retained window
// into one time-ordered stream. last > 0 keeps only the most recent that
// many events. Returns nil when the profiler is disabled.
func (m *Manager) FlightEvents(shard, last int) []trace.Event {
	if m.flight == nil {
		return nil
	}
	var evs []trace.Event
	if shard >= 0 {
		evs = m.flight[uint64(shard)&m.shardMask].events()
	} else {
		for i := range m.flight {
			evs = append(evs, m.flight[i].events()...)
		}
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].Time.Before(evs[j].Time) })
	}
	if last > 0 && len(evs) > last {
		evs = evs[len(evs)-last:]
	}
	return evs
}

// HotLock is one entry of the hot-lock ranking, shaped for
// /debug/hotlocks.
type HotLock struct {
	// Name is the lock name; Shard its home shard (the sketch stripe).
	Name  string `json:"name"`
	Shard int    `json:"shard"`
	// BlameNs is the decayed blame score ranking this lock; ErrNs its
	// worst-case overestimate (true blame is within [BlameNs−ErrNs,
	// BlameNs]).
	BlameNs int64 `json:"blame_ns"`
	ErrNs   int64 `json:"err_ns"`
	// WaitNs is cumulative attributed wait time; QueueDepthMax the
	// queue-depth high-water mark; Fallbacks and OptFailures the
	// fast-path fallback and optimistic-validation-failure counts.
	WaitNs        int64 `json:"wait_ns"`
	QueueDepthMax int64 `json:"queue_depth_max"`
	Fallbacks     int64 `json:"fallbacks"`
	OptFailures   int64 `json:"optimistic_failures"`
}

// HotLocks returns the current top-n hot locks, highest blame first.
// Lock-free; nil when the profiler is disabled.
func (m *Manager) HotLocks(n int) []HotLock {
	if m.hot == nil {
		return nil
	}
	var out []HotLock
	for _, e := range m.hot.TopK(n) {
		out = append(out, HotLock{
			Name:          e.Key.String(),
			Shard:         e.Stripe,
			BlameNs:       e.Score,
			ErrNs:         e.Err,
			WaitNs:        e.Vals[obs.HotWaitNs],
			QueueDepthMax: e.Vals[obs.HotQueueMax],
			Fallbacks:     e.Vals[obs.HotFallbacks],
			OptFailures:   e.Vals[obs.HotOptFailures],
		})
	}
	return out
}

// DecayHotLocks halves every sketch entry's blame — the epoch step that
// ages past storms out of the ranking. The engine calls it every 64 ticks;
// tests may call it directly. Lock-free, nil-safe.
func (m *Manager) DecayHotLocks() { m.hot.Decay() }

// HotLockBlameNs sums the current (decayed) blame across every tracked
// lock — a deterministic aggregate under the simulated clock, recorded by
// the sim as a byte-compared series. Lock-free; 0 when disabled.
func (m *Manager) HotLockBlameNs() int64 {
	if m.hot == nil {
		return 0
	}
	return m.hot.TotalScore()
}

// LatchProfile returns the per-shard latch hold/wait profile (nil when
// wall-clock sampling or the profiler is disabled).
func (m *Manager) LatchProfile() *obs.LatchProf { return m.latchProf }

// DumpWaiters exports the live wait-for edges as a blocked-on blame
// report: who is blocked on which lock, held by whom, for how long —
// convoys and the longest blocked-on chain included. It is the deadlock
// detector's phase-1 walk pointed at a different consumer: one shard latch
// at a time, idle shards skipped by their nWaiting mirror, GlobalRuns
// unchanged. Like any per-shard snapshot the edge set is fuzzy across
// shards; it is diagnostics, not a correctness surface.
func (m *Manager) DumpWaiters() obs.BlameReport {
	now := m.clk.Now()
	var edges []obs.BlameEdge
	var to []*Owner
	for i := range m.shards {
		if m.shards[i].nWaiting.Load() == 0 {
			continue
		}
		s := m.lockShard(i)
		for req := range s.waiting {
			if req.parked || req.culled {
				continue // parked/culled requests hold no queue position
			}
			to = m.waitEdges(req, to[:0])
			for _, h := range to {
				edges = append(edges, obs.BlameEdge{
					WaiterID:  req.owner.id,
					WaiterApp: req.owner.app.id,
					HolderID:  h.id,
					HolderApp: h.app.id,
					Lock:      req.name.String(),
					Mode:      req.effectiveMode().String(),
					WaitNs:    now.Sub(req.waitStart).Nanoseconds(),
				})
			}
		}
		m.unlockShard(s)
	}
	return obs.BuildBlame(edges)
}

// ContentionReport renders the profiler's end-of-run summary: the top-K
// hot locks, the current blocked-on picture, and the per-shard latch
// profile. Both CLIs print it under -profile.
func (m *Manager) ContentionReport(topK int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "contention profile (top %d hot locks)\n", topK)
	hot := m.HotLocks(topK)
	if len(hot) == 0 {
		b.WriteString("  no contention recorded\n")
	}
	for i, hl := range hot {
		fmt.Fprintf(&b, "  %2d. %-24s blame=%-12s wait=%-12s qmax=%-3d fallbacks=%-6d optfail=%-6d (shard %d, err ≤ %s)\n",
			i+1, hl.Name, time.Duration(hl.BlameNs), time.Duration(hl.WaitNs),
			hl.QueueDepthMax, hl.Fallbacks, hl.OptFailures, hl.Shard, time.Duration(hl.ErrNs))
	}
	rep := m.DumpWaiters()
	fmt.Fprintf(&b, "blocked-on blame: %d waiting owner(s), %d convoy(s), longest chain %d\n",
		rep.Waiters, len(rep.Convoys), rep.LongestChainLen)
	for _, c := range rep.Convoys {
		fmt.Fprintf(&b, "  convoy: %d waiters behind owner %d on %s\n", c.Waiters, c.HolderID, c.Lock)
	}
	for _, row := range rep.Rows {
		fmt.Fprintf(&b, "  %s\n", row)
	}
	if lp := m.latchProf; lp != nil {
		hold, wait := lp.MergedHold(), lp.MergedWait()
		fmt.Fprintf(&b, "latch profile: %d sampled holds (p50 %s, p99 %s), %d contended acquires (p50 %s, p99 %s)\n",
			hold.Total, time.Duration(int64(hold.Quantile(0.5))), time.Duration(int64(hold.Quantile(0.99))),
			wait.Total, time.Duration(int64(wait.Quantile(0.5))), time.Duration(int64(wait.Quantile(0.99))))
		worst, worstN := -1, uint64(0)
		for i := 0; i < lp.Shards(); i++ {
			if n := lp.Wait(i).Total; n > worstN {
				worst, worstN = i, n
			}
		}
		if worst >= 0 {
			w := lp.Wait(worst)
			fmt.Fprintf(&b, "  most contended shard: %d (%d contended acquires, p99 wait %s)\n",
				worst, w.Total, time.Duration(int64(w.Quantile(0.99))))
		}
	}
	return b.String()
}
