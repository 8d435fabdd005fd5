package main

import (
	"math"
	"runtime"

	"repro/internal/engine"
	"repro/internal/lockmgr"
	"repro/internal/obs"
)

// controlPlane runs on driver 0 between rounds: db.Tick every tickCommits
// commits and db.TuneOnce every tuneTicks ticks. It also samples the
// gauges the layers expose and closes the timed window.
type controlPlane struct {
	h        *harness
	d        *driver
	nextTick int64

	// Inside the timed window.
	ticks, passes           int64
	tickNs, tuneNs          []float64
	growPages, shrinkPages  int64
	quotaMin                float64
	pagesPeak, usedPeak     int
	overflowMin, ceilingMax int

	end    counters // layer counters when the window closed
	closed bool
}

func newControlPlane(h *harness, d *driver) *controlPlane {
	c := &controlPlane{h: h, d: d, nextTick: tickCommits, quotaMin: math.Inf(1), overflowMin: math.MaxInt}
	c.sample()
	return c
}

func (c *controlPlane) afterRound(now int64, draining, live bool) {
	h := c.h
	inWindow := now < h.endNs
	if inWindow {
		// Both gauges are single atomic loads: cheap enough to sample every
		// round, which catches the start-up burst before the first tick.
		locks := h.db.Locks()
		c.pagesPeak = max(c.pagesPeak, locks.Pages())
		c.usedPeak = max(c.usedPeak, locks.UsedStructs())
	} else if !c.closed {
		c.closed = true
		c.end = readCounters(h.db)
		h.draining.Store(true)
	} else if now > h.endNs+int64(drainLimit) {
		h.abandoned.Store(true)
	}
	commits := h.commits[0].Load() + h.commits[1].Load()
	// Once driver 0's own sessions have drained, keep ticking every round
	// so the other driver's waiters still get the timeout sweep and the
	// throttle's liveness valve.
	if commits < c.nextTick && (live || !draining) {
		return
	}
	c.nextTick = commits + tickCommits
	c.tick(inWindow)
}

// tick runs one control-plane tick and, on the tuning cadence, one STMM
// pass.
func (c *controlPlane) tick(inWindow bool) {
	h, d := c.h, c.d
	t0 := h.now()
	h.db.Tick()
	t1 := h.now()
	if !inWindow {
		return
	}
	c.ticks++
	c.tickNs = append(c.tickNs, float64(t1-t0))
	if d.tr != nil {
		d.tr.fold([]span{{ID: d.newID(), Name: spanTick, Start: t0, End: t1, Parent: -1}})
	}
	if c.ticks%tuneTicks == 0 {
		t0 = h.now()
		rep, _ := h.db.TuneOnce()
		t1 = h.now()
		c.passes++
		c.tuneNs = append(c.tuneNs, float64(t1-t0))
		if d.tr != nil {
			d.tr.fold([]span{{ID: d.newID(), Name: spanTune, Start: t0, End: t1, Parent: -1}})
		}
		if diff := rep.LockPagesAfter - rep.LockPagesBefore; diff > 0 {
			c.growPages += int64(diff)
		} else {
			c.shrinkPages += int64(-diff)
		}
		c.quotaMin = math.Min(c.quotaMin, rep.QuotaPercent)
	}
	c.sample()
}

// sample folds the gauges read on ticks into their peaks and minima.
func (c *controlPlane) sample() {
	locks := c.h.db.Locks()
	c.pagesPeak = max(c.pagesPeak, locks.Pages())
	c.ceilingMax = max(c.ceilingMax, locks.ThrottleCeilingMax())
	c.overflowMin = min(c.overflowMin, c.h.db.Set().Snapshot().Overflow)
}

// counters are the monotone public counters of every driven layer, read
// before and after the timed window.
type counters struct {
	lock                              lockmgr.Stats
	fastHits, fastFallbacks           int64
	optHits, optFails                 int64
	relBatches, wakes, flushWaits     int64
	globalRuns                        int64
	latchAcqs, latchSpins, latchParks int64
	latchHandoffs, latchWaitNs        int64
	culled, reactivated               int64
	waitHist                          obs.Snapshot
	mallocs                           uint64
	pages                             int
	txnCommits, txnAborts             int64
}

func readCounters(db *engine.Database) counters {
	m := db.Locks()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	commits, aborts, _ := db.Txns().Stats()
	return counters{
		lock:          m.Stats(),
		fastHits:      m.FastPathHits(),
		fastFallbacks: m.FastPathFallbacks(),
		optHits:       m.OptimisticHits(),
		optFails:      m.OptimisticFailures(),
		relBatches:    m.ReleaseBatches(),
		wakes:         m.WakeupsCoalesced(),
		flushWaits:    m.FlushFollowerWaits(),
		globalRuns:    m.GlobalRuns(),
		latchAcqs:     m.LatchAcquisitions(),
		latchSpins:    m.LatchSpinHits(),
		latchParks:    m.LatchParks(),
		latchHandoffs: m.LatchHandoffs(),
		latchWaitNs:   m.LatchWaitNsTotal(),
		culled:        m.ThrottleCulled(),
		reactivated:   m.ThrottleReactivated(),
		waitHist:      m.WaitHist().Snapshot(),
		mallocs:       ms.Mallocs,
		pages:         m.Pages(),
		txnCommits:    commits,
		txnAborts:     aborts,
	}
}

// histDelta returns the samples recorded between two snapshots of one
// histogram.
func histDelta(before, after obs.Snapshot) obs.Snapshot {
	out := after
	for i := range out.Counts {
		out.Counts[i] -= before.Counts[i]
	}
	out.Total -= before.Total
	return out
}
