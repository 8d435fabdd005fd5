package lockmgr

// latchtune.go wires the shard latches' adaptive spin-budget controllers
// (internal/latch) into the manager's observability surface: the STMM
// decision-log sink that makes every budget change replayable from
// /debug/tuner, and the per-shard spin/park/handoff counters the metrics
// layer exposes as lockmem_latch_{spins,parks,handoffs}_total.
//
// The controller itself lives in the latch: every TuneStride contended
// acquires a latch re-derives its spin budget from the hold-time EWMA
// (fed by unlockShard's sampled hold stamps — the same samples the latch
// profile records) and its spin success rate, collapsing to zero on a
// single P, past the park threshold, or when spinners outnumber P's
// (Nikolaev's retrial rule). This file only observes it.

import (
	"fmt"

	"repro/internal/latch"
	"repro/internal/obs"
)

// SetLatchDecisionLog routes every adaptive spin-budget change the shard
// latches make into dl, as KindLatchTune decisions stamped on the
// manager's clock. The OnTune hook runs on the acquiring goroutine while
// it holds the retuned shard's latch, so the sink must stay a leaf —
// DecisionLog.Add takes only the log's own mutex, the same discipline the
// sync-growth records rely on. Must be called before the manager serves
// concurrent traffic (the engine wires it during Open).
func (m *Manager) SetLatchDecisionLog(dl *obs.DecisionLog) {
	if dl == nil {
		return
	}
	for i := range m.shards {
		s := &m.shards[i]
		si := i
		s.mu.OnTune(func(old, next int, holdNs int64, tries, wins int) {
			action := "latch-spin-up"
			if next < old {
				action = "latch-spin-down"
			}
			dl.Add(obs.Decision{
				Time:             m.clk.Now(),
				Kind:             obs.KindLatchTune,
				Shard:            si,
				SpinBudgetBefore: old,
				SpinBudgetAfter:  next,
				HoldEwmaNs:       holdNs,
				SpinTries:        tries,
				SpinWins:         wins,
				Action:           action,
				Reason: fmt.Sprintf("hold ewma %dns, spin wins %d/%d",
					holdNs, wins, tries),
			})
		})
	}
}

// latchTotals sums f over every shard latch.
func (m *Manager) latchTotals(f func(*latch.Latch) uint64) int64 {
	var n int64
	for i := range m.shards {
		n += int64(f(&m.shards[i].mu))
	}
	return n
}

// latchValues collects f per shard, in shard order — the CounterVec shape
// the metrics exposition wants.
func (m *Manager) latchValues(f func(*latch.Latch) uint64) []int64 {
	out := make([]int64, len(m.shards))
	for i := range m.shards {
		out[i] = int64(f(&m.shards[i].mu))
	}
	return out
}

// LatchSpinHits returns how many contended shard-latch acquires were won
// in the spin phase (no park). Lock-free.
func (m *Manager) LatchSpinHits() int64 {
	return m.latchTotals((*latch.Latch).SpinHits)
}

// LatchParks returns how many contended shard-latch acquires parked on
// the latch's condition. Lock-free.
func (m *Manager) LatchParks() int64 {
	return m.latchTotals((*latch.Latch).Parks)
}

// LatchHandoffs returns how many shard-latch unlocks signalled a parked
// waiter. Lock-free.
func (m *Manager) LatchHandoffs() int64 {
	return m.latchTotals((*latch.Latch).Handoffs)
}

// LatchWaitNsTotal returns the exact wall-clock nanoseconds contended
// shard-latch acquires have spent in the slow path, summed across shards.
// Divided by LatchSpinHits()+LatchParks() it is the exact mean contended
// wait — unlike the latch profile's histogram mean, which quantizes to
// power-of-two buckets. Lock-free.
func (m *Manager) LatchWaitNsTotal() int64 {
	var n int64
	for i := range m.shards {
		n += m.shards[i].mu.WaitNs()
	}
	return n
}

// LatchSpinHitValues returns the per-shard spin-hit counts.
func (m *Manager) LatchSpinHitValues() []int64 {
	return m.latchValues((*latch.Latch).SpinHits)
}

// LatchParkValues returns the per-shard park counts.
func (m *Manager) LatchParkValues() []int64 {
	return m.latchValues((*latch.Latch).Parks)
}

// LatchHandoffValues returns the per-shard handoff counts.
func (m *Manager) LatchHandoffValues() []int64 {
	return m.latchValues((*latch.Latch).Handoffs)
}
