package lockmgr

// Release walk: how a commit hands its locks back.
//
// A quiesced commit detaches its whole held set from the owner's indexes
// in one o.mu section (collectDetach) and then visits each shard it holds
// locks in, in ascending index order. Every visit latches the shard,
// applies the owner's entries for it in one unlink pass, settles pool,
// chain and quota once, runs one FIFO posting pass (releaseShard), and
// drops the latch. An aborting owner (waits in flight) visits every
// touched shard the same way, withdrawing its waiting requests first and
// re-reading its held set under each latch. Either way, when a visit drops
// its latch the owner's structures in that shard are back in the shard's
// pool and uncharged from its application: the free-memory and quota
// signals STMM and the quota curve read never count a finished
// transaction.
//
// Grant wakeups coalesce across the whole walk: post() defers each grant's
// Pending wakeup (a channel close — a runtime wakeup) and onGrant
// continuation into the drain's wake list, and the walk fires the list
// once after the last latch has been dropped. The grant itself — install,
// accounting, inWait, and the Pending's terminal status — is applied under
// the latch, so wake-side work never re-acquires a latch the walk already
// dropped, and a latched section does no channel operations at all.

import "repro/internal/metrics"

// wakeEntry is one deferred FIFO grant wakeup: the Pending whose Done
// channel to close and/or the onGrant continuation to enqueue. The grant
// itself (install, accounting, inWait, terminal status) was applied under
// the latch; only the notification is deferred.
type wakeEntry struct {
	p  *Pending
	og func(*Manager)
}

// releaseDrain is a release walk's scratch: the per-visit posting list
// (reset by releaseShard) and the walk-wide wake list (fired by fireWakes
// once every latch is dropped). Owner-embedded; the steady-state commit
// walk allocates nothing.
type releaseDrain struct {
	hdrs  []*lockHeader // headers awaiting the visit's posting pass
	wakes []wakeEntry   // deferred grant wakeups, FIFO per header
}

// fireWakes delivers the walk's deferred grant wakeups — Done closes and
// onGrant continuations — in the order post() granted them. Caller holds
// no latches.
func (m *Manager) fireWakes(d *releaseDrain) {
	for i := range d.wakes {
		e := &d.wakes[i]
		if e.p != nil {
			e.p.wake()
		}
		if e.og != nil {
			m.enqueueCont(e.og)
		}
		d.wakes[i] = wakeEntry{}
	}
	d.wakes = d.wakes[:0]
}

// ReleaseBatches returns the total number of release batches applied
// across all shards (one per owner-visit). Lock-free.
func (m *Manager) ReleaseBatches() int64 { return m.relBatches.Total() }

// ReleaseBatchCounters exposes the per-shard release-batch counters for
// metrics wiring.
func (m *Manager) ReleaseBatchCounters() *metrics.ShardCounters { return m.relBatches }

// WakeupsCoalesced returns how many FIFO grant wakeups were deferred out
// of a latched release section and fired in a post-walk pass. Lock-free.
func (m *Manager) WakeupsCoalesced() int64 { return m.wakesCoalesced.Total() }

// WakeupsCoalescedCounters exposes the per-shard coalesced-wakeup counters
// for metrics wiring.
func (m *Manager) WakeupsCoalescedCounters() *metrics.ShardCounters { return m.wakesCoalesced }

// FlushFollowerWaits always returns 0. It counted commit visits that
// staged their release for another goroutine to apply; every commit now
// applies its own release under the shard latch, so none do. Kept for
// callers that still report the figure.
func (m *Manager) FlushFollowerWaits() int64 { return 0 }
