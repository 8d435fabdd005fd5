package lockmgr

// Lock escalation (paper sections 1 and 2.2): when lock memory is
// constrained, or an application exceeds lockPercentPerApplication, the
// manager promotes the application's row locks on one table to a single
// table lock, dramatically reducing memory at the cost of concurrency.
//
// Escalation here converts the owner's existing table intent lock (IS/IX)
// to the supremum of its row-lock modes — S for pure readers, SIX or X when
// updates are involved. The conversion may have to wait for incompatible
// holders; the triggering request is "parked" and retried once the
// escalation completes (its row locks having been freed, or the new table
// lock covering it outright).
//
// escalate itself still runs in global mode: it is reached only from the
// admission pipeline of last resort (admitStructsGlobal), whose quota and
// memory decisions need a consistent view of every pool and the chain. The
// continuations it schedules — free the escalated rows, retry the parked
// request, abandon it on failure — do NOT: they are drained with no latches
// held and latch the shards they touch themselves, re-validating each
// target under its latch. A row released, a transaction committed, or a
// parked request timed out between enqueue and drain is simply observed and
// skipped; stale snapshot entries cost a latch acquisition, never
// correctness.

// escalate promotes o's row locks on its most structure-hungry table.
// parked, if non-nil, is the request that triggered escalation; it is
// retried after the escalation completes. Returns false when there is
// nothing to escalate (the caller then denies the triggering request).
// Caller holds all shard latches (global mode).
func (m *Manager) escalate(o *Owner, parked *request) bool {
	// Victim selection: the owner's table with the most row lock
	// structures, mirroring "promoting one or more row level locks to...
	// a table level lock" where it pays the most.
	var victim uint32
	var victimOT *ownerTable
	o.eachTable(func(tid uint32, ot *ownerTable) bool {
		if ot.tableReq == nil || !ot.tableReq.granted || ot.rowCount() == 0 {
			return true
		}
		if ot.tableReq.converting {
			return true // an escalation is already in flight on this table
		}
		if victimOT == nil || ot.rowStructs > victimOT.rowStructs {
			victim, victimOT = tid, ot
		}
		return true
	})
	if victimOT == nil {
		return false
	}

	// Target mode: the weakest table mode covering every row lock held
	// (plus the triggering request if it is a row of the victim table).
	target := victimOT.tableReq.mode
	victimOT.eachRow(func(_ uint64, r *request) {
		target = Supremum(target, r.mode)
	})
	if parked != nil && parked.name.Gran == GranRow && parked.name.Table == victim {
		target = Supremum(target, parked.mode)
	}

	m.stats.escalations.Add(1)
	if target == ModeX {
		m.stats.exclusiveEscalations.Add(1)
	}
	if m.cfg.Events != nil {
		m.cfg.Events.OnEscalation(o.app.id, victim, target)
	}
	if m.flight != nil {
		tn := victimOT.tableReq.name
		m.flightAdd(m.shardOf(tn), flightRec{form: flightEscalation, app: o.app.id,
			name: tn, mode: target, owner: o.id})
	}

	if parked != nil {
		parked.parked = true
		parked.deadline = m.deadline()
		// The park is a wait from the requester's point of view: stamp it
		// so the wait histogram includes escalation stalls (the counter in
		// stats.waits is deliberately not bumped — parked requests are
		// retried, not queued behind a lock). Parked requests join the
		// waiting set, so they are escaped (never box-recycled) and
		// count in the owner's inWait gauge — once, even across re-parks.
		parked.escaped = true
		parked.owner.everWaited = true
		if parked.waitStart.IsZero() {
			parked.owner.inWait.Add(1)
		}
		parked.waitStart = m.clk.Now()
		m.shardFor(parked.name).addWaiting(parked)
	}

	continueAfter := func(m *Manager) {
		m.freeEscalatedRows(o, victim)
		m.retryParked(parked)
	}
	abandon := func(m *Manager, err error) {
		m.abandonParked(parked, err)
	}

	if Supremum(victimOT.tableReq.mode, target) == victimOT.tableReq.mode {
		// The table lock is already strong enough (e.g. a prior
		// escalation); just shed the redundant row locks. The continuation
		// self-latches, so it cannot run here under every latch — it is
		// queued and drained as soon as the global section ends.
		m.enqueueCont(continueAfter)
		return true
	}

	m.startConversion(victimOT.tableReq, target, newPending(), continueAfter, abandon)
	return true
}

// freeEscalatedRows releases every row lock o holds on the table; the
// escalated table lock now covers them. It runs as a continuation with no
// latches held: the row set is snapshotted under o.mu, grouped by home
// shard, and every row is re-validated under its shard's latch (plus o.mu
// for the map read) before release — rows the owner released or converted
// in the meantime are skipped.
func (m *Manager) freeEscalatedRows(o *Owner, table uint32) {
	// Snapshot (row, request) pairs under o.mu. The row keys are copied
	// out of the index: shard routing and revalidation below must not
	// dereference a request pointer the owner's commit may have released
	// concurrently — a released box can be recycled and rewritten by an
	// unrelated acquire.
	type rowSnap struct {
		row uint64
		r   *request
	}
	o.mu.Lock()
	ot := o.tableFor(table)
	var rows []rowSnap
	if ot != nil {
		rows = make([]rowSnap, 0, ot.rowCount())
		ot.eachRow(func(row uint64, r *request) {
			rows = append(rows, rowSnap{row, r})
		})
	}
	o.mu.Unlock()
	if len(rows) == 0 {
		return
	}

	// Group by home shard so each shard is latched once.
	byShard := make(map[int][]rowSnap)
	for _, e := range rows {
		i := m.shardOf(RowName(table, e.row))
		byShard[i] = append(byShard[i], e)
	}
	for i, batch := range byShard {
		s := m.lockShard(i)
		// Re-validate under the latch: a row request's granted/converting
		// state and its ot.rows membership only change under its home
		// shard latch (held) plus o.mu (taken for the map read), so the
		// filtered batch is accurate for as long as we hold the latch.
		// Pointer identity decides first; only a match proves e.r is
		// still this owner's live request, making its fields safe to read.
		live := batch[:0]
		o.mu.Lock()
		for _, e := range batch {
			if cur, ok := ot.getRow(e.row); ok && cur == e.r && e.r.granted {
				live = append(live, e)
			}
		}
		o.mu.Unlock()
		for _, e := range live {
			if e.r.converting {
				// A row conversion in flight is subsumed by the table lock.
				m.deny(e.r, ErrCanceled)
			}
			m.releaseGranted(e.r)
		}
		m.unlockShard(s)
	}
}

// retryParked re-runs the admission pipeline for a request that was parked
// behind an escalation, unless it was denied (timed out) in the meantime.
// It runs as a continuation with no latches held: it latches the parked
// request's home shard, re-checks that the request is still pending, and
// first attempts fast-path admission — the escalation just freed structures,
// so the common case grants locally. Only if the fast path backs out does
// it fall back to the global pipeline.
func (m *Manager) retryParked(parked *request) {
	if parked == nil {
		return
	}
	si := m.shardOf(parked.name)
	s := m.lockShard(si)
	s.delWaiting(parked)
	if parked.pending == nil {
		m.unlockShard(s)
		return // already denied (timed out) while parked
	}
	if st, _ := parked.pending.Status(); st != StatusWaiting {
		m.unlockShard(s)
		return
	}
	ok := m.startRequest(s, si, parked, false)
	m.unlockShard(s)
	if !ok {
		// runGlobal survivor: same admission-of-last-resort rationale as
		// AcquireAsync — the retry may itself need quota growth or a
		// further escalation, which require every latch.
		m.runGlobal(func() {
			if !m.startRequest(s, si, parked, true) {
				panic("lockmgr: global retry deferred admission")
			}
		})
	}
}

// abandonParked denies a parked request after its escalation failed. It
// runs as a continuation with no latches held; the deny happens under the
// parked request's home shard latch, and a request that was already
// completed (e.g. it timed out before the escalation did) is left alone.
func (m *Manager) abandonParked(parked *request, err error) {
	if parked == nil {
		return
	}
	s := m.lockShard(m.shardOf(parked.name))
	// parked.pending is nil when the parked request was already completed.
	if parked.pending != nil {
		if st, _ := parked.pending.Status(); st == StatusWaiting {
			m.deny(parked, err)
		}
	}
	m.unlockShard(s)
}
