package lockmgr

import (
	"cmp"
	"slices"
)

// Deadlock detection: a periodic waits-for-graph sweep, complementing lock
// wait timeouts. Escalations to exclusive table locks readily produce
// convert deadlocks (two holders of IX both upgrading to X), which is part
// of why Figure 8's throughput collapses; the detector keeps the simulated
// system live enough to measure rather than wedging entirely.
//
// # Concurrent (epoch-snapshot) detection
//
// The sweep used to be stop-the-world: runGlobal latched every shard so the
// graph was one consistent cut, periodically freezing the fast path the
// sharding had just unblocked. It now runs in three phases and never takes
// the all-shard latch:
//
//  1. Export. Each shard's wait-for edges (waiting request → blocking
//     owners) are read under that shard's latch alone. waitEdges only
//     touches the request's header — granted group, converter queue,
//     earlier waiters — and a lock's entire queue lives in its home shard,
//     so a single latch suffices. The result is a fuzzy snapshot: shards
//     are sampled at different instants.
//  2. Search. The owner-level graph is assembled and DFS cycle detection
//     runs with no latches held at all. Each candidate cycle is kept as an
//     explicit edge list, every edge carrying the waiting request that
//     witnessed it.
//  3. Re-validation. A fuzzy snapshot can contain phantom cycles (an edge
//     observed in shard A may be gone by the time shard B is sampled), so
//     no one is denied on snapshot evidence. For each candidate cycle the
//     detector latches just the home shards of the cycle's witness
//     requests — a handful, taken in ascending index order like every
//     multi-shard path — and recomputes every edge fresh. Only if all
//     edges hold simultaneously under those latches does the cycle exist
//     at that instant, and a wait cycle that exists at an instant is a
//     genuine deadlock: no false victims. Any edge that evaporated (a
//     grant, release, timeout, or cancellation beat the detector) voids
//     the cycle at the cost of a few latch acquisitions; a real deadlock
//     is permanent and will validate on this pass or the next.
//
// The victim policy is unchanged: the youngest owner (largest id) on each
// validated cycle is denied — all of its waiting requests, each counted —
// and its granted locks survive (a denied conversion reverts to its granted
// mode), so the transaction layer can roll it back.
//
// # Scratch reuse
//
// A pass builds its graph in detectScratch, which lives on the manager:
// owners are numbered through one map, edges are one flat list sorted into
// per-owner runs, and the DFS colors, stack and candidate cycles are flat
// slices indexed by owner number. Every pass empties the scratch at its
// end — map and slices cleared, capacity kept — so a steady detector
// allocates nothing and the scratch pins no owner or request between
// passes. Manager.detMu serializes passes over the one scratch; it is
// taken before any shard latch and held across all three phases.
//
// Owners are recycled (FinishOwner), so the snapshot's *Owner pointers
// name structs, not transactions. That leaves validation exact: phase 3
// reads an edge's from-owner only after proving its witness request is
// still waiting, which pins that owner to the transaction the snapshot
// saw (a finishing owner denies its waiting requests first), and compares
// to-owners by pointer against the lock's current holders and waiters.

// waitEdges appends the owners blocking req to out and returns it. Caller
// holds req's home shard latch (which owns req.header and every request
// queued on it); no other latches are needed.
func (m *Manager) waitEdges(req *request, out []*Owner) []*Owner {
	h := req.header
	if h == nil {
		return out
	}
	want := req.effectiveMode()
	if h.g0 != nil && h.g0.owner != req.owner && !Compatible(want, h.g0.mode) {
		out = append(out, h.g0.owner)
	}
	for o, g := range h.gmap {
		if o != req.owner && !Compatible(want, g.mode) {
			out = append(out, o)
		}
	}
	if !req.converting {
		// FIFO discipline: a waiter is also behind every converter and
		// every earlier waiter.
		for _, c := range h.converters {
			if c.owner != req.owner {
				out = append(out, c.owner)
			}
		}
		for _, w := range h.waiters {
			if w == req {
				break
			}
			if w.owner != req.owner {
				out = append(out, w.owner)
			}
		}
	}
	return out
}

// waitEdge is one observed owner→owner wait, witnessed by the waiting
// request that produced it.
type waitEdge struct {
	from *Owner
	to   *Owner
	via  *request
}

// detEdge is a snapshot edge between owner numbers (detectScratch.owners).
type detEdge struct {
	from, to int32
	via      *request
}

// detWait is one exported waiting request and its owner's number.
type detWait struct {
	owner int32
	req   *request
}

// detFrame is one DFS stack entry: an owner number and the witness of the
// edge the search descended through to reach it (nil for a root).
type detFrame struct {
	node int32
	via  *request
}

// DFS colors.
const (
	detWhite uint8 = iota
	detGrey
	detBlack
)

// detectScratch is a detector pass's working memory (see "Scratch reuse"
// above). Guarded by Manager.detMu.
type detectScratch struct {
	num    map[*Owner]int32 // owner → number
	owners []*Owner         // number → owner
	waits  []detWait        // every exported waiting request
	edges  []detEdge        // sorted by (from, to), one witness per pair
	start  []int32          // owner u's edges are edges[start[u]:start[u+1]]
	color  []uint8
	pos    []int32 // stack position of grey owners
	stack  []detFrame
	cycles []waitEdge // candidate cycles, concatenated
	ends   []int      // cycle k is cycles[ends[k-1]:ends[k]]
	to     []*Owner   // waitEdges buffer
	shards []int      // validateAndBreak: the cycle's home shards
	rest   []*request // validateAndBreak: victim requests in other shards
}

// number returns o's owner number, assigning the next one on first sight.
func (d *detectScratch) number(o *Owner) int32 {
	if u, ok := d.num[o]; ok {
		return u
	}
	u := int32(len(d.owners))
	d.num[o] = u
	d.owners = append(d.owners, o)
	return u
}

// index sorts the edge list into per-owner runs, keeps one witness per
// (from, to) pair (any suffices), and builds the run offsets and DFS
// state.
func (d *detectScratch) index() {
	slices.SortFunc(d.edges, func(a, b detEdge) int {
		if c := cmp.Compare(a.from, b.from); c != 0 {
			return c
		}
		return cmp.Compare(a.to, b.to)
	})
	// CompactFunc zeroes the entries it drops, so no witness lingers.
	d.edges = slices.CompactFunc(d.edges, func(a, b detEdge) bool {
		return a.from == b.from && a.to == b.to
	})
	nodes := len(d.owners)
	d.start = slices.Grow(d.start[:0], nodes+1)[:nodes+1]
	k := 0
	for u := range nodes {
		d.start[u] = int32(k)
		for k < len(d.edges) && d.edges[k].from == int32(u) {
			k++
		}
	}
	d.start[nodes] = int32(k)
	d.color = slices.Grow(d.color[:0], nodes)[:nodes]
	clear(d.color)
	d.pos = slices.Grow(d.pos[:0], nodes)[:nodes]
}

// dfs explores owner u, appending every cycle it closes to d.cycles as an
// explicit edge list: the stack segment from the grey target to u, whose
// consecutive entries are joined by the edges the search descended
// through, plus the closing edge.
func (d *detectScratch) dfs(u int32, in *request) {
	d.color[u] = detGrey
	d.pos[u] = int32(len(d.stack))
	d.stack = append(d.stack, detFrame{u, in})
	for _, e := range d.edges[d.start[u]:d.start[u+1]] {
		switch d.color[e.to] {
		case detWhite:
			d.dfs(e.to, e.via)
		case detGrey:
			seg := d.stack[d.pos[e.to]:]
			for k := 0; k+1 < len(seg); k++ {
				d.cycles = append(d.cycles, waitEdge{
					from: d.owners[seg[k].node],
					to:   d.owners[seg[k+1].node],
					via:  seg[k+1].via,
				})
			}
			d.cycles = append(d.cycles, waitEdge{from: d.owners[u], to: d.owners[e.to], via: e.via})
			d.ends = append(d.ends, len(d.cycles))
		}
	}
	d.stack[len(d.stack)-1] = detFrame{}
	d.stack = d.stack[:len(d.stack)-1]
	d.color[u] = detBlack
}

// reset empties the scratch, keeping its capacity, so that between passes
// it references no owner or request.
func (d *detectScratch) reset() {
	clear(d.num)
	clear(d.owners)
	d.owners = d.owners[:0]
	clear(d.waits)
	d.waits = d.waits[:0]
	clear(d.edges)
	d.edges = d.edges[:0]
	clear(d.cycles)
	d.cycles = d.cycles[:0]
	d.ends = d.ends[:0]
	clear(d.to[:cap(d.to)])
	d.to = d.to[:0]
	clear(d.rest[:cap(d.rest)])
	d.rest = d.rest[:0]
}

// stillWaiting reports whether via is still a live queued request. Caller
// holds via's home shard latch.
func (m *Manager) stillWaiting(via *request) bool {
	if via.pending == nil || via.parked || via.culled {
		return false
	}
	if st, _ := via.pending.Status(); st != StatusWaiting {
		return false
	}
	_, ok := m.shardFor(via.name).waiting[via]
	return ok
}

// blocksOn reports whether via (still waiting) is currently blocked by
// owner to. Caller holds via's home shard latch and detMu.
func (m *Manager) blocksOn(via *request, to *Owner) bool {
	d := &m.det
	d.to = m.waitEdges(via, d.to[:0])
	return slices.Contains(d.to, to)
}

// DetectDeadlocks finds wait-for cycles and denies one victim per cycle —
// the youngest owner (largest id), whose rollback is presumed cheapest. It
// returns the number of waiting requests denied. Steady-state cost is one
// latch per shard, held briefly and one at a time; the all-shard latch is
// never taken (GlobalRuns does not advance), and once the scratch has
// grown to the wait graph's size a pass allocates nothing.
func (m *Manager) DetectDeadlocks() int {
	m.detMu.Lock()
	d := &m.det
	if d.num == nil {
		d.num = make(map[*Owner]int32)
	}
	// Phase 1: export each shard's edges under its own latch. Shards whose
	// published nWaiting mirror reads zero are skipped without latching —
	// a shard with no waiters contributes no edges, and the mirror's
	// fuzziness is the same fuzziness the per-shard export already has
	// (phase 3 re-validates everything). An idle lock table detects with
	// zero latch acquisitions.
	for i := range m.shards {
		if m.shards[i].nWaiting.Load() == 0 {
			continue
		}
		s := m.lockShard(i)
		for req := range s.waiting {
			if req.parked || req.culled {
				// Parked and culled requests hold no queue position and
				// export no wait-graph edges. Culled waiters regain
				// visibility at reactivation; the SweepTimeouts valve
				// bounds how long that can take (throttle.go).
				continue
			}
			u := d.number(req.owner)
			d.waits = append(d.waits, detWait{u, req})
			d.to = m.waitEdges(req, d.to[:0])
			for _, to := range d.to {
				d.edges = append(d.edges, detEdge{from: u, to: d.number(to), via: req})
			}
		}
		m.unlockShard(s)
	}

	// Phase 2: latch-free DFS over the snapshot graph, collecting each
	// cycle as an explicit edge list.
	d.index()
	for u := range int32(len(d.owners)) {
		if d.color[u] == detWhite {
			d.dfs(u, nil)
		}
	}

	// Phase 3: re-validate each candidate cycle under only its own shards'
	// latches; deny the youngest owner of each cycle that survives.
	n, lo := 0, 0
	for _, hi := range d.ends {
		n += m.validateAndBreak(d.cycles[lo:hi])
		lo = hi
	}
	d.reset()
	m.detMu.Unlock()
	m.flushConts()
	return n
}

// validateAndBreak re-checks one candidate cycle under the latches of the
// shards hosting its witness requests and, if every edge still holds,
// denies all waiting requests of the cycle's youngest owner. It returns the
// number of requests denied (0 for a stale cycle). Caller holds detMu.
func (m *Manager) validateAndBreak(cyc []waitEdge) int {
	d := &m.det
	// Collect the distinct home shards of the cycle's witnesses and latch
	// them in ascending order — the same protocol runGlobal uses, so
	// concurrent global sections and other validations cannot deadlock
	// against us.
	shards := d.shards[:0]
	for _, e := range cyc {
		if si := m.shardOf(e.via.name); !slices.Contains(shards, si) {
			shards = append(shards, si)
		}
	}
	slices.Sort(shards)
	d.shards = shards
	for _, i := range shards {
		m.lockShard(i)
	}
	unlatch := func() {
		for k := len(shards) - 1; k >= 0; k-- {
			m.shards[shards[k]].mu.Unlock()
		}
	}

	// Every edge must hold simultaneously under the held latches;
	// otherwise some transaction in the candidate made progress and there
	// is no deadlock here now.
	var victim *Owner
	for _, e := range cyc {
		if !m.stillWaiting(e.via) || !m.blocksOn(e.via, e.to) {
			unlatch()
			return 0
		}
		if victim == nil || e.from.id > victim.id {
			victim = e.from
		}
	}

	// The cycle is proven. Deny the victim's waiting requests: those homed
	// in already-latched shards now, the rest after unlatching (each under
	// its own shard latch). The victim's in-cycle witness is necessarily in
	// a latched shard, so the cycle is broken before the latches drop.
	n := 0
	v := d.num[victim]
	for _, w := range d.waits {
		if w.owner != v {
			continue
		}
		if !slices.Contains(shards, m.shardOf(w.req.name)) {
			d.rest = append(d.rest, w.req)
			continue
		}
		n += m.denyVictimReq(victim, w.req)
	}
	unlatch()
	for _, req := range d.rest {
		s := m.lockShard(m.shardOf(req.name))
		n += m.denyVictimReq(victim, req)
		m.unlockShard(s)
	}
	clear(d.rest)
	d.rest = d.rest[:0]
	return n
}

// denyVictimReq denies one waiting request of a deadlock victim, if it is
// still waiting, and updates the counters. Caller holds req's home shard
// latch.
func (m *Manager) denyVictimReq(v *Owner, req *request) int {
	// Denying an earlier request posts its queues, which may have granted
	// or completed requests captured in the snapshot; a nil pending (or a
	// terminal status) marks such stale entries.
	if req.pending == nil {
		return 0
	}
	if st, _ := req.pending.Status(); st != StatusWaiting {
		return 0
	}
	m.stats.deadlocks.Add(1)
	if m.cfg.Events != nil {
		m.cfg.Events.OnDeadlockVictim(v.app.id, v.id)
	}
	m.deny(req, ErrDeadlock)
	return 1
}
