package lockmgr

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
)

// Introspection: point-in-time views of the lock table for operators and
// tests, in the spirit of DB2's `db2pd -locks`. DumpLocks reads the table
// one shard latch at a time — a fuzzy snapshot, like db2pd's own unlatched
// walk, that never stalls the fast path. CheckInvariants is the one
// deliberate exception: it is stop-the-world (runGlobal), because the
// cross-shard accounting it verifies only balances on a single consistent
// cut.

// LockInfo describes one lock table entry.
type LockInfo struct {
	Name      Name
	GroupMode Mode
	Holders   []HolderInfo
	Waiters   []WaiterInfo
}

// HolderInfo describes one granted request.
type HolderInfo struct {
	OwnerID    uint64
	AppID      int
	Mode       Mode
	Weight     int
	Converting bool
	ConvertTo  Mode
}

// WaiterInfo describes one queued request.
type WaiterInfo struct {
	OwnerID uint64
	AppID   int
	Mode    Mode
}

// DumpLocks returns every lock table entry, ordered by name, for
// diagnostics. Each shard is read under its own latch, one at a time, so
// the dump never freezes the whole table; entries from different shards may
// reflect slightly different instants (a lock released in shard 0 after its
// visit can still appear held in shard 5's rows). Within one entry the view
// is exact.
func (m *Manager) DumpLocks() []LockInfo {
	var out []LockInfo
	for i := range m.shards {
		s := m.lockShard(i)
		for _, h := range s.table {
			// Published headers accept latch-free grants; seal the word so
			// the granted group is stable (and race-free) while we copy it,
			// settle before moving on.
			m.sealFast(h)
			li := LockInfo{Name: h.name, GroupMode: h.groupMode}
			h.eachGranted(func(g *request) bool {
				li.Holders = append(li.Holders, HolderInfo{
					OwnerID:    g.owner.id,
					AppID:      g.owner.app.id,
					Mode:       g.mode,
					Weight:     g.weight,
					Converting: g.converting,
					ConvertTo:  g.convert,
				})
				return true
			})
			sort.Slice(li.Holders, func(i, j int) bool { return li.Holders[i].OwnerID < li.Holders[j].OwnerID })
			for _, w := range append(append([]*request{}, h.converters...), h.waiters...) {
				li.Waiters = append(li.Waiters, WaiterInfo{
					OwnerID: w.owner.id,
					AppID:   w.owner.app.id,
					Mode:    w.effectiveMode(),
				})
			}
			m.settleFast(s, h)
			out = append(out, li)
		}
		m.unlockShard(s)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Name, out[j].Name
		if a.Table != b.Table {
			return a.Table < b.Table
		}
		if a.Gran != b.Gran {
			return a.Gran < b.Gran
		}
		return a.Row < b.Row
	})
	return out
}

// String renders a LockInfo as a single diagnostic line.
func (li LockInfo) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s mode=%-4s holders=[", li.Name, li.GroupMode)
	for i, h := range li.Holders {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "txn%d:%s", h.OwnerID, h.Mode)
		if h.Converting {
			fmt.Fprintf(&b, "→%s", h.ConvertTo)
		}
	}
	b.WriteString("]")
	if len(li.Waiters) > 0 {
		b.WriteString(" waiters=[")
		for i, w := range li.Waiters {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "txn%d:%s", w.OwnerID, w.Mode)
		}
		b.WriteString("]")
	}
	return b.String()
}

// CheckInvariants verifies internal consistency of the lock table; tests
// and long-running simulations call it. It returns the first violation
// found, or nil.
//
// This is a deliberate runGlobal survivor — the only steady-state reader
// left on the all-shard latch. It cross-checks owner indexes against lock
// tables in other shards, sums per-application structures across every
// shard, and reconciles chain reservations against all lease pools: none of
// those identities hold on a fuzzy cut, only when the whole table stands
// still. Tests accept the stall; production observers use the latch-free
// Stats/ShardStatsSnapshot instead.
func (m *Manager) CheckInvariants() error {
	var err error
	m.runGlobal(func() {
		err = m.checkInvariantsLocked()
	})
	return err
}

// zeroed reports whether the box is in the state recycleBox leaves it in:
// a zero request and a waiting Pending that never made its Done channel.
func (b *requestAndPending) zeroed() bool {
	p := &b.pend
	return reflect.ValueOf(&b.req).Elem().IsZero() &&
		Status(p.status.Load()) == StatusWaiting && p.err == nil &&
		!p.hasDone.Load() && p.done == nil && !p.closed
}

// checkInvariantsLocked does the work. Caller holds all shard latches.
func (m *Manager) checkInvariantsLocked() error {
	// Box caches: every cached request box is zeroed (recycleBox cleared
	// it) and sits in exactly one shard cache; the table loop below checks
	// that no live request uses one. A box is cached only once its request
	// was released without its Pending ever escaping, and leaves the cache
	// only by being popped for a new request.
	cached := make(map[*requestAndPending]bool)
	for i := range m.shards {
		s := &m.shards[i]
		if got := int(s.rfreeN.Load()); got != len(s.rfree) {
			return fmt.Errorf("lockmgr: shard %d box cache mirror %d, cache holds %d", i, got, len(s.rfree))
		}
		for _, b := range s.rfree {
			if cached[b] {
				return fmt.Errorf("lockmgr: shard %d box cached twice", i)
			}
			cached[b] = true
			if !b.zeroed() {
				return fmt.Errorf("lockmgr: shard %d cached box not zeroed", i)
			}
		}
	}
	appStructs := make(map[int]int)
	inWait := make(map[*Owner]int)
	liveCulled, reactInFlight := 0, 0
	for i := range m.shards {
		s := &m.shards[i]
		// The latch-free observation mirrors must agree exactly with the
		// latched truth while every latch is held.
		if got, want := s.nLocks.Load(), int64(len(s.table)); got != want {
			return fmt.Errorf("lockmgr: shard %d nLocks mirror %d, table has %d", i, got, want)
		}
		if got, want := s.nWaiting.Load(), int64(len(s.waiting)); got != want {
			return fmt.Errorf("lockmgr: shard %d nWaiting mirror %d, waiting has %d", i, got, want)
		}
		if got, want := s.pool.Pooled(), s.pool.Structs(); got != want {
			return fmt.Errorf("lockmgr: shard %d pooled mirror %d, pool holds %d", i, got, want)
		}
		fastInUse := 0  // Σ granted fast-leased weights in this shard
		publishedN := 0 // published headers resident in this shard's table
		culledHere := 0 // culled requests on this shard's header stacks
		for name, h := range s.table {
			if h.published {
				publishedN++
				slot := s.fastSlots[fastSlotIndex(hashName(name))].Load()
				if slot != h {
					return fmt.Errorf("lockmgr: published header %v not in its fast slot", name)
				}
			}
			if h.name != name {
				return fmt.Errorf("lockmgr: header name mismatch %v vs %v", h.name, name)
			}
			if m.shardOf(name) != i {
				return fmt.Errorf("lockmgr: %v hashed to shard %d but stored in %d", name, m.shardOf(name), i)
			}
			if h.empty() && !h.published {
				// Published headers are deliberately kept resident while
				// empty (deferred reclamation keeps hot keys latch-free);
				// everything else must be evicted when its last interest
				// leaves.
				return fmt.Errorf("lockmgr: empty header %v not deleted", name)
			}
			// Grant word vs latched chain state. The world is stopped
			// (runGlobal gate), so no fast op can hold lk and the word must
			// be exactly what a settle would store: the packed counts +
			// group mode when the state is fast-representable, a fence
			// otherwise. Unpublished headers never carry a word.
			if w := h.word.Load(); h.published {
				if w&wordLk != 0 {
					return fmt.Errorf("lockmgr: %v grant word locked with the world stopped", name)
				}
				seq := (w >> wordSeqShift) & wordSeqMask
				if want := m.recomputeWord(h, seq); w != want {
					return fmt.Errorf("lockmgr: %v grant word %#x disagrees with chain state %#x", name, w, want)
				}
				// Optimistic epoch cross-check: the word's 11-bit settle
				// seq is defined as the low bits of the 64-bit reader
				// epoch. Every latched settle and every fast IX admission
				// bumps both together; with the world stopped they must
				// coincide, or a wrapped seq could ABA an optimistic
				// reader past a missed invalidation.
				if e := h.epoch.Load(); e&wordSeqMask != seq {
					return fmt.Errorf("lockmgr: %v settle seq %d desynced from epoch %d (low bits %d)",
						name, seq, e, e&wordSeqMask)
				}
			} else if w != 0 {
				return fmt.Errorf("lockmgr: %v unpublished header carries grant word %#x", name, w)
			}
			// Granted group mutually compatible, and groupMode correct.
			// The overflow map (if any) must key by owner.
			for o, g := range h.gmap {
				if g.owner != o {
					return fmt.Errorf("lockmgr: %v granted map owner mismatch", name)
				}
			}
			want := ModeNone
			holders := make([]*request, 0, h.grantedLen())
			var grantErr error
			h.eachGranted(func(g *request) bool {
				if !g.granted {
					grantErr = fmt.Errorf("lockmgr: %v non-granted request in granted group", name)
					return false
				}
				if cached[g.box] {
					grantErr = fmt.Errorf("lockmgr: %v holder's box is in a box cache", name)
					return false
				}
				holders = append(holders, g)
				want = Supremum(want, g.mode)
				if g.fastLeased {
					// Fast-path grants hold no handle; their structures
					// live in the shard's standing fast lease.
					appStructs[g.owner.app.id] += g.weight
					fastInUse += g.weight
				} else {
					appStructs[g.owner.app.id] += g.handle.Structs()
				}
				return true
			})
			if grantErr != nil {
				return grantErr
			}
			for i := 0; i < len(holders); i++ {
				for j := i + 1; j < len(holders); j++ {
					if !Compatible(holders[i].mode, holders[j].mode) {
						return fmt.Errorf("lockmgr: %v incompatible granted group: %v vs %v",
							name, holders[i].mode, holders[j].mode)
					}
				}
			}
			if h.groupMode != want {
				return fmt.Errorf("lockmgr: %v groupMode %v, want %v", name, h.groupMode, want)
			}
			// Every waiter is registered in its shard's waiting set, and —
			// FIFO soundness — the head waiter is genuinely blocked.
			for _, c := range h.converters {
				if _, ok := s.waiting[c]; !ok {
					return fmt.Errorf("lockmgr: %v converter missing from waiting set", name)
				}
				if !c.converting {
					return fmt.Errorf("lockmgr: %v non-converting request on converter queue", name)
				}
			}
			for _, w := range h.waiters {
				if _, ok := s.waiting[w]; !ok {
					return fmt.Errorf("lockmgr: %v waiter missing from waiting set", name)
				}
				appStructs[w.owner.app.id] += w.handle.Structs()
			}
			// Culled-set accounting (throttle.go): every culled request is
			// flagged, registered in the waiting set (so sweeps find it),
			// belongs to this header, holds no grant, no conversion, and
			// no lock structures or fast lease — it was culled before
			// allocation and reconciles to zero charged weight.
			for _, c := range h.culled {
				if !c.culled {
					return fmt.Errorf("lockmgr: %v unflagged request on culled stack", name)
				}
				if _, ok := s.waiting[c]; !ok {
					return fmt.Errorf("lockmgr: %v culled request missing from waiting set", name)
				}
				if c.header != h {
					return fmt.Errorf("lockmgr: %v culled request headed elsewhere", name)
				}
				if c.granted || c.converting {
					return fmt.Errorf("lockmgr: %v culled request granted/converting", name)
				}
				if c.handle.Structs() != 0 || c.fastLeased {
					return fmt.Errorf("lockmgr: %v culled request holds lock structures", name)
				}
				culledHere++
			}
			if h.reactInFlight < 0 {
				return fmt.Errorf("lockmgr: %v negative reactivations in flight", name)
			}
			reactInFlight += h.reactInFlight
			if len(h.converters) == 0 && len(h.waiters) > 0 {
				if Compatible(h.waiters[0].mode, h.groupMode) {
					return fmt.Errorf("lockmgr: %v head waiter %v compatible with group %v but not granted",
						name, h.waiters[0].mode, h.groupMode)
				}
			}
		}
		// Every member of the waiting set (queued waiters, converters, and
		// parked requests) counts toward its owner's inWait gauge and must
		// have its home shard's touched bit set — the bit is set before the
		// request can reach any queue, and never cleared.
		waitingCulled := 0
		for req := range s.waiting {
			inWait[req.owner]++
			if req.culled {
				waitingCulled++
			}
			if !req.escaped {
				return fmt.Errorf("lockmgr: shard %d waiting request on %v not marked escaped", i, req.name)
			}
			if cached[req.box] {
				return fmt.Errorf("lockmgr: shard %d waiting request on %v uses a cached box", i, req.name)
			}
			if !req.owner.isTouched(i) {
				return fmt.Errorf("lockmgr: owner %d waits in shard %d without touched bit", req.owner.id, i)
			}
		}
		// No lost culled waiters: every culled request in the waiting set
		// sits on exactly one header's culled stack, and vice versa.
		if waitingCulled != culledHere {
			return fmt.Errorf("lockmgr: shard %d waiting set holds %d culled requests, header stacks hold %d",
				i, waitingCulled, culledHere)
		}
		liveCulled += culledHere
		// Fast-path slot array: every non-nil slot points at a published
		// header of this shard's table, and the published population mirror
		// is exact.
		slotN := 0
		for j := range s.fastSlots {
			h := s.fastSlots[j].Load()
			if h == nil {
				continue
			}
			slotN++
			if !h.published {
				return fmt.Errorf("lockmgr: shard %d slot %d holds unpublished header %v", i, j, h.name)
			}
			if s.table[h.name] != h {
				return fmt.Errorf("lockmgr: shard %d slot %d header %v not in table", i, j, h.name)
			}
			if fastSlotIndex(hashName(h.name)) != j {
				return fmt.Errorf("lockmgr: shard %d header %v in wrong slot %d", i, h.name, j)
			}
		}
		if slotN != publishedN || int(s.fastPublishedN.Load()) != publishedN {
			return fmt.Errorf("lockmgr: shard %d published-header counts disagree: slots %d, table %d, mirror %d",
				i, slotN, publishedN, s.fastPublishedN.Load())
		}
		// Fast credit: the standing lease physically backs the whole credit
		// line; the consumed part is exactly the granted fast-leased weight
		// resident in this shard.
		free := int(s.fastFree.Load())
		if free < 0 || free > s.fastLeaseTotal {
			return fmt.Errorf("lockmgr: shard %d fast credit %d outside [0,%d]", i, free, s.fastLeaseTotal)
		}
		if s.fastLease.Structs() != s.fastLeaseTotal {
			return fmt.Errorf("lockmgr: shard %d fast lease holds %d structs, accounted %d",
				i, s.fastLease.Structs(), s.fastLeaseTotal)
		}
		if s.fastLeaseTotal-free != fastInUse {
			return fmt.Errorf("lockmgr: shard %d fast credit in use %d, granted fast-leased weight %d",
				i, s.fastLeaseTotal-free, fastInUse)
		}
	}

	// Culled-set lifetime identity (throttle.go): every waiter the
	// throttle ever culled resolved exactly one way — reactivated into the
	// admission pipeline, denied in place, or still parked on a stack —
	// and the latch-free live gauge mirrors the parked population exactly
	// while the world is stopped. reactInFlight is informational here:
	// popped waiters are already counted reactivated whether or not their
	// continuation has run.
	_ = reactInFlight
	if culled, react, den := m.throtCulled.Total(), m.throtReact.Total(), m.throtDenied.Total(); culled != react+den+int64(liveCulled) {
		return fmt.Errorf("lockmgr: culled waiters lost: culled %d != reactivated %d + denied %d + live %d",
			culled, react, den, liveCulled)
	}
	if got := m.throtLive.Load(); got != int64(liveCulled) {
		return fmt.Errorf("lockmgr: culled live gauge %d, stacks hold %d", got, liveCulled)
	}

	// Staged-but-unflushed group-release batches (grouprelease.go) are pure
	// intent: every entry must still be fully resident — granted in its
	// home shard's table, counted by the chain/quota/lease checks above —
	// and its owner's teardown refcount must cover the batch. Staging is
	// latch-free, so concurrent pushes can extend a list under the stopped
	// world; drains cannot (they need the latch), which makes the snapshot
	// walk and the ≥-style mirror checks stable.
	stagedBatches := make(map[*Owner]int32)
	stagedWeight := make(map[int]int64)
	for i := range m.shards {
		s := &m.shards[i]
		staged := int32(0)
		for sb := s.relHead.Load(); sb != nil; sb = sb.next {
			staged++
			o := sb.stagedOwner
			if o == nil {
				return fmt.Errorf("lockmgr: shard %d staged batch without owner", i)
			}
			if sb.stagedShard != i {
				return fmt.Errorf("lockmgr: shard %d staged batch homed to shard %d", i, sb.stagedShard)
			}
			stagedBatches[o]++
			for _, lst := range [2][]releaseEntry{sb.rows, sb.tables} {
				for _, e := range lst {
					if e.si != i {
						return fmt.Errorf("lockmgr: staged entry %v routed to shard %d, staged on %d", e.name, e.si, i)
					}
					h := s.table[e.name]
					if h == nil || h.getGranted(o) != e.req {
						return fmt.Errorf("lockmgr: staged release of %v no longer granted in table", e.name)
					}
					if !e.req.granted {
						return fmt.Errorf("lockmgr: staged release of %v lost its granted flag before the drain", e.name)
					}
					if e.req.fastLeased {
						stagedWeight[o.app.id] += int64(e.req.weight)
					} else {
						stagedWeight[o.app.id] += int64(e.req.handle.Structs())
					}
				}
			}
		}
		if got := s.relLen.Load(); got < staged {
			return fmt.Errorf("lockmgr: shard %d staging length mirror %d below %d staged batches", i, got, staged)
		}
	}
	for o, n := range stagedBatches {
		if got := o.stagedRefs.Load(); got < n {
			return fmt.Errorf("lockmgr: owner %d staged refcount %d below %d staged batches", o.id, got, n)
		}
	}
	// Staged weight is still charged weight: until a flush leader applies
	// the batch, the quota gauges must keep carrying every staged struct.
	for id, w := range stagedWeight {
		if charged := int64(appStructs[id]); w > charged {
			return fmt.Errorf("lockmgr: app %d staged-but-unflushed weight %d exceeds charged structs %d", id, w, charged)
		}
	}

	// Owner indexes agree with the lock table. ownersMu is held across the
	// whole pass, not just a list snapshot: a deregistered owner's
	// teardown (dropStagedRef → resetForReuse, and pool reuse by NewOwner)
	// wipes the indexes latch-free, and deregistration itself needs
	// ownersMu — so pinning ownersMu keeps every visited owner alive and
	// un-recycled for the duration. Lock order is shard latches → ownersMu
	// → o.mu; both tails are leaves (no path takes ownersMu or a shard
	// latch while holding o.mu, and none takes a latch under ownersMu).
	apps := make(map[int]*App)
	ownerErr := func() error {
		m.ownersMu.Lock()
		defer m.ownersMu.Unlock()
		for id, a := range m.apps {
			apps[id] = a
		}
		for o := m.owners; o != nil; o = o.regNext {
			// o.mu excludes a commit mid-collect (collectDetach mutates
			// the held indexes under o.mu alone); every other mutation is
			// under a shard latch, excluded by the stopped world.
			o.mu.Lock()
			var heldErr error
			o.held.each(func(name Name, req *request) {
				h := m.shardFor(name).table[name]
				if h == nil || h.getGranted(o) != req {
					heldErr = fmt.Errorf("lockmgr: owner %d holds %v not present in table", o.id, name)
				}
				if !o.isTouched(m.shardOf(name)) {
					heldErr = fmt.Errorf("lockmgr: owner %d holds %v in shard %d without touched bit",
						o.id, name, m.shardOf(name))
				}
			})
			if heldErr != nil {
				o.mu.Unlock()
				return heldErr
			}
			// The latch-free inWait gauge must equal the owner's waiting-set
			// population exactly while every latch is held: increments happen
			// before a request joins a waiting set (under its shard latch) and
			// decrements after it leaves, so with the whole table stopped the
			// two counts coincide.
			if got, want := o.inWait.Load(), int32(inWait[o]); got != want {
				o.mu.Unlock()
				return fmt.Errorf("lockmgr: owner %d inWait gauge %d, waiting sets hold %d", o.id, got, want)
			}
			var tblErr error
			o.eachTable(func(tid uint32, ot *ownerTable) bool {
				structs := 0
				ot.eachRow(func(row uint64, r *request) {
					if hr, ok := o.held.get(RowName(tid, row)); !ok || hr != r {
						tblErr = fmt.Errorf("lockmgr: owner %d byTable row %d desynced", o.id, row)
					}
					structs += r.weight
				})
				if tblErr == nil && structs != ot.rowStructs {
					tblErr = fmt.Errorf("lockmgr: owner %d table %d rowStructs %d, want %d",
						o.id, tid, ot.rowStructs, structs)
				}
				return tblErr == nil
			})
			o.mu.Unlock()
			if tblErr != nil {
				return tblErr
			}
		}
		return nil
	}()
	if ownerErr != nil {
		return ownerErr
	}

	// Per-application struct accounting matches the chain.
	total := 0
	for id, n := range appStructs {
		if app := apps[id]; app != nil && app.structs.Load() != int64(n) {
			return fmt.Errorf("lockmgr: app %d structs %d, want %d", id, app.structs.Load(), n)
		}
		total += n
	}
	if used := m.chain.Used(); used != total {
		return fmt.Errorf("lockmgr: chain used %d, requests account for %d", used, total)
	}

	// Memory-chain internal consistency, and exact STMM-facing totals:
	// Used + Free == Capacity must hold even mid-lease.
	if err := m.chain.CheckInvariants(); err != nil {
		return err
	}
	if u, f, c := m.chain.Used(), m.chain.FreeStructs(), m.chain.Capacity(); u+f != c {
		return fmt.Errorf("lockmgr: used %d + free %d != capacity %d", u, f, c)
	}

	// Lease reconciliation: everything the chain has reserved beyond
	// request-level usage must sit in exactly one shard's pool or in a
	// shard's unconsumed fast credit (granted fast-leased weight has been
	// consumed against the chain, so only the free balance counts here).
	pooled := 0
	for i := range m.shards {
		pooled += m.shards[i].pool.Structs()
		pooled += int(m.shards[i].fastFree.Load())
	}
	if leased := m.chain.Reserved() - m.chain.Used(); leased != pooled {
		return fmt.Errorf("lockmgr: chain leases %d structs beyond use, shard pools + fast credit hold %d", leased, pooled)
	}

	// Contention-profiler sketch cross-check (profiler.go). Under the
	// stopped world every latched recorder is quiescent, so the sketch
	// must be internally consistent with the lock table's own structure:
	// every tracked key homes to the stripe it is filed under (the
	// stripe-by-home-shard discipline all Observe calls follow), no key
	// appears twice in one stripe, no counter is negative, and each
	// stripe's Σ Score never exceeds its lifetime observed blame — the
	// space-saving total identity (takeovers move score between keys,
	// decay only shrinks it).
	if m.hot != nil {
		type stripeKey struct {
			stripe int
			name   Name
		}
		seen := make(map[stripeKey]struct{})
		perStripe := make(map[int]int64)
		for _, e := range m.hot.Entries() {
			if got := m.shardOf(e.Key); got != e.Stripe {
				return fmt.Errorf("lockmgr: hot sketch key %s filed on stripe %d, homes to shard %d", e.Key, e.Stripe, got)
			}
			sk := stripeKey{e.Stripe, e.Key}
			if _, dup := seen[sk]; dup {
				return fmt.Errorf("lockmgr: hot sketch key %s tracked twice on stripe %d", e.Key, e.Stripe)
			}
			seen[sk] = struct{}{}
			if e.Score < 0 || e.Err < 0 {
				return fmt.Errorf("lockmgr: hot sketch key %s has negative score %d / err %d", e.Key, e.Score, e.Err)
			}
			for mi, v := range e.Vals {
				if v < 0 {
					return fmt.Errorf("lockmgr: hot sketch key %s metric %d negative (%d)", e.Key, mi, v)
				}
			}
			perStripe[e.Stripe] += e.Score
		}
		for stripe, sum := range perStripe {
			if lifetime := m.hot.StripeObserved(stripe); sum > lifetime {
				return fmt.Errorf("lockmgr: hot sketch stripe %d scores sum to %d, only %d blame ever observed", stripe, sum, lifetime)
			}
		}
	}
	return nil
}
