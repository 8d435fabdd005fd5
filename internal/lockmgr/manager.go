// Package lockmgr implements a DB2-style multigranularity lock manager: the
// substrate whose memory consumption the paper's algorithm tunes.
//
// Locks are identified by Name (table or row), requested in the modes of
// mode.go, and stored as lock structures allocated from a memblock.Chain —
// the 128 KB block list of section 2.2. Waiters queue FIFO and are granted
// by posting (section 2.3, Figure 3): when locks are released, the manager
// wakes queued requests strictly in arrival order, so a compatible request
// that arrived behind an incompatible one does not jump the queue.
//
// The manager implements the two lock-escalation triggers the paper tunes
// around:
//
//   - per-application quota (MAXLOCKS / lockPercentPerApplication): a new
//     lock that would push the application above its percentage of the lock
//     memory escalates the application's row locks on its most-locked table
//     into a single table lock;
//   - lock memory exhaustion: an allocation the block chain cannot satisfy
//     first attempts synchronous growth through the GrowSync hook (database
//     overflow memory), then escalates, and only then fails.
//
// Escalation converts the application's existing table intent lock (IS/IX)
// to the supremum of its row-lock modes (S, SIX or X), which may itself have
// to wait for incompatible holders — exactly the concurrency collapse of
// Figures 7 and 8.
//
// # Concurrency: the striped lock table
//
// The lock table is striped across a power-of-two array of shards. A Name
// hashes to exactly one shard, which owns that name's lock header, its FIFO
// grant queues, its slice of the waiting set, and a lease pool of lock
// structures batched out of the shared block chain. The per-lock FIFO
// posting discipline is untouched by sharding: a lock's entire queue lives
// in one shard, under one latch.
//
// Latching protocol, innermost last:
//
//  1. shard latches, always in ascending index order. Fast-path operations
//     (Acquire, Release, conversions) take exactly one; the few surviving
//     cross-shard operations (the admission pipeline of last resort,
//     invariant checks) take all of them via runGlobal. Multi-shard readers
//     that need a simultaneous view of a handful of shards (deadlock-cycle
//     re-validation) latch only those shards, still in ascending order, so
//     they cannot deadlock against runGlobal or each other.
//  2. Owner.mu — leaf lock guarding one owner's held/byTable indexes and
//     the granted/converting/mode fields of its requests. Writers hold
//     (home-shard latch + Owner.mu); readers hold either Owner.mu (the
//     cross-shard coverage check) or the relevant shard latches. Owner.mu
//     is never held while acquiring a shard latch.
//  3. Leaves of the leaves: chain.mu (inside pool refills and global
//     allocation), contMu (continuation queue), ownersMu (app/owner
//     registry), and the Pending mutex. None of these is ever held while
//     taking a latch above it.
//
// Admission runs on a fast path that touches only the home shard: quota
// check against a cached lockPercentPerApplication (refreshed at most once
// per quotaRefreshStride lock-structure requests, so the provider's mutex
// stays off the per-acquire path), then an allocation from the shard's
// lease pool. If either step cannot be satisfied locally the fast path
// backs out — having mutated nothing — and the request restarts in global
// mode, which holds every shard latch and runs the original single-latch
// admission logic verbatim: quota growth (with a fresh quota read), pool
// repatriation (flushing all shard leases back to the chain before
// declaring memory exhausted), synchronous growth, then escalation.
//
// # The concurrent control plane
//
// Control-plane work — deadlock detection, statistics, introspection,
// escalation continuations — deliberately stays off the all-shard latch in
// steady state, so observing and policing the lock table does not
// periodically freeze the fast path it polices:
//
//   - DetectDeadlocks exports wait-for edges one shard latch at a time,
//     finds cycles latch-free, and re-validates each candidate cycle under
//     only the latches of the shards hosting that cycle's waiting requests
//     (see deadlock.go for the no-false-victims argument).
//   - Snapshot-style reads (Stats, ShardStatsSnapshot, LatchWaits, the
//     memory accessors) come from atomic counters and per-shard
//     sequence-stamped summaries; they take no latches at all.
//   - Escalation continuations (free the escalated rows, retry the parked
//     request) are enqueued anywhere and drained with no latches held; each
//     continuation re-latches the shards it touches and re-validates its
//     targets under those latches, so a release, grant, or timeout racing
//     the drain is observed rather than clobbered (see escalate.go).
//
// runGlobal survives for exactly two jobs: the admission pipeline of last
// resort (quota growth, escalation, and synchronous growth need a
// consistent view of every lease pool and the chain) and CheckInvariants
// (whose cross-shard accounting only balances when the table is quiescent).
// Every runGlobal records its all-shard hold time in a max gauge
// (GlobalHoldMax — the fast-path stall ceiling) and bumps a run counter
// (GlobalRuns) that tests use to prove steady-state detection and
// observation never touch the global path.
package lockmgr

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/latch"
	"repro/internal/memblock"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// Errors returned to lock requesters.
var (
	// ErrTimeout means the request waited longer than the lock timeout.
	ErrTimeout = errors.New("lockmgr: lock wait timeout")
	// ErrDeadlock means the request was chosen as a deadlock victim.
	ErrDeadlock = errors.New("lockmgr: deadlock victim")
	// ErrLockMemory means lock memory was exhausted and neither
	// synchronous growth nor escalation could free enough structures.
	ErrLockMemory = errors.New("lockmgr: out of lock memory")
	// ErrQuotaExceeded means the application exceeded
	// lockPercentPerApplication and escalation could not bring it back
	// under the quota.
	ErrQuotaExceeded = errors.New("lockmgr: application lock quota exceeded")
	// ErrCanceled means the request was canceled by its owner.
	ErrCanceled = errors.New("lockmgr: request canceled")
)

// Status is the state of a Pending lock request.
type Status uint8

const (
	// StatusWaiting — queued behind incompatible holders.
	StatusWaiting Status = iota
	// StatusGranted — the lock is held.
	StatusGranted
	// StatusDenied — the request failed; see the error.
	StatusDenied
)

func (s Status) String() string {
	switch s {
	case StatusWaiting:
		return "waiting"
	case StatusGranted:
		return "granted"
	case StatusDenied:
		return "denied"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// Pending is the handle for an asynchronous lock request. Done is closed
// when the request leaves the waiting state. The channel is created lazily
// on the first Done call, so callers that poll Status (the common
// immediate-grant case) never pay for a channel allocation; Status and
// complete are mutex-free on that path.
type Pending struct {
	// status holds a Status value; it transitions from StatusWaiting to a
	// terminal state exactly once. err is written before the terminal
	// store, so a reader that observes a terminal status also observes
	// err (atomics establish happens-before).
	status  atomic.Int32
	err     error
	hasDone atomic.Bool // true once done has been created

	dmu    sync.Mutex // guards done and closed
	done   chan struct{}
	closed bool
}

func newPending() *Pending {
	return &Pending{}
}

// Done returns a channel closed when the request is granted or denied.
func (p *Pending) Done() <-chan struct{} {
	p.dmu.Lock()
	defer p.dmu.Unlock()
	if p.done == nil {
		p.done = make(chan struct{})
		p.hasDone.Store(true)
		if Status(p.status.Load()) != StatusWaiting && !p.closed {
			close(p.done)
			p.closed = true
		}
	}
	return p.done
}

// Status returns the current state and, for StatusDenied, the reason.
func (p *Pending) Status() (Status, error) {
	st := Status(p.status.Load())
	if st == StatusWaiting {
		return StatusWaiting, nil
	}
	return st, p.err
}

// complete moves p to a terminal state. Calls for one Pending are
// serialized by its request's home shard latch (or happen before the
// request is ever published), so the waiting-state check cannot race with
// another completer; the Done interplay is covered by seq-cst atomics plus
// dmu (whichever of complete/Done runs second observes the other's store
// and performs the close, with closed deduplicating).
func (p *Pending) complete(st Status, err error) {
	if Status(p.status.Load()) != StatusWaiting {
		return
	}
	p.err = err
	p.status.Store(int32(st))
	if p.hasDone.Load() {
		p.dmu.Lock()
		if p.done != nil && !p.closed {
			close(p.done)
			p.closed = true
		}
		p.dmu.Unlock()
	}
}

// reset returns a Pending to its zero (waiting) state for box recycling.
// The caller must own the Pending exclusively: recycleBox only resets the
// Pendings of boxes that never escaped (request.escaped), which no caller
// or other goroutine ever saw. Assigning the struct wholesale would copy
// dmu, so fields are cleared individually.
func (p *Pending) reset() {
	// The caller has exclusive ownership, but the fields stay atomics for
	// the concurrent phases of the Pending's life — so skip the relatively
	// expensive atomic stores when the value is already right (a fast-path
	// box's Pending was never touched at all, making its reset free).
	if p.status.Load() != int32(StatusWaiting) {
		p.status.Store(int32(StatusWaiting))
	}
	p.err = nil
	if p.hasDone.Load() {
		p.hasDone.Store(false)
		p.done = nil
		p.closed = false
	}
}

// QuotaProvider supplies the live lockPercentPerApplication value. The
// manager consults it on every allocation of new lock structures; the
// provider decides whether the refresh period has elapsed (core.QuotaTracker
// implements this policy). A nil provider means "no quota" (100%).
//
// Providers must be safe for concurrent use and idempotent for repeated
// calls with the same structRequests value: the fast admission path and the
// global fallback may both consult the quota for one request.
type QuotaProvider interface {
	// QuotaPercent returns the percentage of total lock memory the given
	// application may hold, given the cumulative number of lock-structure
	// requests and the structures currently in use. Most providers ignore
	// appID; the engine's escalation-policy extension biases individual
	// applications that prefer escalation over memory growth.
	QuotaPercent(appID int, structRequests int64, usedStructs int) float64
}

// EscalationPreferrer is an optional extension of QuotaProvider: providers
// implementing it can mark individual applications as preferring lock
// escalation over lock-memory growth (the paper's section 6.1 application
// policies). For such applications the manager escalates at the quota
// rather than growing the lock memory to accommodate them.
type EscalationPreferrer interface {
	PrefersEscalation(appID int) bool
}

func prefersEscalation(q QuotaProvider, appID int) bool {
	p, ok := q.(EscalationPreferrer)
	return ok && p.PrefersEscalation(appID)
}

// EventSink receives notifications of noteworthy lock-manager events for
// diagnostics (the engine forwards them to its trace ring). Methods are
// invoked with one or more shard latches held: implementations must be fast
// and must not call back into the Manager.
type EventSink interface {
	OnEscalation(appID int, table uint32, to Mode)
	OnDeadlockVictim(appID int, ownerID uint64)
	OnTimeout(appID int)
	OnSyncGrowth(pages int)
	OnDenial(appID int, reason error)
}

// Config configures a Manager.
type Config struct {
	// InitialPages is the starting LOCKLIST size in 4 KB pages.
	InitialPages int
	// Clock drives wait deadlines; nil means clock.Real.
	Clock clock.Clock
	// LockTimeout denies waits older than this at each SweepTimeouts
	// call. Zero disables timeouts.
	LockTimeout time.Duration
	// GrowSync, if non-nil, is called (with the shard latches held) when
	// an allocation fails; it should grant up to needPages of database
	// overflow memory and return the pages granted (0 = none).
	GrowSync func(needPages int) int
	// Quota supplies lockPercentPerApplication; nil disables the quota.
	Quota QuotaProvider
	// Events, if non-nil, receives diagnostic event notifications.
	Events EventSink
	// Shards is the number of lock-table shards. Zero selects a default
	// derived from GOMAXPROCS; other values are rounded up to a power of
	// two and clamped to [1, 1024].
	Shards int
	// LeaseChunk is the batch size, in lock structures, of per-shard
	// leases from the block chain. Zero selects
	// memblock.DefaultLeaseChunk.
	LeaseChunk int
	// ObsSampleStride controls the wall-clock sampling of admission
	// latency and lock hold time: one in ObsSampleStride acquisitions is
	// timed (rounded up to a power of two). Zero selects the default
	// (64); negative disables wall-clock sampling entirely. Lock-wait
	// durations are always recorded — they use the manager's Clock, not
	// the wall clock, and cost one atomic add at grant/deny.
	ObsSampleStride int
	// ProfileDisabled switches the contention profiler (hot-lock sketch,
	// flight recorder, latch profile — see profiler.go) off entirely.
	// The default (false) keeps it on: its hot-path cost is one or two
	// uncontended atomic adds per contention event, benchmarked under 3%
	// (see bench-obs-profiler).
	ProfileDisabled bool
	// LatchSpin overrides the shard-latch spin policy. 0 (the default)
	// enables the adaptive per-shard controller: each latch's spin
	// budget is retuned from its sampled hold times and spin outcomes,
	// collapsing to 0 on a single P or when spinners outnumber P's.
	// A positive value pins every shard latch to that fixed spin budget
	// (clamped to latch.BudgetCap) — the experimental control for A/B
	// runs, which also bypasses the adaptive guards so the budget is
	// spent exactly as configured. A negative value pins the budget to 0
	// (park immediately, the stock sync.Mutex-like behaviour).
	LatchSpin int
	// Throttle configures saturation-aware admission throttling
	// (throttle.go). 0 (the default) enables the adaptive controller:
	// per-shard concurrency ceilings engage only when RetuneThrottle —
	// driven on the STMM cadence — observes a queue-depth high-water
	// past the saturation knee, so quiet tables never pay anything. A
	// positive value pins every shard's ceiling to that fixed waiter
	// count from the start (the experimental control for A/B runs). A
	// negative value disables throttling entirely: no ceiling ever
	// engages and the admission path never consults the culled set.
	Throttle int
}

// App is a connected application, the unit of quota accounting.
type App struct {
	id      int
	structs atomic.Int64 // lock structures held
}

// ID returns the application's identifier.
func (a *App) ID() int { return a.id }

// maxShardWords is the shard bitmap size in uint64 words: one bit per
// shard at the 1024-shard configuration ceiling. releaseBatch keeps a
// full-width bitmap inline (it is pooled, so the 128 bytes are paid once);
// Owner keeps only the first word inline and spills the rest lazily, since
// per-transaction memory is the commit path's main allocation.
const maxShardWords = 1024 / 64

// Owner is a lock requester — one transaction. All of an owner's locks are
// released together by ReleaseAll at commit or abort (strict two-phase
// locking). An owner's lock requests must be issued from a single goroutine
// (the transaction), but distinct owners operate fully in parallel.
type Owner struct {
	id  uint64
	app *App

	// mu guards held, byTable, released, touched, and the owner-visible
	// request fields (granted/converting/convert/mode) of this owner's
	// requests. It is a leaf lock: never held while acquiring a shard
	// latch.
	mu       sync.Mutex
	held     heldSet
	released bool // set by ReleaseAll; further requests are rejected

	// Per-table indexes: the first table an owner touches lives in the
	// inline slot (ot0), further tables spill to the lazily allocated
	// byTable map. Most OLTP transactions touch one or two tables, so the
	// common case allocates neither the map nor an ownerTable.
	ot0used bool
	ot0tid  uint32
	ot0     ownerTable
	byTable map[uint32]*ownerTable // nil until a second table appears
	// otFree holds the spilled per-table indexes of earlier transactions
	// (reset, spill maps kept), reused by tableOrCreate across owner
	// reuse; byTable itself is kept empty rather than dropped.
	otFree []*ownerTable

	// touched is the owner's touched-shard set: bit i is set (under mu, at
	// admission time) before any of this owner's requests can exist in
	// shard i, and bits are never cleared — owners are discarded at
	// ReleaseAll. The commit fast path visits only touched shards instead
	// of sweeping the whole shard array, so release cost is O(locks held),
	// not O(shards). The set is conservative: a bit may be set for a shard
	// the owner never actually locked (a backed-out fast path, a covered
	// grant), which costs at most one latch visit at commit.
	//
	// Shards 0–63 live in the inline word; tables configured with more
	// shards get the spill slice at NewOwner time (sized once, never
	// grown), keeping the common-case Owner small.
	touched0  uint64
	touchedHi []uint64 // nil unless the table has > 64 shards

	// inWait counts this owner's requests currently in a wait queue
	// (waiters, converters, parked requests). Incremented when a request
	// first enters a queue (beginWait / escalation park), decremented by
	// endWait only once the request is either installed in held (grant) or
	// terminally denied — so ReleaseAll reading 0 under mu proves the held
	// snapshot is complete and no cancel sweep is needed.
	inWait atomic.Int32

	// obsTick is the owner-local admission-sampling counter: AcquireAsync
	// samples one in obsSampler.Stride() of this owner's acquisitions. A
	// plain field, touched only by the owner's requesting goroutine (the
	// documented single-goroutine contract) — striping the sampler by
	// owner keeps the global sampler's shared cacheline off the per-grant
	// path entirely.
	obsTick uint64

	// everWaited is set (under the home shard latch, before the owner's
	// release can complete) the first time any of the owner's requests
	// enters a wait queue. FinishOwner refuses to recycle such owners:
	// denial and grant continuations may still hold the pointer briefly
	// after ReleaseAll returns, so they are left to the garbage collector.
	everWaited bool

	// stagedRefs counts the owner's release batches still staged on shard
	// flush lists, plus one bias held by the release walk itself
	// (grouprelease.go). The walk stores the bias under o.mu before any
	// batch is published and drops it as its very last touch of the
	// owner; each flush leader drops one ref after it has fully applied a
	// staged batch. Whoever drops the count to zero owns the teardown:
	// if recycleOnZero is set (FinishOwner's exclusive-pointer contract,
	// decided before the first publish) it resets and pools the owner.
	stagedRefs    atomic.Int32
	recycleOnZero bool

	// Commit-walk scratch, reused across this owner's transactions so the
	// steady-state release walk touches no sync.Pool at all: the collect
	// snapshot, the deferred posting/wake drain, and a small arsenal of
	// staged-batch slots for storm-mode shard visits (overflow falls back
	// to releaseBatchPool). A slot is safe to reuse because the owner is
	// only recycled — and the walk only restarted — after stagedRefs hits
	// zero, which requires every previously staged slot to have been
	// applied. Touched only by the walk goroutine and (per staged slot,
	// hand-off via the staging-list CAS) the one flush leader applying it.
	walkBatch releaseBatch
	drain     releaseDrain
	sbArsenal [2]releaseBatch
	sbUsed    int8

	// Registry list links, guarded by Manager.ownersMu.
	regPrev, regNext *Owner
}

// markTouched records that the owner may have a request homed in shard si.
// Caller holds o.mu.
func (o *Owner) markTouched(si int) {
	if si < 64 {
		o.touched0 |= 1 << uint(si)
		return
	}
	o.touchedHi[(si>>6)-1] |= 1 << (uint(si) & 63)
}

// isTouched reports whether shard si's touched bit is set. Used by
// CheckInvariants (all latches held) to verify the bitmap is conservative:
// every shard hosting one of the owner's requests must be marked.
func (o *Owner) isTouched(si int) bool {
	if si < 64 {
		return o.touched0&(1<<uint(si)) != 0
	}
	return o.touchedHi[(si>>6)-1]&(1<<(uint(si)&63)) != 0
}

// tableFor returns the owner's per-table index for tid, or nil. Caller
// holds o.mu.
func (o *Owner) tableFor(tid uint32) *ownerTable {
	if o.ot0used && o.ot0tid == tid {
		return &o.ot0
	}
	return o.byTable[tid] // nil-map read is fine
}

// tableOrCreate returns the per-table index for tid, creating it in the
// inline slot or the spill map. Caller holds o.mu.
func (o *Owner) tableOrCreate(tid uint32) *ownerTable {
	if !o.ot0used {
		o.ot0used, o.ot0tid = true, tid
		return &o.ot0
	}
	if o.ot0tid == tid {
		return &o.ot0
	}
	if ot := o.byTable[tid]; ot != nil {
		return ot
	}
	if o.byTable == nil {
		o.byTable = make(map[uint32]*ownerTable)
	}
	var ot *ownerTable
	if n := len(o.otFree); n > 0 {
		ot = o.otFree[n-1]
		o.otFree[n-1] = nil
		o.otFree = o.otFree[:n-1]
	} else {
		ot = &ownerTable{}
	}
	o.byTable[tid] = ot
	return ot
}

// resetIndexes empties the owner's held and per-table indexes, keeping
// their spill storage — the held and row spill maps, the byTable map and
// its ownerTables — for the owner's next transaction. Caller holds o.mu
// or owns the owner exclusively.
func (o *Owner) resetIndexes() {
	o.held.reset()
	o.ot0used, o.ot0tid = false, 0
	o.ot0.reset()
	for tid, ot := range o.byTable {
		ot.reset()
		o.otFree = append(o.otFree, ot)
		delete(o.byTable, tid)
	}
}

// eachTable calls f for every per-table index until f returns false.
// Caller holds o.mu (or owns the owner exclusively).
func (o *Owner) eachTable(f func(uint32, *ownerTable) bool) {
	if o.ot0used {
		if !f(o.ot0tid, &o.ot0) {
			return
		}
	}
	for tid, ot := range o.byTable {
		if !f(tid, ot) {
			return
		}
	}
}

// touchedShards appends the owner's touched shard indexes, ascending.
// Caller holds o.mu (or owns the released owner).
func (o *Owner) touchedShards(buf []int) []int {
	word := o.touched0
	for word != 0 {
		b := bits.TrailingZeros64(word)
		buf = append(buf, b)
		word &^= 1 << uint(b)
	}
	for w, hi := range o.touchedHi {
		base := (w + 1) * 64
		for hi != 0 {
			b := bits.TrailingZeros64(hi)
			buf = append(buf, base+b)
			hi &^= 1 << uint(b)
		}
	}
	return buf
}

// heldSmallMax is the number of locks an owner indexes in the inline array
// before spilling to a map. Most OLTP transactions hold a handful of locks;
// a linear scan over ≤10 entries beats a Name-keyed map's hash+probe, and
// insert/delete become an append and a swap-remove. The size is a
// per-transaction memory trade: the inline array is the biggest field in
// Owner, and every commit allocates one.
const heldSmallMax = 10

type heldEntry struct {
	name Name
	req  *request
}

// heldSet indexes one owner's granted requests by name: a small array for
// the common case, spilling to a map once the owner exceeds heldSmallMax
// locks (it never shrinks back within a transaction). The zero value is
// ready to use. Guarded by the owner's mu like the map it replaces.
type heldSet struct {
	arr [heldSmallMax]heldEntry // inline: no allocation for small owners
	n   int
	m   map[Name]*request // nil until spill
	// spare is a cleared spill map kept across owner reuse (reset), so a
	// recycled owner that spills again allocates nothing.
	spare map[Name]*request
}

// spareMapMax bounds the spill maps an owner keeps across reuse: a map
// that grew past it (a bulk scan that never escalated) goes to the garbage
// collector instead of pinning its buckets in the owner pool.
const spareMapMax = 1024

func (hs *heldSet) get(name Name) (*request, bool) {
	if hs.m != nil {
		r, ok := hs.m[name]
		return r, ok
	}
	for i := 0; i < hs.n; i++ {
		if hs.arr[i].name == name {
			return hs.arr[i].req, true
		}
	}
	return nil, false
}

func (hs *heldSet) set(name Name, r *request) {
	if hs.m != nil {
		hs.m[name] = r
		return
	}
	for i := 0; i < hs.n; i++ {
		if hs.arr[i].name == name {
			hs.arr[i].req = r
			return
		}
	}
	if hs.n < heldSmallMax {
		hs.arr[hs.n] = heldEntry{name, r}
		hs.n++
		return
	}
	hs.m, hs.spare = hs.spare, nil
	if hs.m == nil {
		hs.m = make(map[Name]*request, 2*heldSmallMax)
	}
	for i := 0; i < hs.n; i++ {
		hs.m[hs.arr[i].name] = hs.arr[i].req
		hs.arr[i] = heldEntry{}
	}
	hs.n = 0
	hs.m[name] = r
}

// reset empties the set for the owner's next transaction, keeping a spill
// map (cleared) as the spare for the next spill.
func (hs *heldSet) reset() {
	if hs.m != nil {
		if len(hs.m) <= spareMapMax {
			clear(hs.m)
			hs.spare = hs.m
		}
		hs.m = nil
	}
	clear(hs.arr[:hs.n])
	hs.n = 0
}

func (hs *heldSet) del(name Name) {
	if hs.m != nil {
		delete(hs.m, name)
		return
	}
	for i := 0; i < hs.n; i++ {
		if hs.arr[i].name == name {
			hs.n--
			hs.arr[i] = hs.arr[hs.n]
			hs.arr[hs.n] = heldEntry{}
			return
		}
	}
}

// each calls f for every (name, request) pair. f must not mutate the set.
func (hs *heldSet) each(f func(Name, *request)) {
	if hs.m != nil {
		for n, r := range hs.m {
			f(n, r)
		}
		return
	}
	for i := 0; i < hs.n; i++ {
		f(hs.arr[i].name, hs.arr[i].req)
	}
}

// ID returns the owner (transaction) identifier.
func (o *Owner) ID() uint64 { return o.id }

// App returns the owning application.
func (o *Owner) App() *App { return o.app }

// rowsSmallMax is the number of row locks an ownerTable indexes inline
// before spilling to a map — the same small-case trick as heldSet, so a
// short transaction's per-table row index costs zero allocations.
const rowsSmallMax = 8

type rowEntry struct {
	row uint64
	r   *request
}

// ownerTable tracks one owner's locks on one table, for coverage checks and
// escalation victim selection. Entries are kept (empty) after their last
// lock is released so churning transactions reuse the index. Access only
// through the row methods; the representation spills from the inline array
// to a map past rowsSmallMax rows.
type ownerTable struct {
	tableReq   *request
	rowStructs int
	nRows      int
	rowsArr    [rowsSmallMax]rowEntry
	rowsMap    map[uint64]*request // nil until spill
	rowsSpare  map[uint64]*request // cleared spill map kept across reset
}

func (ot *ownerTable) rowCount() int {
	if ot.rowsMap != nil {
		return len(ot.rowsMap)
	}
	return ot.nRows
}

func (ot *ownerTable) getRow(row uint64) (*request, bool) {
	if ot.rowsMap != nil {
		r, ok := ot.rowsMap[row]
		return r, ok
	}
	for i := 0; i < ot.nRows; i++ {
		if ot.rowsArr[i].row == row {
			return ot.rowsArr[i].r, true
		}
	}
	return nil, false
}

func (ot *ownerTable) setRow(row uint64, r *request) {
	if ot.rowsMap != nil {
		ot.rowsMap[row] = r
		return
	}
	for i := 0; i < ot.nRows; i++ {
		if ot.rowsArr[i].row == row {
			ot.rowsArr[i].r = r
			return
		}
	}
	if ot.nRows < rowsSmallMax {
		ot.rowsArr[ot.nRows] = rowEntry{row, r}
		ot.nRows++
		return
	}
	ot.rowsMap, ot.rowsSpare = ot.rowsSpare, nil
	if ot.rowsMap == nil {
		ot.rowsMap = make(map[uint64]*request, 2*rowsSmallMax)
	}
	for i := 0; i < ot.nRows; i++ {
		ot.rowsMap[ot.rowsArr[i].row] = ot.rowsArr[i].r
		ot.rowsArr[i] = rowEntry{}
	}
	ot.nRows = 0
	ot.rowsMap[row] = r
}

func (ot *ownerTable) delRow(row uint64) {
	if ot.rowsMap != nil {
		delete(ot.rowsMap, row)
		return
	}
	for i := 0; i < ot.nRows; i++ {
		if ot.rowsArr[i].row == row {
			ot.nRows--
			ot.rowsArr[i] = ot.rowsArr[ot.nRows]
			ot.rowsArr[ot.nRows] = rowEntry{}
			return
		}
	}
}

// eachRow calls f for every (row, request) pair. f must not mutate the set.
func (ot *ownerTable) eachRow(f func(uint64, *request)) {
	if ot.rowsMap != nil {
		for row, r := range ot.rowsMap {
			f(row, r)
		}
		return
	}
	for i := 0; i < ot.nRows; i++ {
		f(ot.rowsArr[i].row, ot.rowsArr[i].r)
	}
}

// request is one (owner, name) lock request: granted or waiting.
type request struct {
	owner  *Owner
	header *lockHeader
	name   Name

	mode    Mode // granted mode, or requested mode while waiting
	convert Mode // conversion target while a granted request waits to convert

	weight int
	handle memblock.Handle

	granted    bool
	converting bool
	parked     bool // created but not yet started (escalation in progress)

	// culled marks a waiter held back by the admission throttle
	// (throttle.go): it is registered in the shard's waiting set (so
	// timeout, cancel, and abort sweeps find it) and stacked on its
	// header's culled LIFO, but holds no queue position, no lock
	// structures, and exports no deadlock-graph edges until reactivated.
	// culledPass stamps the SweepTimeouts pass at which it was culled;
	// the sweep's liveness valve force-reactivates stragglers whose
	// pass age says the active queue stopped draining (see
	// sweepCulled).
	culled     bool
	culledPass uint64

	pending  *Pending
	deadline time.Time
	onGrant  func(m *Manager)            // self-latching continuation, drained with no latches held
	onDeny   func(m *Manager, err error) // self-latching continuation, drained with no latches held

	// Observability stamps. waitStart is set (manager clock) when the
	// request enters a wait queue and cleared when the wait ends at
	// grant/deny — its difference feeds the lock-wait histogram.
	// grantedAt is a wall-clock stamp taken only for sampled requests
	// (obsSampled); it feeds the hold-time histogram at release.
	waitStart  time.Time
	grantedAt  time.Time
	obsSampled bool

	// fastLeased marks a grant admitted by the latch-free fast path: its
	// structures came from the home shard's fast credit (fastpath.go)
	// rather than a pool handle, so frees recredit fastFree instead of
	// freeing a handle. Guarded like granted (writers hold the home shard
	// latch or the header's lk bit, plus Owner.mu).
	fastLeased bool

	// Recycling state. box points back at the request's co-allocation so
	// ReleaseAll can return it to the box caches. escaped is set, stickily,
	// where the box's own Pending escapes the admitting goroutine: when
	// AcquireAsync hands it to a caller (the request waited or was
	// denied), and when the request enters the waiting set (a wait queue,
	// the culled stack, an escalation park), where other goroutines
	// complete its Pending and the deadlock detector's latch-free snapshot
	// may hold the *request across phases. A request granted before
	// AcquireAsync returns hands out the shared grantedSingleton instead,
	// so its box is referenced only by the lock table and its owner's
	// indexes: a box is recycled exactly when it never escaped.
	box     *requestAndPending
	escaped bool
}

// requestAndPending co-allocates a request with its Pending, so a request
// that waits costs a single heap object and its Pending lives exactly as
// long as the caller holds it. Boxes of requests that never waited are
// recycled (see request.escaped), so a steady workload without waits
// allocates none.
type requestAndPending struct {
	req  request
	pend Pending
}

// effectiveMode is the mode the request currently holds (for granted
// requests) or requests.
func (r *request) effectiveMode() Mode {
	if r.converting {
		return r.convert
	}
	return r.mode
}

// lockHeader is the lock table entry for one Name. The granted group is a
// single inline slot (g0) plus a lazily allocated overflow map: most locks
// have exactly one holder, and the inline slot spares that case a map
// assign+delete (and the iteration seeding of range-over-map) per
// acquire/release cycle.
type lockHeader struct {
	name       Name
	g0         *request            // single-holder fast slot
	gmap       map[*Owner]*request // overflow holders; nil until needed
	groupMode  Mode
	converters []*request // FIFO, priority over waiters
	waiters    []*request // FIFO

	// culled is the admission throttle's passive waiter stack (LIFO —
	// the most recently culled request reactivates first, Dice & Kogan's
	// cache-warm ordering). Culled requests hold no lock structures and
	// no FIFO queue position; they re-enter the admission pipeline via
	// reactivation continuations as the active queue drains (see
	// throttle.go). reactInFlight counts reactivations popped from the
	// stack whose continuations have not yet re-run admission, so one
	// drain cannot over-reactivate past the ceiling. Guarded by the
	// shard latch.
	culled        []*request
	reactInFlight int

	// postPending marks a header already appended to the current shard
	// visit's deferred posting list (grouprelease.go): when a flush leader
	// applies several owners' release batches under one latch hold, two
	// batches unlinking holders of the same header must queue it for the
	// FIFO posting pass exactly once. Guarded by the shard latch; always
	// false outside a latched release visit.
	postPending bool

	// word is the packed latch-free grant word (see fastpath.go); it is
	// meaningful only once published is set (latch-guarded) and the
	// header is installed in its shard's fastSlots. Published headers are
	// never recycled onto the header freelist and never evicted from the
	// table — an emptied one stays resident with an admitting word
	// (deferred reclamation), which is what keeps a hot key latch-free
	// across transactions.
	word      atomic.Uint64
	published bool

	// epoch is the 64-bit extension of the word's 11-bit settle seq: it is
	// bumped by every latched settle and by every fast-path admission of a
	// reader-invalidating mode (IX), and the word's seq field always equals
	// its low 11 bits (CheckInvariants enforces the identity). Optimistic
	// zero-CAS readers stamp their tokens with it and validate it unchanged
	// at release, so a seq wraparound (>2048 transitions inside one read
	// window) can never ABA a reader into a false validation — the 64-bit
	// epoch still differs even when the packed word is bit-identical. See
	// optimistic.go.
	epoch atomic.Uint64
}

// addGranted records r as a holder. Caller guarantees r's owner is not
// already in the granted group (re-requests go through conversion).
func (h *lockHeader) addGranted(r *request) {
	if h.g0 == nil {
		h.g0 = r
		return
	}
	if h.gmap == nil {
		h.gmap = make(map[*Owner]*request, 4)
	}
	h.gmap[r.owner] = r
}

// removeGranted drops o's granted request, if any.
func (h *lockHeader) removeGranted(o *Owner) {
	if h.g0 != nil && h.g0.owner == o {
		h.g0 = nil
		return
	}
	delete(h.gmap, o)
}

// getGranted returns o's granted request, or nil.
func (h *lockHeader) getGranted(o *Owner) *request {
	if h.g0 != nil && h.g0.owner == o {
		return h.g0
	}
	return h.gmap[o]
}

// grantedLen returns the number of holders.
func (h *lockHeader) grantedLen() int {
	n := len(h.gmap)
	if h.g0 != nil {
		n++
	}
	return n
}

// eachGranted calls f for every holder until f returns false.
func (h *lockHeader) eachGranted(f func(*request) bool) {
	if h.g0 != nil && !f(h.g0) {
		return
	}
	for _, g := range h.gmap {
		if !f(g) {
			return
		}
	}
}

func (h *lockHeader) recomputeGroupMode() {
	if len(h.gmap) == 0 {
		// Fast path: zero or one holder.
		if h.g0 != nil {
			h.groupMode = h.g0.mode
		} else {
			h.groupMode = ModeNone
		}
		return
	}
	mode := ModeNone
	if h.g0 != nil {
		mode = h.g0.mode
	}
	for _, g := range h.gmap {
		mode = Supremum(mode, g.mode)
	}
	h.groupMode = mode
}

func (h *lockHeader) empty() bool {
	return h.g0 == nil && len(h.gmap) == 0 && len(h.converters) == 0 &&
		len(h.waiters) == 0 && len(h.culled) == 0
}

// Stats is a snapshot of the manager's event counters.
type Stats struct {
	Grants               int64
	Waits                int64
	Timeouts             int64
	Deadlocks            int64
	Escalations          int64
	ExclusiveEscalations int64
	MemoryDenials        int64
	QuotaDenials         int64
	SyncGrowths          int64
	SyncGrowthPages      int64
}

// statCounters is the live, lock-free form of Stats.
type statCounters struct {
	grants               atomic.Int64
	waits                atomic.Int64
	timeouts             atomic.Int64
	deadlocks            atomic.Int64
	escalations          atomic.Int64
	exclusiveEscalations atomic.Int64
	memoryDenials        atomic.Int64
	quotaDenials         atomic.Int64
	syncGrowths          atomic.Int64
	syncGrowthPages      atomic.Int64
}

// headerFreelistCap bounds each shard's recycled lock-header stack.
const headerFreelistCap = 64

// boxFreelistCap bounds each shard's recycled request-box stack.
const boxFreelistCap = 64

// shard is one stripe of the lock table.
type shard struct {
	// mu is the shard latch: an adaptive spin-then-park latch
	// (internal/latch) whose per-shard spin budget is retuned from the
	// sampled hold times unlockShard feeds it. Acquire through lockShard
	// or tryLockShard (they run the profiler bookkeeping); raw
	// s.mu.Unlock() remains correct everywhere a paired unlockShard is
	// not wanted (runGlobal's descending sweep, deadlock validation).
	mu      latch.Latch
	idx     int // position in Manager.shards; set once at New
	table   map[Name]*lockHeader
	waiting map[*request]struct{}

	// Latch-profile sampling state, guarded by mu: latchTick advances on
	// every latched acquisition (lockShard and tryLockShard); when it
	// hits the sampling stride the acquisition stamps holdT0 and the
	// matching unlockShard records the hold time. Raw s.mu.Unlock()
	// sites (runGlobal's descending sweep) simply leave a stale stamp,
	// which the next stamped acquisition — lockShard or tryLockShard —
	// clears before anything reads it.
	latchTick uint64
	holdT0    time.Time
	pool      *memblock.Pool // lease cache; guarded by mu
	hfree     []*lockHeader  // recycled headers (with empty granted maps)

	// rfree is the shard's cache of recycled request+Pending boxes,
	// guarded by mu like hfree; boxes are pushed (zeroed) by ReleaseAll
	// and popped by the latched acquire path, so a steady commit workload
	// stops allocating per lock request. rfreeN mirrors len(rfree) so the
	// acquire path can take a box outside the latch (Manager.newBox) when
	// the cache is empty instead of inside the critical section.
	rfree  []*requestAndPending
	rfreeN atomic.Int32

	// Latch-free admission state (fastpath.go). fastSlots is the
	// published-header lookup array (slot = top hash bits); fastFree the
	// struct credit fast grants CAS against; fastOps the gate in-flight
	// counter runGlobal drains; fastPublishedN a latch-free hint that the
	// shard has any published headers at all (a zero short-circuits the
	// Release probe and credit refills). fastLease and fastLeaseTotal —
	// guarded by mu — hold the standing pool lease backing the credit:
	// fastLeaseTotal - fastFree is exactly the weight of in-flight
	// fast-leased grants homed here.
	fastSlots      [fastSlotsPerShard]atomic.Pointer[lockHeader]
	fastFree       atomic.Int64
	fastOps        atomic.Int64
	fastPublishedN atomic.Int32
	fastLease      memblock.Handle
	fastLeaseTotal int

	// Group-release staging (grouprelease.go). relHead is the MPSC list
	// of detached release batches published by committing owners on a
	// storming shard; relLen mirrors its length for the latch-free flush
	// triggers. A flush leader — elected by CAS on relFlush, or any
	// latched visitor finding the list non-empty — swaps the list out and
	// applies every staged batch in one latched section. relMu/relCond
	// park stagers that hit the high-water backpressure bound until the
	// next drain completes (relMu is never held together with the shard
	// latch).
	relHead  atomic.Pointer[releaseBatch]
	relLen   atomic.Int32
	relFlush atomic.Int32
	relMu    sync.Mutex
	relCond  *sync.Cond

	// relStorm is the shard's commit-storm arm (hysteresis for the group
	// stage). 0 means quiet: commits TryLock and apply directly, and only
	// a failed TryLock — real latch contention — arms the shard. While
	// armed, every commit visit stages its batch and yields briefly
	// before electing a leader, so concurrent committers coalesce into
	// one latched drain even when individual latched sections are too
	// short to collide. Multi-batch drains re-arm to relStormArm;
	// single-batch drains decay the arm by one, so a shard whose storm
	// has passed falls back to the direct path within a few visits.
	relStorm atomic.Int32

	// relInline is the drain scratch for the admission path's piggyback
	// drain (drainStagedInline). Latch-protected, like the table map, so
	// the per-acquire drain allocates nothing.
	relInline releaseDrain

	// seq stamps the shard's published summary: it is bumped (under mu)
	// whenever lock-table membership or wait-queue membership changes, so
	// latch-free observers can tell whether two reads straddled a
	// mutation. nLocks and nWaiting mirror len(table) and len(waiting)
	// for those same observers.
	seq      atomic.Uint64
	nLocks   atomic.Int64
	nWaiting atomic.Int64

	// Admission-throttle state (throttle.go). throtCeil is the shard's
	// live concurrency ceiling: 0 means disengaged (the admission path
	// pays exactly one relaxed atomic load and moves on — the quiet-lock
	// hysteresis ISSUE demands), > 0 caps any one header's active wait
	// queue at that many waiters, excess being culled. throtDepthHW is
	// the queue-depth high-water mark since the last retune window
	// (updated by enqueueWaiter with a CAS-max, swapped to 0 by
	// RetuneThrottle). The remaining fields are the controller's
	// between-window scratch, touched only by RetuneThrottle's single
	// caller (the STMM cadence): grants seen at the last window edge,
	// the previous window's throughput delta, and how many consecutive
	// quiet windows have passed (disengage hysteresis).
	throtCeil    atomic.Int32
	throtDepthHW atomic.Int32
	throtGrants  int64
	throtDelta   int64
	throtP99     int64
	throtDir     int
	throtQuiet   int
}

// addWaiting registers a queued request in the shard's waiting set and
// republishes the latch-free summary. Caller holds the shard latch.
func (s *shard) addWaiting(r *request) {
	s.waiting[r] = struct{}{}
	s.nWaiting.Store(int64(len(s.waiting)))
	s.seq.Add(1)
}

// delWaiting removes a request from the waiting set (no-op if absent) and
// republishes the latch-free summary. Caller holds the shard latch.
func (s *shard) delWaiting(r *request) {
	if _, ok := s.waiting[r]; !ok {
		return
	}
	delete(s.waiting, r)
	s.nWaiting.Store(int64(len(s.waiting)))
	s.seq.Add(1)
}

// popBox takes a recycled request box from the shard cache, or nil. Caller
// holds the shard latch. The box was zeroed when it was pushed.
func (s *shard) popBox() *requestAndPending {
	n := len(s.rfree)
	if n == 0 {
		return nil
	}
	b := s.rfree[n-1]
	s.rfree[n-1] = nil
	s.rfree = s.rfree[:n-1]
	s.rfreeN.Store(int32(len(s.rfree)))
	return b
}

// newBox returns a zeroed request box: a recycled one from fastBoxPool, or
// a fresh allocation. The latch-free grant path draws only from the pool;
// the latched path pops its shard's cache first and comes here when that
// is empty.
func (m *Manager) newBox() *requestAndPending {
	if b, _ := m.fastBoxPool.Get().(*requestAndPending); b != nil {
		return b
	}
	return &requestAndPending{}
}

// recycleBox zeroes a request box whose Pending never escaped and returns
// it to s's cache, or to fastBoxPool when the cache is full. Caller holds
// s's latch; s is the request's home shard.
func (m *Manager) recycleBox(s *shard, b *requestAndPending) {
	b.req = request{}
	b.pend.reset()
	if len(s.rfree) >= boxFreelistCap {
		m.fastBoxPool.Put(b)
		return
	}
	s.rfree = append(s.rfree, b)
	s.rfreeN.Store(int32(len(s.rfree)))
}

// Manager is the lock manager. All public methods are safe for concurrent
// use by distinct owners; a single owner's requests must come from one
// goroutine.
type Manager struct {
	chain *memblock.Chain
	clk   clock.Clock
	cfg   Config

	shards    []shard
	shardMask uint64

	// ownerPool recycles Owner structs handed back through FinishOwner.
	// Per-manager (not package-global) so a pooled owner's touchedHi spill
	// is always sized for this manager's shard count.
	ownerPool sync.Pool

	ownersMu sync.Mutex // registry of apps and owners
	apps     map[int]*App
	// owners is an intrusive doubly-linked list (head; regPrev/regNext in
	// Owner) rather than a map: registration and deregistration run once
	// per transaction on the commit path, and list splicing is two pointer
	// writes against a map's hash, probe, and bucket churn. Only
	// introspection iterates it.
	owners    *Owner
	nOwners   int
	nextApp   int
	nextOwner uint64
	numApps   atomic.Int64

	// Deferred grant/deny continuations (escalation steps). Each
	// continuation latches the shards it touches itself, so the queue is
	// enqueued anywhere and drained by flushConts with no latches held.
	contMu sync.Mutex
	conts  []func(*Manager)
	contN  atomic.Int64

	// Control-plane observability. globalRuns counts runGlobal entries —
	// all-shard latch acquisitions — and globalHold records the maximum
	// wall-clock time any single one held every latch: together they are
	// the evidence that steady-state detection and observation stay off
	// the global path, and the ceiling on the stall they cause when they
	// do not.
	globalRuns atomic.Int64
	globalHold metrics.MaxGauge

	// Cached lockPercentPerApplication for the fast admission path. The
	// cache holds Float64bits of the last quota percent read
	// (quotaPct) and the chain.Requests() value at which it should next
	// be refreshed (quotaNext); capacity changes force a refresh by
	// zeroing quotaNext. Staleness is bounded by quotaRefreshStride
	// requests — the same bounded-staleness contract as the paper's
	// QuotaTracker refresh period — and only affects the fast path: the
	// global admission pipeline always reads the provider fresh.
	quotaPct  atomic.Uint64
	quotaNext atomic.Int64

	// fastGate is the Dekker-style gate pairing the latch-free fast path
	// with runGlobal: fast ops bump their shard's fastOps counter before
	// reading the gate and back out if it is raised; runGlobal raises it,
	// takes every latch, then waits for the counters to drain — restoring
	// the "all latches held ⇒ world stopped" contract escalation and
	// CheckInvariants rely on. fastHits/fastFallbacks count grants
	// admitted without the latch vs. acquisitions that took the latched
	// path (the two partition all acquisitions).
	fastGate      atomic.Int64
	fastHits      *metrics.ShardCounters
	fastFallbacks *metrics.ShardCounters

	// optHits counts zero-CAS optimistic read tokens issued; optFailures
	// counts tokens that failed validation at release/commit (see
	// optimistic.go). Together with fastHits/fastFallbacks these partition
	// the read traffic: optHits + fastHits + fastFallbacks covers every
	// admission attempt, and optFailures / optHits is the invalidation
	// rate the workbench reports.
	optHits     *metrics.ShardCounters
	optFailures *metrics.ShardCounters

	// fastBoxPool holds the recycled request+Pending boxes that overflow
	// the shards' latched rfree caches. Boxes enter zeroed from ReleaseAll
	// (recycleBox: the box never escaped) and leave through newBox, which
	// serves the latch-free grant path and the latched path whenever its
	// shard cache is empty — one overflow for both, so neither mallocs
	// while spares exist.
	fastBoxPool sync.Pool

	// latchWaits counts contended shard-latch acquisitions; latchAcqs
	// counts every acquisition, contended or not — the direct evidence
	// that the commit fast path visits O(shards touched) rather than
	// 3×shards per transaction.
	latchWaits *metrics.ShardCounters
	latchAcqs  *metrics.ShardCounters

	// Group-release evidence (grouprelease.go). relBatches counts release
	// batches applied per shard (one per owner-visit, whether the owner
	// latched directly or a flush leader drained its staged batch);
	// wakesCoalesced counts FIFO grant wakeups whose Pending completion
	// was deferred out of the latched release section and fired in the
	// post-walk pass; flushWaits counts owner-visits that staged their
	// batch on a busy shard and waited for a leader instead of latching.
	// relBatches / commits is the combining factor; flushWaits > 0 proves
	// the staging path runs at all.
	relBatches     *metrics.ShardCounters
	wakesCoalesced *metrics.ShardCounters
	flushWaits     *metrics.ShardCounters

	// Admission-throttle evidence (throttle.go). throtCulled counts
	// waiters diverted into the passive culled set; throtReact counts
	// culled waiters fed back into the admission pipeline as the active
	// queue drained; throtDenied counts culled waiters denied in place
	// (timeout, cancel, abort, shutdown). Every culled waiter resolves
	// exactly one way, so culled == reactivated + denied + live-culled is
	// an invariant CheckInvariants enforces. throtDL receives one
	// decision record per ceiling adjustment (kind "throttle-tune");
	// sweepPass numbers SweepTimeouts passes for the culled-set liveness
	// valve.
	throtCulled *metrics.ShardCounters
	throtReact  *metrics.ShardCounters
	throtDenied *metrics.ShardCounters
	throtLive   atomic.Int64 // culled waiters currently parked
	throtDL     atomic.Pointer[obs.DecisionLog]
	sweepPass   atomic.Uint64

	// Latency histograms (lock-free; see internal/obs). waitHist records
	// every wait's duration on the manager's clock — deterministic under
	// the simulated clock — striped by home-shard index; releaseHist
	// records ReleaseAll durations the same way (striped by owner id),
	// sampled by relSampler so the commit fast path does not pay two
	// clock reads per transaction (the sampling counter is a
	// deterministic stride, so sim runs stay byte-reproducible). holdHist
	// and admitHist are wall-clock and recorded only for requests
	// admitted by obsSampler, keeping the hot path at one atomic add per
	// event.
	waitHist    *obs.Histogram
	holdHist    *obs.Histogram
	admitHist   *obs.Histogram
	releaseHist *obs.Histogram
	obsSampler  obs.Sampler
	relSampler  obs.Sampler

	// Contention profiler (profiler.go): the hot-lock blame sketch and
	// per-shard flight recorder run on the manager's clock and are on
	// unless Config.ProfileDisabled; the latch hold/wait profile is
	// wall-clock and additionally obeys ObsSampleStride < 0. All
	// nil-safe: a disabled profiler costs one predictable branch per
	// hook.
	hot             *obs.HotSketch[Name]
	latchProf       *obs.LatchProf
	flight          []flightRing
	latchSampleMask uint64

	stats statCounters
}

// defaultShards picks the shard count for Config.Shards == 0: enough
// stripes that GOMAXPROCS goroutines rarely collide, clamped to [8, 512].
func defaultShards() int {
	n := 4 * runtime.GOMAXPROCS(0)
	if n < 8 {
		n = 8
	}
	if n > 512 {
		n = 512
	}
	return nextPow2(n)
}

func nextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// New creates a lock manager with the given configuration.
func New(cfg Config) *Manager {
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	ns := cfg.Shards
	if ns <= 0 {
		ns = defaultShards()
	}
	if ns > 1024 {
		ns = 1024
	}
	ns = nextPow2(ns)
	m := &Manager{
		chain:          memblock.New(cfg.InitialPages),
		clk:            cfg.Clock,
		cfg:            cfg,
		shards:         make([]shard, ns),
		shardMask:      uint64(ns - 1),
		apps:           make(map[int]*App),
		latchWaits:     metrics.NewShardCounters("lock table latch waits", ns),
		latchAcqs:      metrics.NewShardCounters("lock table latch acquisitions", ns),
		fastHits:       metrics.NewShardCounters("fast-path grants", ns),
		fastFallbacks:  metrics.NewShardCounters("fast-path fallbacks", ns),
		optHits:        metrics.NewShardCounters("optimistic read tokens", ns),
		optFailures:    metrics.NewShardCounters("optimistic validation failures", ns),
		relBatches:     metrics.NewShardCounters("release batches applied", ns),
		wakesCoalesced: metrics.NewShardCounters("wakeups coalesced", ns),
		flushWaits:     metrics.NewShardCounters("flush follower waits", ns),
		throtCulled:    metrics.NewShardCounters("throttle culled waiters", ns),
		throtReact:     metrics.NewShardCounters("throttle reactivated waiters", ns),
		throtDenied:    metrics.NewShardCounters("throttle culled denials", ns),
	}
	stripes := ns
	if stripes > 64 {
		stripes = 64 // histograms mask the shard index into range
	}
	m.waitHist = obs.NewHistogram("lock_wait", "ns", stripes)
	m.holdHist = obs.NewHistogram("lock_hold", "ns", stripes)
	m.admitHist = obs.NewHistogram("lock_admission", "ns", stripes)
	m.releaseHist = obs.NewHistogram("lock_release", "ns", stripes)
	stride := cfg.ObsSampleStride
	if stride == 0 {
		stride = 64
	}
	if stride > 0 {
		m.obsSampler = obs.NewSampler(stride)
		// Releases are roughly 1/L as frequent as acquisitions (one per
		// transaction), so the release histogram samples more densely.
		rel := stride / 4
		if rel < 1 {
			rel = 1
		}
		m.relSampler = obs.NewSampler(rel)
	}
	for i := range m.shards {
		s := &m.shards[i]
		s.idx = i
		s.mu.Init()
		switch {
		case cfg.LatchSpin > 0:
			s.mu.SetFixedBudget(cfg.LatchSpin)
		case cfg.LatchSpin < 0:
			s.mu.SetFixedBudget(0)
		}
		s.table = make(map[Name]*lockHeader)
		s.waiting = make(map[*request]struct{})
		s.pool = m.chain.NewPool(cfg.LeaseChunk)
		s.relCond = sync.NewCond(&s.relMu)
		if cfg.Throttle > 0 {
			s.throtCeil.Store(int32(min(cfg.Throttle, throttleCeilMax)))
		}
	}
	m.initProfiler(cfg, ns, stride)
	return m
}

// hashName mixes a Name into a well-distributed 64-bit value
// (splitmix64-style finalizer).
func hashName(n Name) uint64 {
	x := n.Row*0x9E3779B97F4A7C15 ^ uint64(n.Table)*0xBF58476D1CE4E5B9 ^ uint64(n.Gran)<<56
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// shardOf returns the index of the shard owning name.
func (m *Manager) shardOf(name Name) int {
	return int(hashName(name) & m.shardMask)
}

// shardFor returns the shard owning name without latching it.
func (m *Manager) shardFor(name Name) *shard {
	return &m.shards[m.shardOf(name)]
}

// lockShard latches shard i, counting every acquisition (latchAcqs) and
// contended acquisitions (latchWaits) separately. The unconditional count
// is one uncontended atomic add on a shard-padded counter; it is what lets
// tests and benchmarks prove how many latches an operation really took.
func (m *Manager) lockShard(i int) *shard {
	s := &m.shards[i]
	m.latchAcqs.Shard(i).Inc()
	if lp := m.latchProf; lp != nil {
		// LockProfiled times only the contended path: the goroutine is
		// about to spin or park anyway, so the two clock reads are not
		// on any fast path.
		if waitNs, contended := s.mu.LockProfiled(); contended {
			m.latchWaits.Shard(i).Inc()
			lp.RecordWait(i, waitNs)
		}
	} else if s.mu.Lock() {
		m.latchWaits.Shard(i).Inc()
	}
	m.stampLatchAcquire(s)
	return s
}

// tryLockShard attempts shard i's latch without blocking. A successful
// attempt runs the same acquire-side bookkeeping as lockShard — the
// acquisition count and the sampled hold-stamp advance, which also clears
// any stale stamp a raw unlock left behind, so a TryLock'd visit can never
// attribute a bogus hold time to the profile (the manager.go:946 stale
// holdT0 hazard). A failed attempt is a contended acquire: the latch's own
// contended counter records it (the unified contention signal the spin
// controller and the commit-storm hysteresis share); latchWaits is not
// bumped because no acquisition happened.
func (m *Manager) tryLockShard(i int) (*shard, bool) {
	s := &m.shards[i]
	if !s.mu.TryLock() {
		return s, false
	}
	m.latchAcqs.Shard(i).Inc()
	m.stampLatchAcquire(s)
	return s, true
}

// stampLatchAcquire advances the sampled hold-time stamp under a
// just-taken shard latch: one-in-stride acquisitions stamp holdT0 for
// unlockShard to read; every other acquisition clears a stale stamp left
// by a raw unlock before anything could misread it.
func (m *Manager) stampLatchAcquire(s *shard) {
	if m.latchProf != nil {
		// The tick lives in the shard and advances under its latch — no
		// shared cache line.
		s.latchTick++
		if s.latchTick&m.latchSampleMask == 0 {
			s.holdT0 = time.Now()
		} else if !s.holdT0.IsZero() {
			s.holdT0 = time.Time{}
		}
	}
}

// unlockShard releases a latch taken by lockShard or tryLockShard,
// recording the sampled hold time when this acquisition was the
// one-in-stride stamped one — into the latch profile and, as the same
// sample, into the latch's own hold EWMA, which is what its adaptive spin
// budget retunes from. The paired form is diagnostics only: raw
// s.mu.Unlock() remains correct everywhere (the sample is simply dropped).
func (m *Manager) unlockShard(s *shard) {
	if lp := m.latchProf; lp != nil && !s.holdT0.IsZero() {
		ns := time.Since(s.holdT0).Nanoseconds()
		lp.RecordHold(s.idx, ns)
		s.mu.NoteHold(ns)
		s.holdT0 = time.Time{}
	}
	s.mu.Unlock()
}

// runGlobal executes f with every shard latch held (taken in ascending
// index order). It is the stop-the-world primitive the concurrent control
// plane works to avoid: every entry bumps GlobalRuns and its latches-held
// wall time feeds the GlobalHoldMax stall gauge, so callers are observable.
// Continuations are NOT drained here — they self-latch and must run with no
// latches held (flushConts).
func (m *Manager) runGlobal(f func()) {
	m.globalRuns.Add(1)
	// Raise the fast-path gate before latching, then drain in-flight fast
	// ops: a fast op bumps its shard's fastOps before reading the gate
	// (both seq-cst), so either it sees the raised gate and backs out, or
	// the drain below sees its count and waits. Ops seen here complete
	// without blocking on any latch (they take only their owner's mu and a
	// brief lk spin), so the drain terminates; ops arriving later observe
	// the gate and mutate nothing. After the drain, all latches held once
	// again means the whole table — grant words included — stands still.
	m.fastGate.Add(1)
	for i := range m.shards {
		m.lockShard(i)
	}
	for i := range m.shards {
		for m.shards[i].fastOps.Load() != 0 {
			runtime.Gosched()
		}
	}
	t0 := time.Now()
	f()
	m.globalHold.Observe(int64(time.Since(t0)))
	for i := len(m.shards) - 1; i >= 0; i-- {
		m.shards[i].mu.Unlock()
	}
	m.fastGate.Add(-1)
}

// GlobalRuns returns how many times the all-shard latch has been taken
// (runGlobal entries) since the manager was created. Steady-state
// control-plane operations — DetectDeadlocks, SweepTimeouts, Stats,
// ShardStatsSnapshot, DumpLocks — leave it unchanged; tests assert on that
// directly instead of relying on timing. Lock-free.
func (m *Manager) GlobalRuns() int64 { return m.globalRuns.Load() }

// GlobalHoldMax returns the maximum wall-clock duration any single
// all-shard critical section has held every latch — the worst fast-path
// stall the control plane has caused. Lock-free; Observe-only high
// watermark (it never decays).
func (m *Manager) GlobalHoldMax() time.Duration {
	return time.Duration(m.globalHold.Value())
}

// enqueueCont defers a continuation to the next global drain.
func (m *Manager) enqueueCont(f func(*Manager)) {
	m.contMu.Lock()
	m.conts = append(m.conts, f)
	m.contMu.Unlock()
	m.contN.Add(1)
}

// drainConts runs queued continuations FIFO until none remain. The caller
// must hold NO shard latches: continuations latch the shards they touch
// themselves (and may call runGlobal). Continuations may enqueue further
// continuations; the loop picks those up too. Concurrent drainers are safe
// — each continuation is popped, and therefore run, exactly once.
func (m *Manager) drainConts() {
	for m.contN.Load() > 0 {
		m.contMu.Lock()
		if len(m.conts) == 0 {
			m.contMu.Unlock()
			return
		}
		f := m.conts[0]
		m.conts = m.conts[1:]
		if len(m.conts) == 0 {
			m.conts = nil
		}
		m.contMu.Unlock()
		m.contN.Add(-1)
		f(m)
	}
}

// flushConts drains pending continuations, if any, with no latches held.
// Operations call it after releasing their shard latch(es); the atomic
// counter makes the common no-continuations case a single load. This used
// to enter global mode (runGlobal with an empty body) purely to get the
// continuations run under all latches — now that continuations self-latch,
// the drain costs only the shards each continuation actually touches.
func (m *Manager) flushConts() {
	if m.contN.Load() > 0 {
		m.drainConts()
	}
}

// RegisterApp adds a connected application.
func (m *Manager) RegisterApp() *App {
	m.ownersMu.Lock()
	defer m.ownersMu.Unlock()
	m.nextApp++
	a := &App{id: m.nextApp}
	m.apps[a.id] = a
	m.numApps.Add(1)
	return a
}

// UnregisterApp removes an application. The caller must have released all
// of its owners' locks first.
func (m *Manager) UnregisterApp(a *App) error {
	m.ownersMu.Lock()
	defer m.ownersMu.Unlock()
	if n := a.structs.Load(); n != 0 {
		return fmt.Errorf("lockmgr: app %d still holds %d lock structures", a.id, n)
	}
	if _, ok := m.apps[a.id]; ok {
		delete(m.apps, a.id)
		m.numApps.Add(-1)
	}
	return nil
}

// NumApps returns the number of connected applications — the
// num_applications input of minLockMemory. It is lock-free.
func (m *Manager) NumApps() int {
	return int(m.numApps.Load())
}

// NewOwner creates a lock owner (transaction) for an application.
func (m *Manager) NewOwner(a *App) *Owner {
	m.ownersMu.Lock()
	defer m.ownersMu.Unlock()
	m.nextOwner++
	o, _ := m.ownerPool.Get().(*Owner)
	if o == nil {
		o = &Owner{}
		if ns := len(m.shards); ns > 64 {
			o.touchedHi = make([]uint64, (ns+63)/64-1)
		}
	}
	o.id, o.app = m.nextOwner, a
	if m.owners != nil {
		m.owners.regPrev = o
	}
	o.regNext = m.owners
	m.owners = o
	m.nOwners++
	return o
}

// AcquireAsync requests a lock without blocking. weight is the number of
// lock structures the request consumes (1 for ordinary locks; bulk scans may
// lock contiguous row chunks that account as multiple structures).
//
// Pending contract: a request granted before AcquireAsync returns gets the
// shared, already-granted Pending — the same pointer for every such grant,
// read-only to callers — and costs no allocation once the box caches are
// warm. A request gets a Pending of its own only if it waits (the returned
// Pending is StatusWaiting and completes later) or is denied. Callers may
// keep any returned Pending for as long as they like, across the owner's
// ReleaseAll included.
func (m *Manager) AcquireAsync(o *Owner, name Name, mode Mode, weight int) *Pending {
	if !mode.Valid() || weight < 1 {
		p := newPending()
		p.complete(StatusDenied, fmt.Errorf("lockmgr: invalid request mode=%v weight=%d", mode, weight))
		return p
	}
	if name.Gran == GranTable && weight != 1 {
		p := newPending()
		p.complete(StatusDenied, errors.New("lockmgr: table locks have weight 1"))
		return p
	}
	// Admission-latency sampling: one in obsSampler.Stride() of each
	// owner's acquisitions pays for two time.Now calls; everything else
	// pays a plain owner-local increment (no shared sampler cacheline on
	// the per-grant path).
	var admit0 time.Time
	sampled := false
	if stride := uint64(m.obsSampler.Stride()); stride != 0 {
		o.obsTick++
		sampled = o.obsTick&(stride-1) == 0
	}
	if sampled {
		admit0 = time.Now()
	}
	hash := hashName(name)
	si := int(hash & m.shardMask)
	// Latch-free admission first: fast-eligible modes (IS/S/IX) try the
	// owner-local re-acquire cache and then a CAS on the published grant
	// word. A nil return means the attempt backed out having mutated
	// nothing; the request proceeds on the latched path below, which is
	// byte-for-byte the pre-fast-path pipeline plus a credit refill.
	if fastEligible(mode) {
		if p := m.tryFastAcquire(o, name, mode, weight, hash, si, sampled); p != nil {
			if sampled {
				m.admitHist.RecordStripe(si, time.Since(admit0).Nanoseconds())
			}
			return p
		}
	}
	m.fastFallbacks.Shard(si).Inc()
	// Attribute-only (zero blame): every latched acquisition lands here —
	// including modes the fast path never attempts — so charging blame per
	// fallback would let cold private keys churn the sketch's slots and
	// evict genuinely wait-blamed locks. A zero-score observation credits
	// the counter on already-tracked keys and is dropped otherwise, which
	// also keeps this hook allocation- and CAS-free.
	m.hot.Observe(si, name, 0, obs.HotFallbacks, 1)
	// The request and its Pending are one box, recycled once released
	// unless its Pending escaped (see request.escaped), so a steady commit
	// workload allocates none. The shard cache is only poppable under the
	// latch; when its latch-free mirror says it is empty, take a box from
	// the overflow pool (or allocate) before latching, keeping both out of
	// the critical section.
	var box *requestAndPending
	if m.shards[si].rfreeN.Load() == 0 {
		box = m.newBox()
	}
	s := m.lockShard(si)
	if box == nil {
		if box = s.popBox(); box == nil {
			box = m.newBox() // raced empty; rare
		}
	}
	req := &box.req
	req.owner = o
	req.name = name
	req.mode = mode
	req.weight = weight
	req.pending = &box.pend
	req.box = box
	req.obsSampled = sampled
	var p *Pending
	ok := m.startRequest(s, si, req, false)
	if ok {
		if s.fastPublishedN.Load() > 0 {
			// The shard serves fast-path traffic; top its credit up while
			// the latch is held. (Fast-path credit misses fall back to
			// exactly this path, so a dry shard self-heals here.)
			m.maybeRefillFastCredit(s)
		}
		p = m.handOut(s, req)
	}
	m.unlockShard(s)
	if !ok {
		// The fast path backed out (quota or lease shortfall) without
		// mutating anything; re-run the full admission pipeline with
		// every latch held. runGlobal survivor: quota growth, pool
		// repatriation, synchronous growth, and escalation all need a
		// consistent simultaneous view of every lease pool and the chain —
		// no per-shard protocol can decide "memory is truly exhausted".
		m.runGlobal(func() {
			if !m.startRequest(s, si, req, true) {
				panic("lockmgr: global admission deferred")
			}
			p = m.handOut(s, req)
		})
	}
	// req may be recycled (and reused by another goroutine) from here on:
	// touch only locals.
	m.flushConts() // escalation continuations run after the latches drop
	if sampled {
		m.admitHist.RecordStripe(si, time.Since(admit0).Nanoseconds())
	}
	return p
}

// handOut picks the Pending AcquireAsync returns for a request startRequest
// has just admitted. A request granted during admission — and never made
// visible to other goroutines — gets grantedSingleton; if it was not
// installed either (a covered row, an already strong enough hold, or a
// conversion completed in place), nothing references its box any more and
// the box is recycled at once. Any other request hands out its own Pending,
// which marks it escaped. Caller holds the request's home shard latch
// (every latch on the global path), so no other goroutine can have
// completed, released or recycled the request since startRequest.
func (m *Manager) handOut(s *shard, req *request) *Pending {
	p := &req.box.pend
	if req.escaped || Status(p.status.Load()) != StatusGranted {
		req.escaped = true
		return p
	}
	if !req.granted {
		m.recycleBox(s, req.box)
	}
	return grantedSingleton
}

// Acquire requests a lock and blocks until grant, denial, or ctx
// cancellation. On cancellation the request is withdrawn. It is
// AcquireAsync plus a wait under the same Pending contract: a request
// granted at once gets the shared granted Pending, so Acquire allocates
// nothing, and Acquire blocks only on a request's own Pending, which
// exists only if the request waited.
func (m *Manager) Acquire(ctx context.Context, o *Owner, name Name, mode Mode, weight int) error {
	p := m.AcquireAsync(o, name, mode, weight)
	if st, err := p.Status(); st != StatusWaiting {
		if st == StatusDenied {
			return err
		}
		return nil
	}
	select {
	case <-p.Done():
		_, err := p.Status()
		return err
	case <-ctx.Done():
		m.cancel(o, name)
		// The cancel may have raced with a grant; report the final state.
		if st, err := p.Status(); st == StatusDenied {
			return err
		}
		<-p.Done()
		_, err := p.Status()
		return err
	}
}

// startRequest runs the admission pipeline for a new or parked request:
// coverage, conversion, quota, allocation, grant-or-enqueue. s must be
// name's home shard and si its index. In fast mode (global == false) the
// caller holds only that latch; a false return means the request could not
// be admitted locally and nothing was mutated — the caller restarts it in
// global mode, where the caller holds every latch and startRequest always
// returns true.
func (m *Manager) startRequest(s *shard, si int, req *request, global bool) bool {
	o, name := req.owner, req.name
	req.parked = false

	// Staged group releases (grouprelease.go) are applied before this
	// request's conflict evaluation can observe them as conflicts, so no
	// waiter ever blocks behind — and no quota check ever charges for — a
	// lock whose release has committed. The drain piggybacks on the latch
	// the caller already holds, so every acquire that lands on a storming
	// shard is a free flush: the release side's latch acquisition is gone
	// entirely, not merely amortized. One predictable load when the list
	// is empty.
	if s.relHead.Load() != nil {
		m.drainStagedInline(s, si)
	}

	o.mu.Lock()
	if o.released {
		// Use-after-release: the transaction already committed or
		// aborted. Granting would leak a lock with no one to free it.
		// A parked request retried after release ends its wait here
		// (endWait settles the owner's inWait accounting; it is a no-op
		// for never-queued requests).
		o.mu.Unlock()
		m.endWait(req)
		req.pending.complete(StatusDenied,
			fmt.Errorf("lockmgr: owner %d already released", o.id))
		return true
	}
	// Touched-shard invariant: the bit is set before the request can be
	// granted, queued, or parked in this shard, so every request of a live
	// owner is homed in a touched shard and ReleaseAll need visit nothing
	// else. Marked even when the fast path backs out or the grant is
	// covered — conservative bits cost one latch at commit, never
	// correctness.
	o.markTouched(si)

	// Coverage: a table lock the owner already holds may subsume a row
	// request (notably right after this owner escalated). The table lock
	// may live in another shard; its owner-visible fields are stable
	// under o.mu.
	if name.Gran == GranRow {
		if ot := o.tableFor(name.Table); ot != nil && ot.tableReq != nil && ot.tableReq.granted &&
			!ot.tableReq.converting && covers(ot.tableReq.mode, req.mode) {
			o.mu.Unlock()
			m.grant(req)
			return true
		}
	}
	cur, isHeld := o.held.get(name)

	// Conversion: the owner already holds this lock. cur is homed in this
	// very shard, so its queue state is stable under the latch we hold.
	if isHeld && cur.granted {
		o.mu.Unlock()
		target := Supremum(cur.mode, req.mode)
		if target == cur.mode {
			m.grant(req) // already strong enough; nothing to do
			return true
		}
		if cur.converting {
			// One conversion at a time per lock keeps the protocol
			// simple; a second upgrade while one is in flight is a
			// transaction-layer bug.
			req.pending.complete(StatusDenied,
				fmt.Errorf("lockmgr: %v already converting", name))
			return true
		}
		m.startConversion(cur, target, req.pending, req.onGrant, req.onDeny)
		return true
	}

	// Saturation throttle (throttle.go): when the shard's concurrency
	// ceiling is engaged and this name's active wait queue has reached it,
	// divert the new waiter into the header's culled set instead of the
	// admission pipeline — it takes no quota, no structures, and no queue
	// position until the active queue drains. Checked before allocation so
	// a culled waiter is free to hold back; never applied to conversions
	// (they hold a grant the queue may be waiting behind). One atomic load
	// when the ceiling is disengaged.
	if !isHeld && s.throtCeil.Load() > 0 && m.maybeCull(s, si, req) {
		o.mu.Unlock()
		return true
	}

	if global {
		// The full admission pipeline may escalate, which re-enters this
		// owner's state (releaseGranted takes o.mu); drop o.mu first.
		o.mu.Unlock()
		// Every latch is held: apply all staged releases everywhere before
		// deciding that memory is truly exhausted — they are freeable
		// structs no escalation should have to reclaim.
		for i := range m.shards {
			if ss := &m.shards[i]; ss.relHead.Load() != nil {
				m.drainStagedInline(ss, i)
			}
		}
		switch m.admitStructsGlobal(req) {
		case admitDone:
			return true // pipeline completed the pending (denied/parked)
		default:
		}
		h := s.headerFor(name)
		m.sealFast(h)
		if len(h.converters) == 0 && len(h.waiters) == 0 && Compatible(req.mode, h.groupMode) {
			m.installGranted(h, req)
			m.settleFast(s, h)
			m.grant(req)
			return true
		}
		m.enqueueWaiter(s, si, h, req)
		return true
	}

	// Fast path: quota check and allocation touch only atomics and the
	// latched shard's lease pool, so o.mu stays held straight through the
	// grant — one critical section instead of two. On any obstacle, back
	// out with nothing mutated and let the caller go global.
	app := o.app
	if m.overQuotaFast(app, req.weight) {
		o.mu.Unlock()
		return false // quota growth/escalation needs all latches
	}
	hdl, ok := s.pool.Alloc(req.weight)
	if !ok {
		// The shard lease could not be refilled: free structures may be
		// stranded in other shards' pools, or memory is genuinely
		// exhausted. Either way the global path decides (flush, grow,
		// escalate).
		o.mu.Unlock()
		return false
	}
	req.handle = hdl
	app.structs.Add(int64(req.weight))
	h := s.headerFor(name)
	// Sealing under o.mu is deadlock-free: fast-path operations always take
	// o.mu *before* spinning for the word lock, and a word-lock holder never
	// blocks, so this spin terminates (see fastpath.go, "Lock ordering").
	m.sealFast(h)
	if len(h.converters) == 0 && len(h.waiters) == 0 && Compatible(req.mode, h.groupMode) {
		m.installGrantedLocked(h, req)
		m.settleFast(s, h)
		o.mu.Unlock()
		m.grant(req)
		return true
	}
	o.mu.Unlock()
	m.enqueueWaiter(s, si, h, req)
	return true
}

// testHookPreEnqueue, when non-nil, runs right before an admission
// enqueues a waiter or converter (shard latch held in fast mode, every
// latch in global mode; o.mu dropped) — inside the window between
// startRequest's entry drain and the waiting-set store. Tests use it to
// interleave a staged release into that window; always nil outside tests.
var testHookPreEnqueue func(m *Manager, si int)

// enqueueWaiter queues req on h's waiter list and registers it in the
// shard's waiting set. Caller holds the shard latch (and every other
// latch in global mode) but not o.mu.
//
// The staged-release re-check after the enqueue closes a lost-trigger
// race with the group-release walk (grouprelease.go): a batch staged
// during this latched section races its walk-end flush trigger against
// this enqueue — maybeFlushShard's nWaiting load can run before
// addWaiting's store and, with the list below the combining threshold,
// skip the flush, leaving this waiter blocked behind an already-committed
// release with no trigger left on a quiet shard. The accesses cross
// (stager: push relHead, then load nWaiting; here: store nWaiting, then
// load relHead — all sequentially consistent), so at least one side
// always observes the other: either the trigger sees the waiter and
// flushes, or the re-check sees the batch and drains it under the latch
// already held — symmetric with the entry check in startRequest.
func (m *Manager) enqueueWaiter(s *shard, si int, h *lockHeader, req *request) {
	if testHookPreEnqueue != nil {
		testHookPreEnqueue(m, si)
	}
	m.beginWait(req)
	h.waiters = append(h.waiters, req)
	req.header = h
	s.addWaiting(req)
	// Contention-profiler hooks: charge the enqueue and record the queue
	// depth high-water, then log the wait in the shard's flight ring. The
	// requester is about to park, so the Sprintf is off every fast path.
	depth := len(h.converters) + len(h.waiters)
	// The throttle controller's engage signal: track the deepest active
	// queue this shard saw since the last retune window (throttle.go).
	throtDepthMax(s, int32(depth))
	m.hot.Observe(si, h.name, hotEventBlameNs, obs.HotQueueMax, int64(depth))
	if m.flight != nil {
		m.flightAdd(si, flightRec{form: flightWait, app: req.owner.app.id,
			name: h.name, mode: req.mode, owner: req.owner.id, n: int64(depth)})
	}
	m.settleFast(s, h)
	if s.relHead.Load() != nil {
		m.drainStagedInline(s, si)
	}
}

// startConversion upgrades a granted request to target mode, waiting in the
// converter queue if incompatible holders exist. extra pending/handlers are
// attached to the conversion outcome. Caller holds cur's home shard latch.
func (m *Manager) startConversion(cur *request, target Mode, p *Pending, onGrant func(*Manager), onDeny func(*Manager, error)) {
	h := cur.header
	si := m.shardOf(cur.name)
	s := &m.shards[si]
	// A conversion mutates the granted group (mode change) or the converter
	// queue; either way the grant word must be fenced first so no fast CAS
	// admits against a stale group mode mid-conversion.
	m.sealFast(h)
	o := cur.owner
	o.mu.Lock()
	cur.converting = true
	cur.convert = target
	o.mu.Unlock()
	cur.pending = p
	cur.onGrant = onGrant
	cur.onDeny = onDeny
	if m.canConvert(cur, target) {
		m.finishConversion(cur, nil)
		m.settleFast(s, h)
		return
	}
	if testHookPreEnqueue != nil {
		testHookPreEnqueue(m, si)
	}
	m.beginWait(cur)
	h.converters = append(h.converters, cur)
	s.addWaiting(cur)
	// Same profiler hooks as enqueueWaiter, for the converter queue.
	depth := len(h.converters) + len(h.waiters)
	m.hot.Observe(si, h.name, hotEventBlameNs, obs.HotQueueMax, int64(depth))
	if m.flight != nil {
		m.flightAdd(si, flightRec{form: flightConvertWait, app: cur.owner.app.id,
			name: h.name, mode: target, owner: cur.owner.id, n: int64(depth)})
	}
	m.settleFast(s, h)
	// Same lost-trigger re-check as enqueueWaiter: a release staged during
	// this latched section may hold exactly the incompatible grant this
	// conversion is queued behind, and its walk-end trigger may have read
	// nWaiting before the addWaiting store above.
	if s.relHead.Load() != nil {
		m.drainStagedInline(s, si)
	}
}

// canConvert reports whether cur can convert to target given the other
// granted holders. Caller holds cur's home shard latch.
func (m *Manager) canConvert(cur *request, target Mode) bool {
	ok := true
	cur.header.eachGranted(func(g *request) bool {
		if g != cur && !Compatible(target, g.mode) {
			ok = false
			return false
		}
		return true
	})
	return ok
}

func (m *Manager) finishConversion(cur *request, d *releaseDrain) {
	o := cur.owner
	o.mu.Lock()
	cur.mode = cur.convert
	cur.converting = false
	cur.convert = ModeNone
	o.mu.Unlock()
	cur.header.recomputeGroupMode()
	m.grantDeferred(cur, d)
}

// admitResult is the outcome of the admission/allocation step.
type admitResult uint8

const (
	// admitOK — structures allocated; proceed to the lock table.
	admitOK admitResult = iota
	// admitDone — the pending was completed (denied) or the request was
	// parked behind an escalation; nothing further to do.
	admitDone
)

// admitStructsGlobal is the full admission pipeline — quota growth,
// escalation, pool repatriation, synchronous growth — run with every shard
// latch held. It never returns admitRetryGlobal.
func (m *Manager) admitStructsGlobal(req *request) admitResult {
	app := req.owner.app

	if over, quota := m.overQuota(app, req.weight); over {
		// MAXLOCKS trigger. The algorithm's goal is "to avoid lock
		// escalation at all times by adjusting the lock memory", so
		// before escalating, grow the lock memory until the quota —
		// a percentage of total capacity — accommodates the holder.
		// Applications that declared a preference for escalation skip
		// the growth and escalate directly.
		if m.cfg.GrowSync != nil && quota > 0 && !prefersEscalation(m.cfg.Quota, app.id) {
			needCap := int(float64(app.structs.Load()+int64(req.weight))*100/quota) + 1
			needBlocks := (needCap - m.chain.Capacity() + memblock.StructsPerBlock - 1) / memblock.StructsPerBlock
			if needBlocks > 0 {
				if granted := m.cfg.GrowSync(needBlocks * memblock.BlockPages); granted > 0 {
					m.chain.Grow(granted)
					m.noteSyncGrowth(granted)
				}
			}
			over, quota = m.overQuota(app, req.weight)
		}
		if over {
			// Growth is capped out (LMOmax or maxLockMemory):
			// escalate this application's largest table, then retry
			// the request.
			if m.escalate(req.owner, req) {
				return admitDone // parked behind the escalation
			}
			// Nothing to escalate: the request alone exceeds the quota.
			m.stats.quotaDenials.Add(1)
			if m.cfg.Events != nil {
				m.cfg.Events.OnDenial(app.id, ErrQuotaExceeded)
			}
			req.pending.complete(StatusDenied, fmt.Errorf("%w: %d structs held + %d requested > %.1f%% of %d",
				ErrQuotaExceeded, app.structs.Load(), req.weight, quota, m.chain.Capacity()))
			return admitDone
		}
	}

	// Repatriate per-shard leases before the allocation of last resort, so
	// structures idling in pools never masquerade as memory pressure.
	if m.chain.Unreserved() < req.weight {
		m.flushPools()
	}
	if h, err := m.chain.Alloc(req.weight); err == nil {
		req.handle = h
		app.structs.Add(int64(req.weight))
		return admitOK
	}

	// Memory exhausted: grow synchronously from overflow memory. Requests
	// are whole 128 KB blocks, at least one, matching the allocation unit.
	if m.cfg.GrowSync != nil {
		needStructs := req.weight - m.chain.FreeStructs()
		needBlocks := (needStructs + memblock.StructsPerBlock - 1) / memblock.StructsPerBlock
		needPages := needBlocks * memblock.BlockPages
		if granted := m.cfg.GrowSync(needPages); granted > 0 {
			m.chain.Grow(granted)
			m.noteSyncGrowth(granted)
			if h, err := m.chain.Alloc(req.weight); err == nil {
				req.handle = h
				app.structs.Add(int64(req.weight))
				return admitOK
			}
		}
	}

	// Still constrained: escalate to free structures.
	if m.escalate(req.owner, req) {
		return admitDone // parked; retried after the escalation completes
	}

	m.stats.memoryDenials.Add(1)
	if m.cfg.Events != nil {
		m.cfg.Events.OnDenial(app.id, ErrLockMemory)
	}
	req.pending.complete(StatusDenied, ErrLockMemory)
	return admitDone
}

func (m *Manager) noteSyncGrowth(pages int) {
	m.stats.syncGrowths.Add(1)
	m.stats.syncGrowthPages.Add(int64(pages))
	m.invalidateQuotaCache()
	if m.cfg.Events != nil {
		m.cfg.Events.OnSyncGrowth(pages)
	}
}

// flushPools returns every shard's lease to the chain. Idle fast credit is
// drained back into the pool first so it is repatriated too — fast credit
// must never masquerade as memory pressure. Caller holds all shard latches
// (runGlobal, so the fast-op gate is drained).
func (m *Manager) flushPools() {
	for i := range m.shards {
		s := &m.shards[i]
		m.drainFastCredit(s)
		s.pool.Flush()
	}
}

// overQuota reports whether adding weight structures would put the app above
// lockPercentPerApplication, and returns the quota used. It reads the
// provider fresh — and therefore pays the provider's synchronization — so it
// is reserved for the global admission pipeline and for applications with
// per-app quota bias; the fast path uses overQuotaFast.
func (m *Manager) overQuota(app *App, weight int) (bool, float64) {
	if m.cfg.Quota == nil {
		return false, 100
	}
	quota := m.cfg.Quota.QuotaPercent(app.id, m.chain.Requests(), m.chain.Used())
	limit := quota / 100 * float64(m.chain.Capacity())
	return float64(app.structs.Load()+int64(weight)) > limit, quota
}

// quotaRefreshStride is how many lock-structure requests may elapse between
// fast-path refreshes of the cached quota percent. The paper's own
// QuotaTracker already tolerates a refresh period of 128 requests, so a
// 64-request cache stride adds no staleness class the tuning loop does not
// already absorb; it removes the provider's mutex from the per-acquire path.
const quotaRefreshStride = 64

// overQuotaFast is the admission fast path's quota check: it consults a
// cached quota percent, refreshing from the provider only when
// chain.Requests() has advanced past the stride watermark (or after a
// capacity change zeroed the watermark). The limit itself is always
// computed against the live capacity, so resizes take effect immediately
// even between refreshes. Applications with a per-app escalation bias
// bypass the cache entirely — the cached percent is the unbiased value and
// would overstate their quota. A stale answer is never load-bearing: "over"
// merely diverts the request to the global pipeline, which re-reads the
// provider fresh, and "under" admits at most a stride's worth of requests
// against a quota the provider would already have let drift that long.
func (m *Manager) overQuotaFast(app *App, weight int) bool {
	q := m.cfg.Quota
	if q == nil {
		return false
	}
	if prefersEscalation(q, app.id) {
		over, _ := m.overQuota(app, weight)
		return over
	}
	reqs := m.chain.Requests()
	if reqs >= m.quotaNext.Load() {
		pct := q.QuotaPercent(app.id, reqs, m.chain.Used())
		m.quotaPct.Store(math.Float64bits(pct))
		m.quotaNext.Store(reqs + quotaRefreshStride)
	}
	quota := math.Float64frombits(m.quotaPct.Load())
	limit := quota / 100 * float64(m.chain.Capacity())
	return float64(app.structs.Load()+int64(weight)) > limit
}

// invalidateQuotaCache forces the next fast-path quota check to re-read the
// provider. Called whenever lock-memory capacity changes, since the
// provider's percent may be a function of capacity.
func (m *Manager) invalidateQuotaCache() {
	m.quotaNext.Store(0)
}

// headerFor returns (creating if necessary) the lock table entry for name,
// recycling headers from the shard's freelist. Caller holds the shard latch.
func (s *shard) headerFor(name Name) *lockHeader {
	h, ok := s.table[name]
	if !ok {
		if n := len(s.hfree); n > 0 {
			h = s.hfree[n-1]
			s.hfree[n-1] = nil
			s.hfree = s.hfree[:n-1]
			h.name = name
		} else {
			h = &lockHeader{name: name}
		}
		s.table[name] = h
		s.syncTableMirror()
	}
	return h
}

// installGranted records req as a granted holder of h. Caller holds the
// home shard latch.
func (m *Manager) installGranted(h *lockHeader, req *request) {
	o := req.owner
	o.mu.Lock()
	m.installGrantedLocked(h, req)
	o.mu.Unlock()
}

// installGrantedLocked is installGranted for callers already holding the
// owner's mutex (the fast acquire path). Caller holds the home shard latch
// and req.owner.mu.
func (m *Manager) installGrantedLocked(h *lockHeader, req *request) {
	req.header = h
	h.addGranted(req)
	h.groupMode = Supremum(h.groupMode, req.mode)
	o := req.owner
	req.granted = true
	o.held.set(req.name, req)
	ot := o.tableOrCreate(req.name.Table)
	if req.name.Gran == GranTable {
		ot.tableReq = req
	} else {
		ot.setRow(req.name.Row, req)
		ot.rowStructs += req.weight
	}
}

// grant completes req's pending as granted and queues its continuation (if
// any) for the next global drain. Covered and no-op grants hold no
// structures and are not registered in the lock table; they pass through
// here all the same.
func (m *Manager) grant(req *request) {
	m.grantDeferred(req, nil)
}

// grantDeferred is grant with the wake-side work optionally coalesced: with
// a non-nil drain the Pending completion (a channel close — a runtime
// wakeup) and the onGrant continuation are appended to the drain's wake
// list instead of firing under the latch; the release walk fires them in
// one pass after every latch has been dropped (fireWakes). Everything the
// lock-table invariants depend on — the grant install, the wait-histogram
// sample, the inWait decrement — still happens here, under the latch, so a
// stopped world never observes a granted request still counted as waiting.
func (m *Manager) grantDeferred(req *request, d *releaseDrain) {
	m.stats.grants.Add(1)
	if m.flight != nil && !req.waitStart.IsZero() {
		m.flightAdd(m.shardOf(req.name), flightRec{form: flightGrant, app: req.owner.app.id,
			name: req.name, mode: req.effectiveMode(), owner: req.owner.id,
			n: int64(m.clk.Now().Sub(req.waitStart))})
	}
	m.endWait(req)
	if req.obsSampled {
		req.grantedAt = time.Now()
	}
	p := req.pending
	og := req.onGrant
	req.pending = nil
	req.onGrant, req.onDeny = nil, nil
	if d != nil {
		if p != nil || og != nil {
			d.wakes = append(d.wakes, wakeEntry{p: p, og: og})
		}
		return
	}
	if p != nil {
		p.complete(StatusGranted, nil)
	}
	if og != nil {
		m.enqueueCont(og)
	}
}

// deny completes a waiting request with err, reverting conversions and
// freeing structures of never-granted requests. Caller holds the home shard
// latch.
func (m *Manager) deny(req *request, err error) {
	s := m.shardFor(req.name)
	s.delWaiting(req)
	m.endWait(req)
	if req.granted && !req.converting {
		// Defensive: the request was granted between being selected as
		// a victim and this call; there is nothing left to deny.
		return
	}
	h := req.header
	if h != nil {
		m.sealFast(h)
	}
	if req.converting {
		// Failed conversion: drop back to the original granted mode.
		for i, c := range h.converters {
			if c == req {
				h.converters = append(h.converters[:i], h.converters[i+1:]...)
				break
			}
		}
		o := req.owner
		o.mu.Lock()
		req.converting = false
		req.convert = ModeNone
		o.mu.Unlock()
		// The dead converter may have been the head of the priority
		// queue, blocking requests that are now grantable.
		m.post(s, h, nil)
	} else if req.culled {
		// Culled waiter (throttle.go): it holds no queue position and no
		// structures — unlink it from its header's culled stack and count
		// the denial, so the culled == reactivated + denied + live
		// identity CheckInvariants enforces stays exact. Removing it
		// unblocks nothing, but the header may now be empty.
		h.removeCulled(req)
		req.culled = false
		m.throtDenied.Shard(s.idx).Inc()
		m.throtLive.Add(-1)
		m.freeRequestStructs(s, req) // defensive: culled requests hold none
		s.cacheOrEvict(h)
	} else if h != nil {
		for i, w := range h.waiters {
			if w == req {
				h.waiters = append(h.waiters[:i], h.waiters[i+1:]...)
				break
			}
		}
		m.freeRequestStructs(s, req)
		// Likewise: an incompatible head waiter's removal can unblock
		// the requests queued behind it.
		m.post(s, h, nil)
		s.cacheOrEvict(h)
	} else {
		// Parked request: never entered a queue, but may hold structures
		// if it was parked after allocation (it is not today; keep the
		// accounting safe regardless).
		m.freeRequestStructs(s, req)
	}
	if h != nil {
		m.settleFast(s, h)
	}
	p := req.pending
	od := req.onDeny
	req.pending = nil
	req.onGrant, req.onDeny = nil, nil
	if p != nil {
		p.complete(StatusDenied, err)
	}
	if od != nil {
		m.enqueueCont(func(mm *Manager) { od(mm, err) })
	}
}

// freeRequestStructs returns req's structures to its home shard's lease
// pool. s must be req's home shard; the caller holds its latch.
func (m *Manager) freeRequestStructs(s *shard, req *request) {
	if req.fastLeased {
		// Fast-path grant: the structures were consumed from the shard's
		// fast credit, not its latched pool. Recredit them (the next fast
		// grant reuses the lease) and reverse the chain consumption.
		req.fastLeased = false
		s.fastFree.Add(int64(req.weight))
		m.chain.ReturnReserved(req.weight)
		req.owner.app.structs.Add(-int64(req.weight))
		return
	}
	if req.handle.Structs() > 0 {
		s.pool.Free(req.handle)
		req.owner.app.structs.Add(-int64(req.weight))
		req.handle = memblock.Handle{}
	}
}

// cacheOrEvict removes an empty header from the shard's table and recycles
// it on the bounded freelist (its emptied granted map is reused by the next
// header the shard creates). Caller holds the shard latch.
func (s *shard) cacheOrEvict(h *lockHeader) {
	if s.cacheOrEvictDeferred(h) {
		s.syncTableMirror()
	}
}

// cacheOrEvictDeferred is cacheOrEvict without the latch-free mirror
// update: the batch release path evicts several headers per shard visit
// and calls syncTableMirror once at the end. Returns whether the header
// was removed. Caller holds the shard latch and must sync the mirror
// before releasing it.
func (s *shard) cacheOrEvictDeferred(h *lockHeader) bool {
	if h == nil || h.published || !h.empty() || h.reactInFlight > 0 {
		// Published headers are never evicted or recycled: a fast op may
		// hold a slot-loaded pointer to one at any time, and keeping the
		// empty header resident (with an admitting all-zero grant word) is
		// exactly what keeps a hot key's grants latch-free across
		// transactions. Reclamation is deferred to Resize/slot pressure.
		// A header with reactivations in flight is likewise pinned: the
		// continuation decrements reactInFlight through req.header under
		// this latch (throttle.go), so the header must stay resident until
		// every popped culled waiter has re-entered admission.
		return false
	}
	delete(s.table, h.name)
	// Canonicalize before recycling (or dropping): settleFast on an evicted
	// header must see ModeNone and publish nothing.
	h.groupMode = ModeNone
	h.converters = nil
	h.waiters = nil
	h.culled = nil
	if len(s.hfree) < headerFreelistCap {
		s.hfree = append(s.hfree, h)
	}
	return true
}

// syncTableMirror refreshes the latch-free mirror of the shard's table
// size and bumps the fuzzy-read sequence. Caller holds the shard latch;
// CheckInvariants verifies the mirror is exact whenever no latch section
// is in flight.
func (s *shard) syncTableMirror() {
	s.nLocks.Store(int64(len(s.table)))
	s.seq.Add(1)
}

// post wakes queued requests on h after a release or conversion, in strict
// FIFO order: converters first, then waiters, stopping at the first
// incompatible request. s is h's shard; the caller holds its latch. A
// non-nil drain defers each grant's Pending completion to the post-walk
// wake pass (grantDeferred); the grant itself — queue removal, install,
// accounting — is still applied here, so FIFO order is decided under the
// latch and the deferred completions merely deliver it.
func (m *Manager) post(s *shard, h *lockHeader, d *releaseDrain) {
	m.postQueues(s, h, d)
	// Refill the active queue from the culled set once the grant pass has
	// drained what it can: every posting site — direct releases, denials,
	// and the group-release flush leader's deferred posting pass
	// (finishShardVisit) — feeds culled waiters back as headroom opens, so
	// reactivation piggybacks on the latches those paths already hold.
	if len(h.culled) != 0 {
		m.reactivateCulled(s, h)
	}
}

// postQueues is post's FIFO grant pass over the converter and waiter
// queues, stopping at the first incompatible request.
func (m *Manager) postQueues(s *shard, h *lockHeader, d *releaseDrain) {
	if len(h.converters) == 0 && len(h.waiters) == 0 {
		return
	}
	for len(h.converters) > 0 {
		c := h.converters[0]
		if !m.canConvert(c, c.convert) {
			return // converters have priority; nothing else may jump
		}
		h.converters = h.converters[1:]
		s.delWaiting(c)
		m.finishConversion(c, d)
	}
	for len(h.waiters) > 0 {
		w := h.waiters[0]
		if !Compatible(w.mode, h.groupMode) {
			return
		}
		h.waiters = h.waiters[1:]
		s.delWaiting(w)
		m.installGranted(h, w)
		m.grantDeferred(w, d)
	}
}

// releaseGranted removes a granted request from the lock table, frees its
// structures, and posts the queue. Caller holds the home shard latch.
func (m *Manager) releaseGranted(req *request) {
	s := m.shardFor(req.name)
	o := req.owner
	o.mu.Lock()
	m.releaseOwnerStateLocked(req)
	o.mu.Unlock()
	m.finishRelease(s, req)
}

// releaseOwnerStateLocked unlinks req from its owner's indexes. Caller
// holds the home shard latch and req.owner.mu.
func (m *Manager) releaseOwnerStateLocked(req *request) {
	o := req.owner
	o.held.del(req.name)
	if ot := o.tableFor(req.name.Table); ot != nil {
		if req.name.Gran == GranTable {
			ot.tableReq = nil
		} else {
			ot.delRow(req.name.Row)
			ot.rowStructs -= req.weight
		}
		// The (now possibly empty) ownerTable entry is kept: a
		// transaction cycling locks on the same table reuses it and its
		// row index instead of reallocating both every time.
	}
	req.granted = false
}

// finishRelease completes a release after the owner state is unlinked:
// lock-table removal, structure free, FIFO posting. s must be req's home
// shard; the caller holds its latch (and NOT req.owner.mu — posting may
// take other owners' mutexes).
func (m *Manager) finishRelease(s *shard, req *request) {
	if !req.grantedAt.IsZero() {
		held := time.Since(req.grantedAt).Nanoseconds()
		m.holdHist.RecordStripe(m.shardOf(req.name), held)
		req.grantedAt = time.Time{}
		if m.flight != nil {
			// Sampled (same 1/stride population as the hold histogram),
			// so the flight ring sees a representative release stream
			// without a record per commit.
			m.flightAdd(m.shardOf(req.name), flightRec{form: flightRelease, app: req.owner.app.id,
				name: req.name, mode: req.mode, owner: req.owner.id, n: held})
		}
	}
	h := req.header
	m.sealFast(h)
	h.removeGranted(req.owner)
	m.freeRequestStructs(s, req)
	h.recomputeGroupMode()
	m.post(s, h, nil)
	s.cacheOrEvict(h)
	m.settleFast(s, h)
}

// Release drops one granted lock, or cancels a waiting request for name.
// Strict 2PL callers use ReleaseAll instead; Release supports weaker
// isolation (e.g. cursor-stability read locks released at fetch).
func (m *Manager) Release(o *Owner, name Name) error {
	si := m.shardOf(name)
	// Symmetric fast path: a fast-granted IS/S/IX hold on a published
	// header releases by CAS decrement, deferring header reclamation to the
	// latched path (the emptied header stays resident and admitting).
	if m.shards[si].fastPublishedN.Load() > 0 && m.tryFastRelease(o, name, si) {
		return nil
	}
	s := m.lockShard(si)
	o.mu.Lock()
	req, ok := o.held.get(name)
	if !ok {
		o.mu.Unlock()
		m.unlockShard(s)
		return fmt.Errorf("lockmgr: owner %d does not hold %v", o.id, name)
	}
	if req.converting {
		// Rare path: withdraw the in-flight conversion first. deny and
		// releaseGranted take o.mu themselves.
		o.mu.Unlock()
		m.deny(req, ErrCanceled)
		m.releaseGranted(req)
		m.unlockShard(s)
		m.flushConts()
		return nil
	}
	m.releaseOwnerStateLocked(req)
	o.mu.Unlock()
	m.finishRelease(s, req)
	m.unlockShard(s)
	m.flushConts()
	return nil
}

// cancel withdraws a waiting request for name — a queued new request, a
// parked request, or an in-flight conversion (which reverts to its granted
// mode). When the home shard's published waiter count is zero there is
// nothing to withdraw and the latch is never taken: the canceling goroutine
// enqueued the request itself (program order), so if it were still waiting
// the nWaiting store would be visible; a zero means the request already
// left the queue (granted or denied) and the final state is readable from
// its Pending.
func (m *Manager) cancel(o *Owner, name Name) {
	si := m.shardOf(name)
	if m.shards[si].nWaiting.Load() == 0 {
		return
	}
	s := m.lockShard(si)
	for req := range s.waiting {
		if req.owner == o && req.name == name {
			m.deny(req, ErrCanceled)
			break
		}
	}
	m.unlockShard(s)
	m.flushConts()
}

// ReleaseAll releases every lock held or requested by the owner and removes
// the owner. Called at transaction commit or abort; calling it again is a
// no-op. This is the commit fast path: it visits only the owner's touched
// shards — O(locks held), not O(shards) — latching each exactly once, in
// ascending index order, and within each visit cancels the owner's waiting
// requests, then releases its row locks, then its table locks, posting each
// lock's FIFO queue as it goes.
//
// Ordering argument. Row-before-table release is preserved per shard; the
// global two-pass order the full sweep used to provide is unobservable once
// o.released is set: the owner issues no new requests (so its own coverage
// checks never run again), other owners' coverage checks read only their
// own byTable state, and escalation victim selection runs only for owners
// requesting locks. Invariant checks are order-independent — they hold at
// every latch release. TestReleaseOrderRowsBeforeTables pins the per-shard
// ordering choice.
//
// Concurrency. released is set under o.mu before the held set is read, so
// any concurrent admission either lands in the snapshot or is denied. If
// the owner has no requests in flight (inWait == 0 — see beginWait/endWait
// for the ordering proof), the snapshot is complete and only shards with
// held locks are visited, with no waiting-set scan at all. Otherwise every
// touched shard is visited and the held set is re-read under each shard's
// latch, so a wait granted between snapshot and visit is still found — in
// the shard's waiting set (denied) or in the re-read held set (released).
// Escalation continuations racing the walk are handled by per-request
// revalidation: a request is released only if it is still the owner's live
// entry for its name.
//
// Post-condition. When ReleaseAll returns, every request that was already
// waiting when it was called, behind a lock it released, has been granted
// (its Pending completed, its onGrant continuation queued) unless another
// holder or an earlier waiter still blocks it. A commit stages its batch
// for a flush leader (grouprelease.go) only on a shard with no waiters,
// where it can block no one queued.
func (m *Manager) ReleaseAll(o *Owner) {
	m.releaseAll(o, false)
}

// FinishOwner is ReleaseAll plus Owner recycling for callers that can
// guarantee exclusive ownership of o: no concurrent or later use of the
// pointer, by ReleaseAll or anything else. (The transaction layer
// qualifies — its state machine calls finish exactly once.) Owners whose
// requests ever waited are not recycled: a denial or grant continuation
// can still hold the pointer for a moment after the release completes, so
// those owners are left to the garbage collector. ReleaseAll itself keeps
// the stronger guarantee that duplicate concurrent calls are harmless.
//
// Pendings stay valid: the shared granted Pending of a synchronous grant
// is never reset, and a request's own Pending — which exists only if it
// waited or was denied — is never recycled, so callers may keep reading
// any Pending the owner was handed after FinishOwner returns. (The release
// walk, ReleaseAll's too, recycles the boxes of requests that never
// waited; no caller can tell, as those handed out only the shared
// Pending.)
func (m *Manager) FinishOwner(o *Owner) {
	m.releaseAll(o, true)
}

// releaseAll does the work; it reports whether this call performed the
// release (false when a racing ReleaseAll got there first). recycle is
// FinishOwner's exclusive-pointer promise: when set (and the owner never
// waited) the owner is pooled after its last staged batch is applied —
// by this call if none were staged, by the final flush leader otherwise.
func (m *Manager) releaseAll(o *Owner, recycle bool) bool {
	// Release-latency sampling: one in relSampler.Stride() commits pays
	// for the two clock reads bracketing the walk. The stride counter is
	// deterministic, so under the simulated clock the recorded series
	// stays byte-reproducible.
	sampled := m.relSampler.Tick()
	var t0 time.Time
	if sampled {
		t0 = m.clk.Now()
	}

	o.mu.Lock()
	if o.released {
		o.mu.Unlock()
		return false // double release: commit and abort already raced, no-op
	}
	o.released = true
	quiesced := o.inWait.Load() == 0

	// Snapshot (name, request, shard) triples, rows before tables. Names
	// are copied out of the held index — revalidation and shard routing
	// never dereference a request pointer that a concurrent continuation
	// might have released (and recycling might have rewritten). The batch,
	// the drain, and the staged-batch arsenal are all owner-embedded
	// scratch, so the steady-state commit walk allocates nothing and
	// touches no sync.Pool.
	batch := &o.walkBatch
	batch.reset()
	shards := o.touchedShards(batch.buf[:0])
	if quiesced {
		// Snapshot AND detach in one pass: from here on the batch (and
		// any per-shard staged copies of it) is the only path to these
		// requests, so flush leaders never touch the owner's indexes.
		// The walk holds one stagedRefs bias; it is dropped as the very
		// last step below, so a leader draining a staged batch early can
		// never tear the owner down under the walk. everWaited is stable
		// for a quiesced owner, so the recycle decision is final here.
		batch.collectDetach(m, o)
		o.stagedRefs.Store(1)
		o.recycleOnZero = recycle && !o.everWaited
		o.sbUsed = 0
	}
	o.mu.Unlock()

	drain := &o.drain
	for _, si := range shards {
		if quiesced && !batch.hasShard(si) {
			continue // nothing held there and no waits in flight
		}
		if quiesced {
			// Commit path: group release. The visit latches the shard
			// itself only when the latch is free; otherwise the batch is
			// staged on the shard's MPSC list for a flush leader to apply
			// together with every other committer's (grouprelease.go).
			m.releaseShardGrouped(si, o, batch, drain)
			continue
		}
		s := m.lockShard(si)
		// Abort path: withdraw this shard's waiting requests first
		// (queued waiters, parked requests, in-flight conversions —
		// a denied conversion reverts to its granted mode and is
		// then released below). Skipped entirely when the shard has
		// no waiters at all.
		if len(s.waiting) > 0 {
			var victims []*request
			for req := range s.waiting {
				if req.owner == o {
					victims = append(victims, req)
				}
			}
			for _, req := range victims {
				m.deny(req, ErrCanceled)
			}
		}
		// Re-read the held set for this shard: a wait granted after
		// the release flag was set landed here under this latch.
		batch.reset()
		o.mu.Lock()
		batch.collectShard(m, o, si)
		o.mu.Unlock()
		m.releaseShardPhase1(s, si, o, batch, false, drain)
		m.relBatches.Shard(si).Inc()
		m.finishShardVisit(s, si, drain)
		m.unlockShard(s)
	}
	// Flush triggers: the walk staged fire-and-forget batches on storming
	// shards; before letting go, elect this committer flush leader on any
	// touched shard whose staging list is due — enough batches for a
	// worthwhile combined drain, or waiters that must not be left behind
	// staged releases. The drained grants merge into this walk's wake
	// pass. Shards below both bars keep accumulating: the next commit,
	// the next conflicting acquire (which always flushes first), or an
	// invariant sweep picks them up.
	if quiesced {
		for _, si := range shards {
			m.maybeFlushShard(si, drain)
		}
	}
	batch.buf = shards[:0]
	batch.reset()

	// The single deferred wake pass: every FIFO grant the walk (and any
	// staged batches its shard visits drained) produced is completed here,
	// with no latches held — wake-side work never re-latches a shard the
	// walk already dropped. The owner-embedded drain is safe to use up to
	// this point: the walk's stagedRefs bias (dropped below, last) keeps
	// the owner from being recycled under it.
	m.fireWakes(drain)

	if sampled {
		m.releaseHist.RecordStripe(int(o.id), int64(m.clk.Now().Sub(t0)))
	}

	// Deregister: unlink from the owners list. Exactly one ReleaseAll
	// reaches this point per owner (the released flag gates the walk), so
	// the links are spliced once.
	m.ownersMu.Lock()
	if o.regPrev != nil {
		o.regPrev.regNext = o.regNext
	} else {
		m.owners = o.regNext
	}
	if o.regNext != nil {
		o.regNext.regPrev = o.regPrev
	}
	o.regPrev, o.regNext = nil, nil
	m.nOwners--
	lastOut := m.nOwners == 0
	m.ownersMu.Unlock()
	m.flushConts()
	if lastOut {
		// Last one out turns off the lights: with no owner left to commit
		// (and thus no future flush trigger), force-apply every staged
		// batch so an idle manager charges nothing for finished
		// transactions. New owners registering concurrently stage into
		// freshly observed lists and carry their own triggers.
		m.flushAllStaged(drain)
	}

	if quiesced {
		// Drop the walk's stagedRefs bias — the walk's very last touch of
		// the owner. If every staged batch has already been applied this
		// performs the teardown; otherwise the final flush leader does.
		m.dropStagedRef(o)
	} else if recycle && !o.everWaited {
		// Abort path never stages (and in practice never recycles — an
		// owner with waits in flight has everWaited set); kept for the
		// contract's sake.
		o.resetForReuse()
		m.ownerPool.Put(o)
	}
	return true
}

// resetForReuse returns the owner to its zero state (keeping the sized
// touchedHi spill and the index spill storage) so NewOwner can hand it to
// a fresh transaction. Index entries are cleared — a recycled owner must
// not pin dead requests.
func (o *Owner) resetForReuse() {
	o.app = nil
	o.resetIndexes()
	o.released = false
	o.touched0 = 0
	for i := range o.touchedHi {
		o.touchedHi[i] = 0
	}
	o.inWait.Store(0)
	o.obsTick = 0
	o.stagedRefs.Store(0)
	o.recycleOnZero = false
}

// reset clears a per-table index for owner reuse, keeping a spill map
// (cleared) as the spare for the next spill.
func (ot *ownerTable) reset() {
	ot.tableReq = nil
	ot.rowStructs = 0
	if ot.rowsMap != nil {
		if len(ot.rowsMap) <= spareMapMax {
			clear(ot.rowsMap)
			ot.rowsSpare = ot.rowsMap
		}
		ot.rowsMap = nil
	}
	clear(ot.rowsArr[:ot.nRows])
	ot.nRows = 0
}

// releaseEntry is one held lock queued for release: the name is a copy, so
// routing and revalidation are safe even if the request itself is released
// (and its box recycled) by a racing escalation continuation. The home
// shard is computed once at collect time.
type releaseEntry struct {
	name Name
	req  *request
	si   int
}

// releaseBatch snapshots an owner's held locks for the touched-shard
// release walk: two flat slices (rows, then tables — the pinned per-shard
// release order) plus a bitmap of the shards they live in. Batches are
// pooled and their slices keep their capacity across commits, so the
// steady-state walk allocates nothing.
type releaseBatch struct {
	rows   []releaseEntry
	tables []releaseEntry
	shards [maxShardWords]uint64
	buf    []int // scratch for touchedShards
	live   []*request

	// Staging fields (grouprelease.go). A commit visiting a storming
	// shard copies that shard's entries into a dedicated pooled batch and
	// publishes it on the shard's MPSC list — fire-and-forget: the
	// entries were already detached from the owner's indexes at collect
	// time, so the stager never touches the batch again and a flush
	// leader returns it to the pool after applying it. next links the
	// staging list: it is written before the publishing CAS and read only
	// after the leader's Swap, so it needs no atomicity of its own.
	next        *releaseBatch
	stagedOwner *Owner
	pooled      bool // from releaseBatchPool (vs owner arsenal): leader returns it
	stagedShard int
}

var releaseBatchPool = sync.Pool{New: func() any { return new(releaseBatch) }}

func (b *releaseBatch) reset() {
	b.rows = b.rows[:0]
	b.tables = b.tables[:0]
	b.shards = [maxShardWords]uint64{}
}

func (b *releaseBatch) add(si int, name Name, r *request) {
	if name.Gran == GranRow {
		b.rows = append(b.rows, releaseEntry{name, r, si})
	} else {
		b.tables = append(b.tables, releaseEntry{name, r, si})
	}
	b.shards[si>>6] |= 1 << (uint(si) & 63)
}

func (b *releaseBatch) hasShard(si int) bool {
	return b.shards[si>>6]&(1<<(uint(si)&63)) != 0
}

// collect buckets every held lock. Caller holds o.mu.
func (b *releaseBatch) collect(m *Manager, o *Owner) {
	o.held.each(func(name Name, r *request) {
		b.add(m.shardOf(name), name, r)
	})
}

// collectDetach buckets every held lock and then wipes the owner's held
// and per-table indexes wholesale. Caller holds o.mu and has proved the
// owner quiesced (released set, inWait == 0), so the snapshot is exact and
// nothing can repopulate the indexes. Detaching here — rather than under
// each shard latch during the walk — is what makes staged batches
// self-contained: a flush leader applying one touches the lock table, the
// request, and the app's atomic quota, but never the owner's indexes, so
// leaders on different shards can apply the same owner's batches
// concurrently. The requests stay granted (table truth is untouched until
// a latched drain applies the batch); only the owner-side view is gone.
func (b *releaseBatch) collectDetach(m *Manager, o *Owner) {
	b.collect(m, o)
	o.resetIndexes()
}

// collectShard buckets the held locks homed in shard si. Caller holds
// o.mu (and the shard latch, so the filtered view stays accurate).
func (b *releaseBatch) collectShard(m *Manager, o *Owner, si int) {
	o.held.each(func(name Name, r *request) {
		if m.shardOf(name) == si {
			b.add(si, name, r)
		}
	})
}

// releaseShardPhase1 releases one shard's share of the batch: revalidate
// and unlink every entry in a single o.mu critical section (rows first,
// then tables — the pinned order), then unlink each release from the lock
// table, free its structures, and recycle the boxes of committed blocking
// acquires into the shard's cache. Headers that still need a FIFO posting
// pass, the pooled frees awaiting one SettleFree, and the fast credit
// awaiting one recredit accumulate into the drain: the caller finishes the
// visit — settle once, post once — with finishShardVisit, after applying
// every batch it means to (its own plus any staged by other committers).
// Caller holds the shard latch.
//
// frozen says the caller proved the owner's held set can no longer change
// concurrently (the quiesced commit path: released was set under o.mu with
// inWait == 0, so any in-flight admission is denied before touching held,
// and no waits or escalation continuations exist to complete). Frozen
// batches were also detached from the owner's indexes at collect time
// (collectDetach), so the frozen walk touches only the requests, the lock
// table, and the app's atomic quota — never o.mu or the held index. That
// is what lets flush leaders on different shards apply the same owner's
// staged batches concurrently: each request lives in exactly one batch,
// and everything a leader touches is either request-local or guarded by
// the latch it holds. The abort path (waits in flight) passes frozen=false
// and pays o.mu plus pointer revalidation.
func (m *Manager) releaseShardPhase1(s *shard, si int, o *Owner, b *releaseBatch, frozen bool, d *releaseDrain) {
	live := b.live[:0]
	if !frozen {
		o.mu.Lock()
	}
	for _, lst := range [2][]releaseEntry{b.rows, b.tables} {
		for _, e := range lst {
			if e.si != si {
				continue
			}
			if !frozen {
				// Revalidate under latch + o.mu: an escalation
				// continuation may have released this entry since the
				// snapshot. Pointer identity against the live held index
				// decides; only a match proves e.req is still this
				// owner's request (and therefore not recycled), making
				// its fields safe to touch.
				if cur, ok := o.held.get(e.name); !ok || cur != e.req || !e.req.granted {
					continue
				}
				m.releaseOwnerStateLocked(e.req)
			} else {
				// Frozen batches were detached from the owner's indexes
				// at collect time (collectDetach); only the table-facing
				// grant flag remains to clear, under this latch, together
				// with the removeGranted below.
				e.req.granted = false
			}
			live = append(live, e.req)
		}
	}
	if !frozen {
		o.mu.Unlock()
	}
	// Unlink every released request from the lock table and return its
	// structures to the shard pool, accumulating the chain and app
	// accounting instead of paying an atomic per lock. Within one batch
	// headers are distinct (one request per name per owner), but a leader
	// draining several batches can meet the same header again — the
	// postPending flag queues it for the posting pass exactly once. A
	// published queue-free header is settled immediately after its unlink —
	// post would be a no-op and cacheOrEvictDeferred keeps it resident
	// regardless — so the hot headers of a fast-path workload are fenced
	// for one holder removal, not the whole batch. (The word reopens before
	// the accounting below lands; a racing fast grant that sees the stale
	// credit or quota merely falls back.) Everything else — headers with
	// queues (fenced anyway) and unpublished headers (not fast-reachable) —
	// defers to the visit's posting pass.
	poolFreed, weightFreed, fastFreed := 0, 0, 0
	for _, r := range live {
		if !r.grantedAt.IsZero() {
			m.holdHist.RecordStripe(m.shardOf(r.name), time.Since(r.grantedAt).Nanoseconds())
			r.grantedAt = time.Time{}
		}
		h := r.header
		w, open := m.sealFastWord(h)
		h.removeGranted(r.owner)
		if r.fastLeased {
			// Fast-path grant released at commit: recredit the shard's
			// fast-free balance instead of the latched pool.
			r.fastLeased = false
			fastFreed += r.weight
			weightFreed += r.weight
		} else if r.handle.Structs() > 0 {
			poolFreed += s.pool.FreeBatched(r.handle)
			weightFreed += r.weight
			r.handle = memblock.Handle{}
		}
		if open {
			// The seal caught a live word, so its counts are exactly the
			// pre-release granted group (and r — a granted holder of such a
			// header — is a non-converting IS/S/IX grant represented in
			// them): settle the removal with O(1) word arithmetic instead
			// of an O(holders) chain recompute. Releasing a compatible
			// holder is never an invalidating transition, so the epoch
			// (and with it the word seq — wordSub preserves the seq
			// bits) bumps only when the settled word still carries IX
			// weight and thus is not S-token-admissible; an S/IS-only
			// settle leaves outstanding optimistic tokens standing.
			nw := wordSub(w&^wordFence, r.mode)
			if (nw>>wordNIXShift)&wordCntMask != 0 {
				e := h.epoch.Add(1)
				nw = nw&^(wordSeqMask<<wordSeqShift) | (e&wordSeqMask)<<wordSeqShift
			}
			h.groupMode = Mode((nw >> wordGMShift) & wordGMMask)
			h.word.Store(nw)
			continue
		}
		h.recomputeGroupMode()
		if h.published && len(h.converters) == 0 && len(h.waiters) == 0 && len(h.culled) == 0 {
			m.settleFast(s, h)
		} else if !h.postPending {
			h.postPending = true
			d.hdrs = append(d.hdrs, h)
		}
	}
	d.poolFreed += poolFreed
	d.fastFreed += fastFreed
	// App quota settles per batch (each batch has its own application);
	// chain and pool totals settle once per visit in finishShardVisit.
	if weightFreed > 0 {
		o.app.structs.Add(-int64(weightFreed))
	}
	// Box recycling: live requests are fully unlinked, and one that never
	// escaped was never queued (so the posting pass cannot reference it)
	// and never handed its Pending out — recycle before the drain moves on
	// to the next batch.
	for _, r := range live {
		if !r.escaped {
			m.recycleBox(s, r.box)
		}
	}
	b.live = live[:0]
}

// finishShardVisit completes a latched release visit after every batch —
// the caller's own and any staged ones — has gone through
// releaseShardPhase1: settle the pooled frees and fast credit once, run the
// FIFO posting pass over the deferred headers (grant completions coalesce
// into the drain's wake list), and sync the table mirror once. Caller holds
// the shard latch and drops it right after; the wakes fire later, with no
// latches held (fireWakes).
func (m *Manager) finishShardVisit(s *shard, si int, d *releaseDrain) {
	// Settle accounting before posting: a grant fired by post reads the
	// app quota and chain usage, and must see the whole release.
	s.pool.SettleFree(d.poolFreed)
	if d.fastFreed > 0 {
		s.fastFree.Add(int64(d.fastFreed))
		m.chain.ReturnReserved(d.fastFreed)
	}
	evicted := false
	wakes0 := len(d.wakes)
	for _, h := range d.hdrs {
		h.postPending = false
		m.post(s, h, d)
		evicted = s.cacheOrEvictDeferred(h) || evicted
		m.settleFast(s, h)
	}
	if evicted {
		s.syncTableMirror()
	}
	if n := len(d.wakes) - wakes0; n > 0 {
		m.wakesCoalesced.Shard(si).Add(int64(n))
	}
	d.hdrs = d.hdrs[:0]
	d.poolFreed, d.fastFreed = 0, 0
}

// deadline computes the wait deadline for a new waiter.
func (m *Manager) deadline() time.Time {
	if m.cfg.LockTimeout <= 0 {
		return time.Time{}
	}
	return m.clk.Now().Add(m.cfg.LockTimeout)
}

// beginWait stamps a request entering a wait queue: the timeout deadline,
// the wait-start instant (manager clock, so simulated runs record
// deterministic wait durations), and the waits counter. It also marks the
// request escaped (excluding it from box recycling) and counts it in
// the owner's inWait gauge — exactly once, even if the request re-waits
// after being parked (the non-zero waitStart dedupes). The caller holds
// the home shard latch and appends the request to the waiter/converter
// queue itself.
func (m *Manager) beginWait(req *request) {
	now := m.clk.Now()
	req.escaped = true
	req.owner.everWaited = true
	if req.waitStart.IsZero() {
		req.owner.inWait.Add(1)
	}
	req.waitStart = now
	if m.cfg.LockTimeout > 0 {
		req.deadline = now.Add(m.cfg.LockTimeout)
	} else {
		req.deadline = time.Time{}
	}
	m.stats.waits.Add(1)
}

// endWait records a completed wait (grant or deny) into the lock-wait
// histogram, striped by the request's home shard, and drops the owner's
// inWait count. One branch on the no-wait fast path, one atomic add when a
// wait actually ended. For grants it runs after installGranted, so an
// owner observing inWait == 0 under its mutex sees every granted request
// already in its held index.
func (m *Manager) endWait(req *request) {
	if req.waitStart.IsZero() {
		return
	}
	d := m.clk.Now().Sub(req.waitStart)
	req.waitStart = time.Time{}
	si := m.shardOf(req.name)
	m.waitHist.RecordStripe(si, int64(d))
	// Blame the lock for the whole wait (manager clock — deterministic
	// under the simulated clock). Nil-safe no-op when the profiler is off.
	m.hot.Observe(si, req.name, int64(d), obs.HotWaitNs, int64(d))
	req.owner.inWait.Add(-1)
}

// SweepTimeouts denies waiting requests whose deadline has passed and
// returns how many were denied. The simulation calls this each tick; a
// real-time deployment calls it from a ticker goroutine. Each shard is
// swept independently.
func (m *Manager) SweepTimeouts() int {
	// The sweep doubles as the culled set's liveness valve (throttle.go):
	// even with timeouts disabled, a pass must number itself and visit
	// shards whose culled waiters have stopped draining, so a culled
	// waiter whose progress depends on the deadlock detector regains its
	// wait-graph edges within a bounded number of passes.
	pass := m.sweepPass.Add(1)
	timeouts := m.cfg.LockTimeout > 0
	if !timeouts && m.throtLive.Load() == 0 {
		// Timeouts disabled and no culled waiters parked anywhere: the
		// sweep has nothing to do and takes no latches.
		return 0
	}
	now := m.clk.Now()
	denied := 0
	for i := range m.shards {
		// Idle-shard skip: the nWaiting mirror is published on every
		// wait-queue membership change, so a zero means the shard had no
		// waiters at some instant between the previous sweep and this one
		// — exactly the fuzziness a periodic sweep already tolerates. The
		// latch is never taken; an idle lock table sweeps with zero latch
		// acquisitions. Culled waiters live in the same set, so a shard
		// with any culled work is never skipped.
		if m.shards[i].nWaiting.Load() == 0 {
			continue
		}
		s := m.lockShard(i)
		var victims []*request
		var stale []*lockHeader
		for req := range s.waiting {
			if timeouts && !req.deadline.IsZero() && now.After(req.deadline) {
				victims = append(victims, req)
			}
			if req.culled && pass-req.culledPass >= 2 && req.header != nil {
				stale = appendHeaderOnce(stale, req.header)
			}
		}
		for _, req := range victims {
			// An earlier denial's queue post may have granted this one.
			if req.pending == nil {
				continue
			}
			if st, _ := req.pending.Status(); st != StatusWaiting {
				continue
			}
			m.stats.timeouts.Add(1)
			if m.cfg.Events != nil {
				m.cfg.Events.OnTimeout(req.owner.app.id)
			}
			m.deny(req, ErrTimeout)
			denied++
		}
		m.sweepCulled(s, stale)
		m.unlockShard(s)
	}
	m.flushConts()
	return denied
}

// Resize grows or shrinks the lock memory toward targetPages. Growth is
// exact (whole blocks); shrinking is best-effort, limited to entirely free
// blocks, per the section 2.2 protocol — shard leases are flushed first so
// idle pool reservations never pin blocks against the tuner. It returns the
// new size in pages.
func (m *Manager) Resize(targetPages int) int {
	cur := m.chain.Pages()
	switch {
	case targetPages > cur:
		m.chain.Grow(targetPages - cur)
	case targetPages < cur:
		// Flush each shard's lease under its latch, then shrink. Idle fast
		// credit is drained first (the Swap is safe against concurrent fast
		// ops — a racing CAS observes zero and falls back to the latched
		// path). A pool may re-lease between its flush and the shrink;
		// ShrinkBest is best-effort either way.
		for i := range m.shards {
			s := m.lockShard(i)
			m.drainFastCredit(s)
			s.pool.Flush()
			m.unlockShard(s)
		}
		m.chain.ShrinkBest(cur - targetPages)
	}
	m.invalidateQuotaCache()
	return m.chain.Pages()
}

// GrowPages grows the lock memory by exactly the given pages (rounded up to
// blocks); used when synchronous growth is managed externally.
func (m *Manager) GrowPages(pages int) int {
	n := m.chain.Grow(pages)
	m.invalidateQuotaCache()
	return n
}

// Pages returns the current lock memory size in pages. Lock-free.
func (m *Manager) Pages() int { return m.chain.Pages() }

// UsedStructs returns the lock structures in use. Lock-free; structures
// leased to shard pools but not serving a request count as free.
func (m *Manager) UsedStructs() int { return m.chain.Used() }

// CapacityStructs returns the lock structures the allocation can hold.
// Lock-free.
func (m *Manager) CapacityStructs() int { return m.chain.Capacity() }

// FreeStructs returns the lock structures not serving a request, including
// those leased to shard pools. UsedStructs + FreeStructs ==
// CapacityStructs holds at all times. Lock-free.
func (m *Manager) FreeStructs() int { return m.chain.FreeStructs() }

// FreeFraction returns the fraction of lock structures that are free.
// Lock-free.
func (m *Manager) FreeFraction() float64 { return m.chain.FreeFraction() }

// StructRequests returns the cumulative lock-structure request count.
// Lock-free.
func (m *Manager) StructRequests() int64 { return m.chain.Requests() }

// UsedPages returns lock-structure usage in whole pages. Lock-free.
func (m *Manager) UsedPages() int { return m.chain.UsedPages() }

// AppStructs returns the lock structures currently held by an application.
// Lock-free.
func (m *Manager) AppStructs(a *App) int {
	return int(a.structs.Load())
}

// Stats returns a snapshot of the event counters. Lock-free: the snapshot
// is not a single atomic cut across counters, which monitoring tolerates.
func (m *Manager) Stats() Stats {
	return Stats{
		Grants:               m.stats.grants.Load(),
		Waits:                m.stats.waits.Load(),
		Timeouts:             m.stats.timeouts.Load(),
		Deadlocks:            m.stats.deadlocks.Load(),
		Escalations:          m.stats.escalations.Load(),
		ExclusiveEscalations: m.stats.exclusiveEscalations.Load(),
		MemoryDenials:        m.stats.memoryDenials.Load(),
		QuotaDenials:         m.stats.quotaDenials.Load(),
		SyncGrowths:          m.stats.syncGrowths.Load(),
		SyncGrowthPages:      m.stats.syncGrowthPages.Load(),
	}
}

// HeldMode returns the mode the owner currently holds on name, or ModeNone.
func (m *Manager) HeldMode(o *Owner, name Name) Mode {
	s := m.lockShard(m.shardOf(name))
	defer m.unlockShard(s)
	o.mu.Lock()
	req, ok := o.held.get(name)
	o.mu.Unlock()
	if ok && req.granted {
		return req.mode
	}
	return ModeNone
}

// NumShards returns the number of lock-table shards.
func (m *Manager) NumShards() int { return len(m.shards) }

// ShardOf returns the index of the shard that homes name. Workload
// generators and benchmarks use it to build shard-targeted access patterns
// (e.g. a commit storm confined to a few hot shards); it takes no latches.
func (m *Manager) ShardOf(name Name) int { return m.shardOf(name) }

// LatchWaits returns the total number of contended shard-latch
// acquisitions — the direct measure of lock-table latch contention the
// striping is meant to eliminate. Lock-free.
func (m *Manager) LatchWaits() int64 { return m.latchWaits.Total() }

// LatchWaitCounters exposes the per-shard latch-wait counters for metrics
// wiring.
func (m *Manager) LatchWaitCounters() *metrics.ShardCounters { return m.latchWaits }

// LatchAcquisitions returns the total number of shard-latch acquisitions,
// contended or not. Together with a commit counter it proves the release
// path's latch cost: the full-sweep ReleaseAll paid 3×shards latches per
// commit; the touched-shard walk pays one per shard actually holding the
// owner's locks. Lock-free.
func (m *Manager) LatchAcquisitions() int64 { return m.latchAcqs.Total() }

// LatchAcqCounters exposes the per-shard latch-acquisition counters for
// metrics wiring.
func (m *Manager) LatchAcqCounters() *metrics.ShardCounters { return m.latchAcqs }

// WaitHist returns the lock-wait latency histogram. Durations are measured
// on the manager's clock — deterministic whole-tick values under the
// simulated clock, wall time in real deployments — and every completed
// wait is recorded (no sampling). Lock-free.
func (m *Manager) WaitHist() *obs.Histogram { return m.waitHist }

// HoldHist returns the lock hold-time histogram (wall clock, sampled at
// Config.ObsSampleStride). Lock-free.
func (m *Manager) HoldHist() *obs.Histogram { return m.holdHist }

// AdmissionHist returns the AcquireAsync end-to-end latency histogram
// (wall clock, sampled at Config.ObsSampleStride): latch acquisition,
// admission pipeline, and continuation flush. Lock-free.
func (m *Manager) AdmissionHist() *obs.Histogram { return m.admitHist }

// ReleaseHist returns the ReleaseAll (commit release) latency histogram.
// Durations are measured on the manager's clock — deterministic whole-tick
// values under the simulated clock, wall time in real deployments — and
// every first ReleaseAll per owner is recorded (no sampling; double
// releases are no-ops and not recorded). Lock-free.
func (m *Manager) ReleaseHist() *obs.Histogram { return m.releaseHist }

// ShardStats is a point-in-time view of one lock-table shard.
type ShardStats struct {
	// LatchWaits is the number of contended latch acquisitions.
	LatchWaits int64
	// LeaseRefills is the number of lease batches taken from the chain.
	LeaseRefills int64
	// LeaseReturns is the number of lease batches given back.
	LeaseReturns int64
	// PooledStructs is the shard's current idle lease balance.
	PooledStructs int
	// Locks is the number of lock headers in the shard.
	Locks int
	// Waiting is the number of requests waiting in the shard.
	Waiting int
	// Seq is the shard's summary sequence number at sampling time: it
	// advances on every lock-table or wait-queue membership change, so two
	// snapshots with equal Seq saw the shard in the same membership state.
	Seq uint64
}

// ShardStatsSnapshot captures each shard's summary counters. It is entirely
// latch-free: every field is an atomic counter or an atomically published
// mirror (nLocks/nWaiting/pooled), stamped with the shard's sequence number.
// A row whose Seq matches a later read's Seq saw no membership change in
// between; the data path is never stalled to take the picture.
func (m *Manager) ShardStatsSnapshot() []ShardStats {
	out := make([]ShardStats, len(m.shards))
	for i := range m.shards {
		s := &m.shards[i]
		out[i] = ShardStats{
			LatchWaits:    m.latchWaits.Shard(i).Value(),
			LeaseRefills:  s.pool.Refills(),
			LeaseReturns:  s.pool.Returns(),
			PooledStructs: s.pool.Pooled(),
			Locks:         int(s.nLocks.Load()),
			Waiting:       int(s.nWaiting.Load()),
			Seq:           s.seq.Load(),
		}
	}
	return out
}

// LeaseRefills returns the cumulative number of lease batches shards have
// taken from the chain; with LeaseReturns it measures how often the chain
// mutex appears on the data path.
func (m *Manager) LeaseRefills() int64 {
	var n int64
	for i := range m.shards {
		n += m.shards[i].pool.Refills()
	}
	return n
}

// LeaseReturns returns the cumulative number of lease batches given back to
// the chain.
func (m *Manager) LeaseReturns() int64 {
	var n int64
	for i := range m.shards {
		n += m.shards[i].pool.Returns()
	}
	return n
}
