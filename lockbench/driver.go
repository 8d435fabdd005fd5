package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/lockmgr"
	"repro/internal/txn"
)

// drivers is the number of driver goroutines. It is fixed, not derived
// from the host, so the offered load is the same on every machine.
const drivers = 2

// Control-plane pacing, in committed transactions rather than wall time,
// so every host sees the same tick and tuning cadence per unit of work.
const (
	tickCommits = 128 // db.Tick (timeout sweep, deadlock detection, decay)
	tuneTicks   = 16  // db.TuneOnce (one STMM pass) every this many ticks
)

// windows is how many equal sub-windows a timed run is cut into; rates and
// percentiles are taken per window and reported as the median over them.
const windows = 10

// pollSample is how many waiting Polls a traced run counts per one it
// times.
const pollSample = 16

// drainLimit bounds how long the in-flight transactions may take to finish
// after the timed window closes.
const drainLimit = 30 * time.Second

type phase uint8

const (
	phaseIdle    phase = iota // thinking, or ready to begin
	phaseAcquire              // taking the transaction's row locks
	phaseHold                 // all granted; holding for some rounds
	phaseRetry                // a read-only attempt failed validation
	phaseDone                 // drained
)

// session is one engine connection (one lock-manager application) and the
// state of its current transaction.
type session struct {
	id    int
	conn  *engine.Conn
	pool  []txnSpec
	next  int
	spec  *txnSpec
	t     *txn.Txn
	op    *txn.Op
	req   int // index of the request in flight
	phase phase
	wait  int // think or hold rounds left

	attempt   int   // attempts begun for the current logical transaction
	txnStart  int64 // first Begin of the logical transaction
	opStart   int64 // AcquireRow call of the request in flight
	waitStart int64 // first OpWaiting of the request in flight
	waiting   bool
	inWindow  bool // the logical transaction began inside the timed window
	seen      []uint64
	held      []int32
	spans     []span // traced runs: the open logical transaction's spans
}

// window holds one driver's samples for one sub-window.
type window struct {
	commits int64
	txnNs   hist // Begin to the return of commit
	grantNs hist // AcquireRow call to the Poll that sees OpGranted
}

// driverStats are one driver's counts over the timed window, except the
// totals, which cover the whole run including the drain.
type driverStats struct {
	rounds, idleRounds   int64
	attempted, failed    int64
	scanAttempts, scans  int64
	totalCommits, aborts int64 // whole run, for the txn.Manager cross-check

	// Traced runs only.
	beginNs, begins     int64
	acquireNs, acquires int64
	commitNs            hist
}

// harness is the state both drivers share.
type harness struct {
	db *engine.Database

	holder  []atomic.Int32  // per checked row: 1+session id of the X holder
	version []atomic.Uint64 // per checked row: bumped by writers under X

	base     time.Time
	windowNs int64
	endNs    int64

	draining  atomic.Bool
	abandoned atomic.Bool
	commits   [drivers]paddedCount
	otherDone atomic.Bool // driver 1's sessions have all drained

	violMu sync.Mutex
	viol   []string
}

// paddedCount keeps each driver's commit counter on its own cache line,
// so the drivers do not contend on the line driver 0 polls.
type paddedCount struct {
	atomic.Int64
	_ [56]byte
}

func (h *harness) now() int64 { return int64(time.Since(h.base)) }

func (h *harness) violation(format string, args ...any) {
	h.violMu.Lock()
	defer h.violMu.Unlock()
	if len(h.viol) < 8 {
		h.viol = append(h.viol, fmt.Sprintf(format, args...))
	}
}

// driver steps its sessions round-robin through the non-blocking lock API.
// Driver 0 also runs the control plane.
type driver struct {
	h        *harness
	id       int
	sessions []*session
	win      []window
	st       driverStats
	tr       *tracer
	nextID   uint64
	polls    int64
	cp       *controlPlane // driver 0 only
}

func (d *driver) run() {
	h := d.h
	for {
		draining := h.draining.Load()
		progressed, live := false, false
		for _, s := range d.sessions {
			if d.step(s, draining) {
				progressed = true
			}
			if s.phase != phaseDone {
				live = true
			}
		}
		now := h.now()
		if now < h.endNs {
			d.st.rounds++
			if !progressed {
				d.st.idleRounds++
			}
		}
		if d.cp != nil {
			d.cp.afterRound(now, draining, live)
		}
		// Driver 0 runs the control plane, so it stays until driver 1 has
		// drained too.
		if !live && d.cp == nil {
			h.otherDone.Store(true)
		}
		if h.abandoned.Load() || (!live && (d.cp == nil || h.otherDone.Load())) {
			return
		}
		if !progressed {
			runtime.Gosched()
		}
	}
}

// step gives one session its turn and reports whether it made progress:
// began, was granted a lock, committed or aborted.
func (d *driver) step(s *session, draining bool) bool {
	switch s.phase {
	case phaseIdle:
		if draining {
			s.phase = phaseDone
			return false
		}
		if s.wait > 0 {
			s.wait--
			return false
		}
		d.begin(s)
		return true
	case phaseAcquire:
		return d.advance(s)
	case phaseHold:
		if s.wait > 0 {
			s.wait--
			return false
		}
		d.end(s)
		return true
	case phaseRetry:
		d.attempt(s)
		return true
	}
	return false
}

// begin starts the session's next logical transaction.
func (d *driver) begin(s *session) {
	s.spec = &s.pool[s.next]
	s.next = (s.next + 1) % len(s.pool)
	s.attempt = 0
	s.txnStart = d.h.now()
	s.inWindow = s.txnStart < d.h.endNs
	if s.inWindow {
		d.st.attempted++
	}
	if d.tr != nil {
		s.spans = append(s.spans[:0], span{ID: d.newID(), Name: spanTxn, Start: s.txnStart, Parent: -1})
	}
	d.attempt(s)
}

// attempt begins one transaction for the current logical transaction and
// issues its first lock request. A scan's first scanROAttempts attempts run
// ReadOnly; the next falls back to RepeatableRead, like txn.RunReadOnly.
func (d *driver) attempt(s *session) {
	var t0 int64
	if d.tr != nil {
		t0 = d.h.now()
	}
	s.t = s.conn.Begin()
	if d.tr != nil {
		t1 := d.h.now()
		s.child(spanBegin, t0, t1)
		if t1 < d.h.endNs {
			d.st.beginNs += t1 - t0
			d.st.begins++
		}
	}
	if s.spec.readOnly {
		if s.inWindow {
			d.st.scanAttempts++
		}
		if s.attempt < scanROAttempts {
			if err := s.t.SetIsolation(txn.ReadOnly); err != nil {
				d.h.violation("session %d: set isolation: %v", s.id, err)
			}
		}
	}
	s.attempt++
	s.req = 0
	s.phase = phaseAcquire
	s.seen = s.seen[:0]
	s.held = s.held[:0]
	s.waiting = false
	d.acquire(s)
}

// acquire issues the transaction's requests from s.req on, in one turn,
// until one has to wait, one is denied or all are granted. A session thus
// never blocks its driver: a waiting request is polled on later turns.
func (d *driver) acquire(s *session) {
	for s.phase == phaseAcquire && !s.waiting {
		d.issue(s)
	}
}

// issue calls AcquireRow for the request at s.req.
func (d *driver) issue(s *session) {
	q := &s.spec.reqs[s.req]
	s.opStart = d.h.now()
	s.op = s.t.AcquireRow(q.table, q.row, q.mode, 1)
	st := s.op.Poll()
	t1 := d.h.now()
	if d.tr != nil {
		s.child(spanAcquire, s.opStart, t1)
		d.timeAcquire(s.opStart, t1, 1)
	}
	d.settle(s, st, t1)
}

// advance polls the waiting request; once it is granted, the session goes
// on taking its locks in the same turn. A traced run times one waiting
// Poll in pollSample, so the clock reads do not swamp the queue-heavy
// workloads whose turns are mostly such polls.
func (d *driver) advance(s *session) bool {
	d.polls++
	timed := d.tr != nil && d.polls%pollSample == 0
	var t0 int64
	if timed {
		t0 = d.h.now()
	}
	st := s.op.Poll()
	if st == txn.OpWaiting {
		if timed {
			d.timeAcquire(t0, d.h.now(), pollSample)
		}
		return false
	}
	t1 := d.h.now()
	if timed {
		d.timeAcquire(t0, t1, pollSample)
	}
	d.settle(s, st, t1)
	d.acquire(s)
	return true
}

// settle acts on the state a request reached at time now.
func (d *driver) settle(s *session, st txn.OpState, now int64) {
	switch st {
	case txn.OpWaiting:
		if !s.waiting {
			s.waiting, s.waitStart = true, now
		}
		return
	case txn.OpDenied:
		d.fail(s)
		return
	}
	if s.waiting && d.tr != nil {
		s.child(spanWait, s.waitStart, now)
	}
	s.waiting = false
	if w := d.windowOf(now); w != nil {
		w.grantNs.record(now - s.opStart)
	}
	d.checkGrant(s, &s.spec.reqs[s.req])
	s.req++
	if s.req < len(s.spec.reqs) {
		return
	}
	if s.spec.hold > 0 {
		s.phase, s.wait = phaseHold, s.spec.hold
		return
	}
	d.end(s)
}

// checkGrant applies the workload-level correctness checks to a grant.
func (d *driver) checkGrant(s *session, q *request) {
	if q.slot < 0 {
		return
	}
	h := d.h
	if s.spec.readOnly {
		// A scan remembers the version it read; end compares it again.
		s.seen = append(s.seen, h.version[q.slot].Load())
		return
	}
	if q.mode == lockmgr.ModeX {
		if prev := h.holder[q.slot].Swap(int32(s.id) + 1); prev != 0 {
			h.violation("row slot %d X-granted to session %d while session %d holds it", q.slot, s.id, prev-1)
		}
		s.held = append(s.held, q.slot)
		h.version[q.slot].Add(1)
		return
	}
	if prev := h.holder[q.slot].Load(); prev != 0 {
		h.violation("row slot %d S-granted to session %d while session %d holds X", q.slot, s.id, prev-1)
	}
}

// release clears the holder flags this transaction set. It runs before
// commit or abort, while the X locks are still held.
func (d *driver) release(s *session) {
	for _, slot := range s.held {
		d.h.holder[slot].Store(0)
	}
	s.held = s.held[:0]
}

// end commits the transaction. A ReadOnly scan validates its tokens; when
// validation fails the scan is retried.
func (d *driver) end(s *session) {
	h := d.h
	changed := false
	if s.spec.readOnly {
		j := 0
		for _, q := range s.spec.reqs {
			if q.slot >= 0 {
				if h.version[q.slot].Load() != s.seen[j] {
					changed = true
				}
				j++
			}
		}
	}
	d.release(s)
	t0 := h.now()
	err := s.t.CommitValidated()
	t1 := h.now()
	if d.tr != nil {
		s.child(spanCommit, t0, t1)
		if t1 < h.endNs {
			d.st.commitNs.record(t1 - t0)
		}
	}
	if errors.Is(err, txn.ErrReadInvalidated) {
		d.st.aborts++
		s.phase = phaseRetry
		return
	}
	if err != nil {
		h.violation("session %d: commit: %v", s.id, err)
		d.fail(s)
		return
	}
	if changed {
		h.violation("session %d: scan passed commit although a row it read was written", s.id)
	}
	d.st.totalCommits++
	h.commits[d.id].Add(1)
	if w := d.windowOf(t1); w != nil {
		w.commits++
		w.txnNs.record(t1 - s.txnStart)
		if s.spec.readOnly {
			d.st.scans++
		}
	}
	if d.tr != nil {
		d.closeSpans(s, t1)
	}
	s.phase, s.wait = phaseIdle, s.spec.think
}

// fail aborts the transaction after a denied request.
func (d *driver) fail(s *session) {
	d.release(s)
	s.t.Abort()
	d.st.aborts++
	if s.inWindow {
		d.st.failed++
	}
	if d.tr != nil {
		d.closeSpans(s, d.h.now())
	}
	s.phase, s.wait = phaseIdle, s.spec.think
}

// windowOf returns the sub-window holding time now, or nil after the timed
// window.
func (d *driver) windowOf(now int64) *window {
	if now >= d.h.endNs || now < 0 {
		return nil
	}
	return &d.win[now/d.h.windowNs]
}

// newID returns a span-group id unique across drivers.
func (d *driver) newID() uint64 {
	d.nextID++
	return uint64(d.id)<<48 | d.nextID
}

// child records a finished child of the session's open transaction span.
func (s *session) child(name string, start, end int64) {
	s.spans = append(s.spans, span{ID: s.spans[0].ID, Name: name, Start: start, End: end, Parent: 0})
}

// closeSpans ends the session's transaction span and folds its group,
// if it ended inside the timed window.
func (d *driver) closeSpans(s *session, end int64) {
	s.spans[0].End = end
	if end < d.h.endNs {
		d.tr.fold(s.spans)
	}
	s.spans = s.spans[:0]
}

// timeAcquire accounts a timed AcquireRow or Poll call of a traced run
// that stands for weight calls.
func (d *driver) timeAcquire(start, end, weight int64) {
	if end < d.h.endNs {
		d.st.acquireNs += (end - start) * weight
		d.st.acquires += weight
	}
}
