package main

import (
	"fmt"
	"math"

	"repro/internal/memblock"
)

// windowed merges the drivers' sub-windows.
func (r *run) windowed() []window {
	out := make([]window, windows)
	for _, d := range r.drivers {
		for i := range d.win {
			out[i].commits += d.win[i].commits
			out[i].txnNs.merge(&d.win[i].txnNs)
			out[i].grantNs.merge(&d.win[i].grantNs)
		}
	}
	return out
}

// tail is a latency reported as the median over sub-windows of each
// window's percentile, with the sample counts behind it.
type tail struct {
	value   float64 // ns
	samples uint64  // over all windows
	minWin  uint64  // fewest samples in one window
	pct     float64 // lowest percentile any window could support (≤ want)
}

// windowTail takes percentile want of each window's histogram, lowered per
// window to what its sample count supports, and returns their median.
func windowTail(ws []window, pick func(*window) *hist, want float64) tail {
	t := tail{minWin: math.MaxUint64, pct: want}
	var vals []float64
	for i := range ws {
		h := pick(&ws[i])
		t.samples += h.n
		t.minWin = min(t.minWin, h.n)
		p := tailPercentile(h.n, want)
		if p == 0 {
			continue
		}
		t.pct = min(t.pct, p)
		vals = append(vals, h.quantile(p/100))
	}
	t.value = median(vals)
	return t
}

func (r *run) commitsInWindow() int64 {
	var n int64
	for _, d := range r.drivers {
		for i := range d.win {
			n += d.win[i].commits
		}
	}
	return n
}

// commitRate is the median over sub-windows of commits per second.
func (r *run) commitRate() float64 {
	sec := float64(r.h.windowNs) / 1e9
	var rates []float64
	for _, w := range r.windowed() {
		rates = append(rates, float64(w.commits)/sec)
	}
	return median(rates)
}

func (r *run) counts() (attempted, failed int64) {
	for _, d := range r.drivers {
		attempted += d.st.attempted
		failed += d.st.failed
	}
	return attempted, failed
}

func allCorrect(rs []*run) bool {
	for _, r := range rs {
		if len(r.gateErr) > 0 {
			return false
		}
	}
	return true
}

// medianOver returns the median of f over the sub-runs.
func medianOver(rs []*run, f func(*run) float64) float64 {
	var xs []float64
	for _, r := range rs {
		xs = append(xs, f(r))
	}
	return median(xs)
}

// combine reports each metric as its median over the sub-runs, and sums
// attempted and failed. If any sub-run failed the correctness gate the
// result is incorrect and every attempted transaction counts as failed.
func combine(rs []*run, each func(*run) map[string]metric) result {
	res := result{Correct: allCorrect(rs), Metrics: map[string]metric{}}
	vals := map[string][]float64{}
	units := map[string]string{}
	for _, r := range rs {
		a, f := r.counts()
		res.Attempted += a
		res.Failed += f
		for n, m := range each(r) {
			vals[n] = append(vals[n], m.Value)
			units[n] = m.Unit
		}
	}
	for n, v := range vals {
		res.Metrics[n] = metric{median(v), units[n]}
	}
	if !res.Correct {
		res.Failed = res.Attempted
	}
	if res.Attempted == 0 {
		res.Attempted, res.Failed, res.Correct = 1, 1, false
	}
	return res
}

// endToEnd reports one sub-run's metrics a user of the lock path would
// see, and prints the sample counts behind its percentiles.
func (r *run) endToEnd() map[string]metric {
	ws := r.windowed()
	txnP50 := windowTail(ws, func(w *window) *hist { return &w.txnNs }, 50)
	txnP99 := windowTail(ws, func(w *window) *hist { return &w.txnNs }, 99)
	grantP50 := windowTail(ws, func(w *window) *hist { return &w.grantNs }, 50)
	grantP99 := windowTail(ws, func(w *window) *hist { return &w.grantNs }, 99)
	commits := r.commitsInWindow()
	attempted, failed := r.counts()
	fmt.Printf("# sub-run: %d commits in %v (%d windows); txn latency p%g/p%g of %d samples, fewest in a window %d; "+
		"grant latency p%g/p%g of %d samples, fewest in a window %d\n",
		commits, r.elapsed, windows, txnP50.pct, txnP99.pct, txnP99.samples, txnP99.minWin,
		grantP50.pct, grantP99.pct, grantP99.samples, grantP99.minWin)
	return map[string]metric{
		"commits_s":               {r.commitRate(), "1/s"},
		"txn_p50_us":              {txnP50.value / 1e3, "us"},
		"txn_p99_us":              {txnP99.value / 1e3, "us"},
		"grant_p50_us":            {grantP50.value / 1e3, "us"},
		"grant_p99_us":            {grantP99.value / 1e3, "us"},
		"lock_mem_peak_mb":        {float64(r.cp.pagesPeak*memblock.PageSize) / (1 << 20), "MB"},
		"allocs_per_commit":       {ratio(float64(r.cp.end.mallocs-r.start.mallocs), float64(commits)), "count"},
		"failed_frac":             {ratio(float64(failed), float64(attempted)), "frac"},
		"escalations_per_kcommit": {perKCommit(r.start.lock.Escalations, r.cp.end.lock.Escalations, commits), "count"},
	}
}

// ungated lists the end-to-end figures BENCHMARK.json does not bound: the
// p99 latencies do not repeat from run to run on a small shared host, and
// failures and escalations are zero by design on most workloads. An
// untraced run prints them as comments; a traced run reports them, from
// its untraced half, as per-layer metrics prefixed "e2e.".
var ungated = []string{"txn_p99_us", "grant_p99_us", "failed_frac", "escalations_per_kcommit"}

// splitUngated moves the ungated figures out of m and returns them.
func splitUngated(m map[string]metric) map[string]metric {
	out := map[string]metric{}
	for _, n := range ungated {
		out[n] = m[n]
		delete(m, n)
	}
	return out
}

// perLayer reports the per-layer metrics of one traced sub-run.
func (r *run) perLayer() map[string]metric {
	a, b := r.start, r.cp.end
	c := r.commitsInWindow()
	fc := float64(c)
	var st driverStats
	var rounds, idle int64
	for _, d := range r.drivers {
		st.beginNs += d.st.beginNs
		st.begins += d.st.begins
		st.acquireNs += d.st.acquireNs
		st.acquires += d.st.acquires
		st.scanAttempts += d.st.scanAttempts
		st.scans += d.st.scans
		st.commitNs.merge(&d.st.commitNs)
		rounds += d.st.rounds
		idle += d.st.idleRounds
	}
	cp := r.cp
	admissions := delta(a.fastHits, b.fastHits) + delta(a.fastFallbacks, b.fastFallbacks)
	contended := delta(a.latchSpins, b.latchSpins) + delta(a.latchParks, b.latchParks)
	denials := delta(a.lock.MemoryDenials+a.lock.QuotaDenials, b.lock.MemoryDenials+b.lock.QuotaDenials)
	commitPct := tailPercentile(st.commitNs.n, 99)
	quotaMin := cp.quotaMin
	if cp.passes == 0 {
		quotaMin = 0
	}

	m := map[string]metric{}
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	set("txn.begin_ns", "ns", ratio(float64(st.beginNs), float64(st.begins)))
	set("txn.acquire_ns", "ns", ratio(float64(st.acquireNs), float64(st.acquires)))
	set("txn.commit_ns_p50", "ns", st.commitNs.quantile(0.5))
	set("txn.commit_ns_p99", "ns", st.commitNs.quantile(commitPct/100))
	set("txn.ro_attempts_per_commit", "count", ratio(float64(st.scanAttempts), float64(st.scans)))

	set("lockmgr.fastpath_hit_frac", "frac", ratio(delta(a.fastHits, b.fastHits), admissions))
	set("lockmgr.optimistic_hit_frac", "frac", ratio(delta(a.optHits, b.optHits), admissions+delta(a.optHits, b.optHits)))
	set("lockmgr.optimistic_fail_frac", "frac", ratio(delta(a.optFails, b.optFails), delta(a.optHits, b.optHits)))
	set("lockmgr.grants_per_commit", "count", perCommit(a.lock.Grants, b.lock.Grants, c))
	set("lockmgr.waits_per_commit", "count", perCommit(a.lock.Waits, b.lock.Waits, c))
	set("lockmgr.wait_p99_us", "us", histDelta(a.waitHist, b.waitHist).Quantile(0.99)/1e3)
	set("lockmgr.throttle_culled_per_commit", "count", perCommit(a.culled, b.culled, c))
	set("lockmgr.throttle_reactivated_per_commit", "count", perCommit(a.reactivated, b.reactivated, c))
	set("lockmgr.throttle_ceiling_max", "count", float64(cp.ceilingMax))
	set("lockmgr.release_batches_per_commit", "count", perCommit(a.relBatches, b.relBatches, c))
	set("lockmgr.wakeups_coalesced_per_commit", "count", perCommit(a.wakes, b.wakes, c))
	set("lockmgr.flush_follower_waits_per_commit", "count", perCommit(a.flushWaits, b.flushWaits, c))
	set("lockmgr.global_runs", "count", delta(a.globalRuns, b.globalRuns))
	set("lockmgr.deadlocks_per_kcommit", "count", perKCommit(a.lock.Deadlocks, b.lock.Deadlocks, c))
	set("lockmgr.timeouts_per_kcommit", "count", perKCommit(a.lock.Timeouts, b.lock.Timeouts, c))
	set("lockmgr.denials_per_kcommit", "count", 1000*ratio(denials, fc))
	set("lockmgr.escalations", "count", delta(a.lock.Escalations, b.lock.Escalations))

	set("latch.acqs_per_commit", "count", perCommit(a.latchAcqs, b.latchAcqs, c))
	set("latch.contended_per_kcommit", "count", 1000*ratio(contended, fc))
	set("latch.spin_win_frac", "frac", ratio(delta(a.latchSpins, b.latchSpins), contended))
	set("latch.parks_per_kcommit", "count", perKCommit(a.latchParks, b.latchParks, c))
	set("latch.handoffs_per_kcommit", "count", perKCommit(a.latchHandoffs, b.latchHandoffs, c))
	set("latch.wait_ns_per_commit", "ns", perCommit(a.latchWaitNs, b.latchWaitNs, c))

	set("memblock.pages_start", "pages", float64(a.pages))
	set("memblock.sync_growths", "count", delta(a.lock.SyncGrowths, b.lock.SyncGrowths))
	set("memblock.sync_growth_pages", "pages", delta(a.lock.SyncGrowthPages, b.lock.SyncGrowthPages))
	set("memblock.used_structs_peak", "structs", float64(cp.usedPeak))
	set("memory.overflow_min_pages", "pages", float64(cp.overflowMin))

	set("stmm.passes", "count", float64(cp.passes))
	set("stmm.tune_ns_p50", "ns", median(cp.tuneNs))
	set("stmm.tune_ns_max", "ns", maxOf(cp.tuneNs))
	set("stmm.grow_pages", "pages", float64(cp.growPages))
	set("stmm.shrink_pages", "pages", float64(cp.shrinkPages))
	set("stmm.quota_pct_min", "%", quotaMin)

	set("engine.ticks", "count", float64(cp.ticks))
	set("engine.tick_ns_p50", "ns", median(cp.tickNs))
	set("engine.tick_ns_max", "ns", maxOf(cp.tickNs))

	set("harness.idle_round_frac", "frac", ratio(float64(idle), float64(rounds)))

	self := map[string]int64{}
	for _, d := range r.drivers {
		for n, v := range d.tr.selfNs {
			self[n] += v
		}
	}
	for _, n := range spanNames {
		set("span."+n+".self_ns_per_commit", "ns", ratio(float64(self[n]), fc))
	}
	fmt.Printf("# traced sub-run: %d commits in %v; txn.commit_ns_p99 is p%g of %d samples\n", c, r.elapsed, commitPct, st.commitNs.n)
	return m
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func (r *run) tracers() []*tracer {
	var ts []*tracer
	for _, d := range r.drivers {
		ts = append(ts, d.tr)
	}
	return ts
}

func (r *run) droppedSpans() int64 {
	var n int64
	for _, d := range r.drivers {
		n += d.tr.dropped
	}
	return n
}
