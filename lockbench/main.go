// Command lockbench is the lock-path benchmark: it drives engine → txn →
// lockmgr with STMM, the deadlock detector and the timeout sweep live,
// from one process with two driver goroutines that multiplex many
// sessions over the non-blocking AcquireRow/Poll API.
//
//	lockbench --workload oltp-ramp --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 the run is split into an untraced and
// a traced half and the metrics are the per-layer ones. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
)

// subRuns is how many databases a run builds, each measured for an equal
// share of the timed window; setup_s is the median set-up time.
const subRuns = 5

// lockTimeout keeps the timeout sweep live while staying far beyond any
// wait these closed-loop workloads produce, so no request times out.
const lockTimeout = 120 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: oltp-ramp, commit-storm, hotkey-queue or readmostly-scan")
	seed := flag.Uint64("seed", 1, "seed of the generated request stream")
	seconds := flag.Int("seconds", 10, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	sha := flag.String("sha", "unknown", "source revision recorded in the provenance line")
	traceDir := flag.String("trace-dir", ".bench_build/trace", "directory the traced run writes its spans to")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "lockbench: need --workload (one of %s), --seconds ≥ 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	prov := map[string]any{
		"sha": *sha, "go": runtime.Version(), "nproc": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "drivers": drivers,
		"seed": *seed, "workload": w.name, "seconds": *seconds, "trace": *trace,
	}

	window := time.Duration(*seconds) * time.Second
	var res result
	var err error
	if *trace == 0 {
		res, err = untracedRun(w, *seed, window, prov)
	} else {
		res, err = tracedRun(w, *seed, window, prov, *traceDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lockbench:", err)
		os.Exit(1)
	}
	printMetrics(res)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lockbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// untracedRun measures the end-to-end metrics over the whole window.
func untracedRun(w *workload, seed uint64, window time.Duration, prov map[string]any) (result, error) {
	rs, err := execute(w, seed, window, false)
	if err != nil {
		return result{}, err
	}
	printProvenance(prov, rs[0])
	res := combine(rs, (*run).endToEnd)
	res.Metrics["setup_s"] = metric{medianOver(rs, func(r *run) float64 { return r.setupS }), "s"}
	for n, m := range splitUngated(res.Metrics) {
		fmt.Printf("# ungated %s %.4f %s\n", n, m.Value, m.Unit)
	}
	return res, nil
}

// tracedRun measures an untraced half and a traced half of the window and
// reports the per-layer metrics, the tracing overhead between the halves,
// and the ungated end-to-end figures of the untraced half. It writes the
// last traced sub-run's spans to traceDir.
func tracedRun(w *workload, seed uint64, window time.Duration, prov map[string]any, traceDir string) (result, error) {
	plain, err := execute(w, seed, window/2, false)
	if err != nil {
		return result{}, err
	}
	traced, err := execute(w, seed, window/2, true)
	if err != nil {
		return result{}, err
	}
	printProvenance(prov, traced[0])
	res := combine(traced, (*run).perLayer)
	res.Correct = res.Correct && allCorrect(plain)
	for n, m := range splitUngated(combine(plain, (*run).endToEnd).Metrics) {
		res.Metrics["e2e."+n] = m
	}
	overhead := 1 - ratio(medianOver(traced, (*run).commitRate), medianOver(plain, (*run).commitRate))
	res.Metrics["trace.overhead_frac"] = metric{overhead, "frac"}
	last := traced[len(traced)-1]
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := writeSpans(path, last.tracers()); err != nil {
		fmt.Fprintln(os.Stderr, "lockbench:", err)
		res.Correct = false
	} else {
		fmt.Printf("# spans of the last traced sub-run written to %s (%d dropped past the in-memory budget)\n", path, last.droppedSpans())
	}
	return res, nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printProvenance completes prov with what the first sub-run learned and
// prints it.
func printProvenance(prov map[string]any, r *run) {
	prov["stream_digest"] = fmt.Sprintf("%016x", r.digest)
	prov["lock_shards"] = r.shards
	b, _ := json.Marshal(prov) // a map of strings and numbers always encodes
	fmt.Printf("# provenance %s\n", b)
}

func printMetrics(res result) {
	fmt.Printf("# correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# %-44s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}

// run is one sub-run: a timed share of the window on a freshly built
// database.
type run struct {
	h       *harness
	drivers []*driver
	cp      *controlPlane
	start   counters
	end     counters // after the drain
	digest  uint64
	shards  int
	setupS  float64
	elapsed time.Duration // the timed window
	gateErr []string
}

// execute measures a timed window of length d as subRuns sub-runs, each on
// a freshly built database. Throughput moves by several percent from one
// database instance to the next on the same host, so a run reports medians
// over the sub-runs. Every set-up must generate the same request stream.
func execute(w *workload, seed uint64, d time.Duration, traced bool) ([]*run, error) {
	var rs []*run
	for i := 0; i < subRuns; i++ {
		runtime.GC()
		t0 := time.Now()
		r, err := setup(w, seed, d/subRuns, traced)
		if err != nil {
			return nil, err
		}
		r.setupS = time.Since(t0).Seconds()
		if i > 0 && r.digest != rs[0].digest {
			return nil, fmt.Errorf("seed %d generated two different request streams (%016x, %016x)", seed, rs[0].digest, r.digest)
		}
		runtime.GC()
		r.measure()
		rs = append(rs, r)
	}
	return rs, nil
}

// setup opens a database, generates the sessions' transaction pools from
// seed and connects one engine connection per session.
func setup(w *workload, seed uint64, d time.Duration, traced bool) (*run, error) {
	db, err := engine.Open(engine.Config{InitialLockPages: w.initialLockPages, LockTimeout: lockTimeout})
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	g, err := newGenEnv(db)
	if err != nil {
		return nil, err
	}
	pools := generate(w, g, seed)
	h := &harness{
		db:       db,
		holder:   make([]atomic.Int32, w.slots),
		version:  make([]atomic.Uint64, w.slots),
		windowNs: int64(d) / windows,
	}
	h.endNs = h.windowNs * windows
	r := &run{h: h, digest: digest(pools), shards: db.Locks().NumShards(), elapsed: time.Duration(h.endNs)}
	for i := 0; i < drivers; i++ {
		dr := &driver{h: h, id: i, win: make([]window, windows)}
		if traced {
			dr.tr = newTracer()
		}
		r.drivers = append(r.drivers, dr)
	}
	for s, pool := range pools {
		dr := r.drivers[s%drivers]
		dr.sessions = append(dr.sessions, &session{id: s, conn: db.Connect(), pool: pool})
	}
	r.cp = newControlPlane(h, r.drivers[0])
	r.drivers[0].cp = r.cp
	return r, nil
}

// measure runs the drivers through the timed window and the drain, then
// applies the correctness gate.
func (r *run) measure() {
	h := r.h
	r.start = readCounters(h.db)
	var wg sync.WaitGroup
	h.base = time.Now()
	for _, d := range r.drivers {
		wg.Add(1)
		go func(d *driver) {
			defer wg.Done()
			d.run()
		}(d)
	}
	wg.Wait()
	r.end = readCounters(h.db)
	r.gate()
}

// gate checks the run's correctness: every session drained, no harness
// check fired, the database's self-check passes, nothing is left held or
// parked, and the harness's commit and abort counts match the transaction
// manager's.
func (r *run) gate() {
	h := r.h
	fail := func(format string, args ...any) { r.gateErr = append(r.gateErr, fmt.Sprintf(format, args...)) }
	if h.abandoned.Load() {
		fail("sessions did not drain within %v", drainLimit)
		return
	}
	r.gateErr = append(r.gateErr, h.viol...)
	if err := h.db.SelfCheck(); err != nil {
		fail("self-check: %v", err)
	}
	_, _, active := h.db.Txns().Stats()
	if active != 0 {
		fail("%d transactions still active after the drain", active)
	}
	if n := h.db.Locks().UsedStructs(); n != 0 {
		fail("%d lock structures still in use after the drain", n)
	}
	if n := h.db.Locks().ThrottleLive(); n != 0 {
		fail("%d throttled waiters still parked after the drain", n)
	}
	var commits, aborts int64
	for _, d := range r.drivers {
		commits += d.st.totalCommits
		aborts += d.st.aborts
	}
	if got := r.end.txnCommits - r.start.txnCommits; got != commits {
		fail("transaction manager counted %d commits, the harness %d", got, commits)
	}
	if got := r.end.txnAborts - r.start.txnAborts; got != aborts {
		fail("transaction manager counted %d aborts, the harness %d", got, aborts)
	}
	for _, e := range r.gateErr {
		fmt.Fprintln(os.Stderr, "lockbench: correctness:", e)
	}
}
