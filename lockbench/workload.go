package main

import (
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/engine"
	"repro/internal/lockmgr"
	"repro/internal/storage"
)

// request is one generated row-lock request. slot indexes the harness's
// per-row check arrays (holder flag, version), or is -1 for a row the
// harness does not check.
type request struct {
	table storage.TableID
	row   uint64
	mode  lockmgr.Mode
	slot  int32
}

// txnSpec is one generated transaction: its row locks in the order they
// are taken, how many driver rounds it holds them once all are granted,
// and how many rounds its session thinks after it ends.
type txnSpec struct {
	reqs     []request
	readOnly bool // a scan: ReadOnly attempts, then an RR fallback
	hold     int
	think    int
}

// workload describes one benchmark workload.
type workload struct {
	name string
	// sessions is the number of engine connections (lock-manager
	// applications), split evenly over the drivers.
	sessions int
	// initialLockPages is the starting LOCKLIST (0 = the engine default).
	initialLockPages int
	// slots sizes the per-row check arrays.
	slots int
	// gen builds session s's transaction pool from its own random stream.
	gen func(g *genEnv, s int, r *rng) []txnSpec
}

// genEnv is what a generator may consult: the catalog's tables and the
// live lock manager's shard routing.
type genEnv struct {
	tables map[string]storage.TableID
	locks  *lockmgr.Manager
	// stormRows[k] are commit-storm rows homed in hot shard k.
	stormRows [][]uint64
}

// poolSize is how many transactions each session's pool holds; a session
// cycles through its pool for as long as the run lasts.
const poolSize = 64

// rng is splitmix64: small, fast and fully determined by its seed.
type rng struct{ s uint64 }

// newRNG returns session stream's generator. The start state is a hash of
// seed and stream: splitmix64 walks its state in fixed steps, so start
// states that differ by a multiple of the step would replay one another's
// numbers shifted by a few draws.
func newRNG(seed uint64, stream int) *rng {
	return &rng{s: mix64(mix64(seed) + uint64(stream))}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

// mix64 is splitmix64's output function, a bijective bit mixer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// chance reports true with probability pct/100.
func (r *rng) chance(pct int) bool { return r.intn(100) < pct }

// workloads lists every workload by name.
var workloads = map[string]*workload{
	"oltp-ramp":       oltpRamp,
	"commit-storm":    commitStorm,
	"hotkey-queue":    hotkeyQueue,
	"readmostly-scan": readmostlyScan,
}

// oltp-ramp: the paper's scenario. Many applications start together on a
// minimal LOCKLIST; synchronous overflow growth and STMM must grow it.
const (
	oltpSessions  = 130
	oltpHotRows   = 4000    // per table; 10% of accesses land here
	oltpColdRows  = 1 << 20 // per table; the rest spread over these
	oltpMinLocks  = 40
	oltpMaxLocks  = 90
	oltpXPct      = 30
	oltpHotPct    = 10
	oltpHoldRound = 2
	oltpThink     = 4
)

var oltpTables = []string{"customer", "stock", "orders", "order_line"}

var oltpRamp = &workload{
	name:             "oltp-ramp",
	sessions:         oltpSessions,
	initialLockPages: 96,
	slots:            len(oltpTables) * oltpHotRows,
	gen: func(g *genEnv, _ int, r *rng) []txnSpec {
		pool := make([]txnSpec, poolSize)
		for i := range pool {
			n := oltpMinLocks + r.intn(oltpMaxLocks-oltpMinLocks+1)
			reqs := make([]request, 0, n)
			for j := 0; j < n; j++ {
				ti := r.intn(len(oltpTables))
				req := request{table: g.tables[oltpTables[ti]], mode: lockmgr.ModeS, slot: -1}
				if r.chance(oltpHotPct) {
					req.row = uint64(r.intn(oltpHotRows))
					req.slot = int32(ti*oltpHotRows) + int32(req.row)
				} else {
					req.row = oltpHotRows + uint64(r.intn(oltpColdRows))
				}
				if r.chance(oltpXPct) {
					req.mode = lockmgr.ModeX
				}
				reqs = append(reqs, req)
			}
			pool[i] = txnSpec{reqs: orderRequests(reqs), hold: oltpHoldRound, think: oltpThink}
		}
		return pool
	},
}

// commit-storm: short private update transactions confined to a few hot
// lock-table shards, so the per-commit path dominates.
const (
	stormSessions  = 64
	stormHotShards = 2
	stormRowsPer   = 8 // private rows per session per hot shard
)

var commitStorm = &workload{
	name:     "commit-storm",
	sessions: stormSessions,
	slots:    stormSessions * stormHotShards * stormRowsPer,
	gen: func(g *genEnv, s int, r *rng) []txnSpec {
		table := g.tables["stock"]
		pool := make([]txnSpec, poolSize)
		for i := range pool {
			reqs := make([]request, 0, stormHotShards)
			for k := 0; k < stormHotShards; k++ {
				j := r.intn(stormRowsPer)
				idx := s*stormRowsPer + j
				reqs = append(reqs, request{
					table: table,
					row:   g.stormRows[k][idx],
					mode:  lockmgr.ModeX,
					slot:  int32((s*stormHotShards+k)*stormRowsPer + j),
				})
			}
			pool[i] = txnSpec{reqs: orderRequests(reqs)}
		}
		return pool
	},
}

// planStorm finds, for stormHotShards distinct shards, enough rows of the
// stock table homed there to give every session stormRowsPer private rows
// in each. Row hashing is deterministic, so every run storms the same
// shards.
func planStorm(g *genEnv) {
	table := g.tables["stock"]
	need := stormSessions * stormRowsPer
	byShard := map[int][]uint64{}
	var order []int
	for row := uint64(0); !full(byShard, order, need); row++ {
		si := g.locks.ShardOf(lockmgr.RowName(uint32(table), row))
		list, chosen := byShard[si]
		if !chosen && len(order) < stormHotShards {
			order = append(order, si)
			chosen = true
		}
		if chosen && len(list) < need {
			byShard[si] = append(list, row)
		}
	}
	g.stormRows = make([][]uint64, stormHotShards)
	for k, si := range order {
		g.stormRows[k] = byShard[si]
	}
}

// full reports whether all stormHotShards shards are chosen and hold need
// rows each.
func full(byShard map[int][]uint64, order []int, need int) bool {
	if len(order) < stormHotShards {
		return false
	}
	for _, si := range order {
		if len(byShard[si]) < need {
			return false
		}
	}
	return true
}

// hotkey-queue: far more sessions than hot rows, past the saturation knee,
// so every hot row carries a deep FIFO queue.
const (
	hotkeySessions = 256
	hotkeyRows     = 4
)

var hotkeyQueue = &workload{
	name:     "hotkey-queue",
	sessions: hotkeySessions,
	slots:    hotkeyRows,
	gen: func(g *genEnv, _ int, r *rng) []txnSpec {
		table := g.tables["stock"]
		pool := make([]txnSpec, poolSize)
		for i := range pool {
			row := r.intn(hotkeyRows)
			pool[i] = txnSpec{
				reqs: []request{{table: table, row: uint64(row), mode: lockmgr.ModeX, slot: int32(row)}},
				hold: 1,
			}
		}
		return pool
	},
}

// readmostly-scan: ReadOnly range scans over a hot set that fits in the
// lock manager's fast slots, beside a few paced writers on the same rows.
const (
	scanSessions   = 64
	scanWriters    = 6 // sessions 0..scanWriters-1 write; the rest (90%) scan
	scanHotRows    = 512
	scanMinRows    = 32
	scanMaxRows    = 64
	scanHold       = 1 // rounds a scan works on its rows before it commits
	scanThink      = 1
	writerRows     = 2
	writerThink    = 256 // ≫ a scan's few rounds
	scanROAttempts = 4   // optimistic attempts before the RR fallback
)

var readmostlyScan = &workload{
	name:     "readmostly-scan",
	sessions: scanSessions,
	slots:    scanHotRows,
	gen: func(g *genEnv, s int, r *rng) []txnSpec {
		table := g.tables["stock"]
		pool := make([]txnSpec, poolSize)
		for i := range pool {
			if s < scanWriters {
				reqs := make([]request, 0, writerRows)
				for len(reqs) < writerRows {
					row := r.intn(scanHotRows)
					if len(reqs) > 0 && reqs[0].row == uint64(row) {
						continue
					}
					reqs = append(reqs, request{table: table, row: uint64(row), mode: lockmgr.ModeX, slot: int32(row)})
				}
				pool[i] = txnSpec{reqs: orderRequests(reqs), think: writerThink}
				continue
			}
			n := scanMinRows + r.intn(scanMaxRows-scanMinRows+1)
			start := r.intn(scanHotRows - n + 1)
			reqs := make([]request, n)
			for j := range reqs {
				row := start + j
				reqs[j] = request{table: table, row: uint64(row), mode: lockmgr.ModeS, slot: int32(row)}
			}
			pool[i] = txnSpec{reqs: reqs, readOnly: true, hold: scanHold, think: scanThink}
		}
		return pool
	},
}

// orderRequests sorts a transaction's requests by (table, row) and merges
// duplicates into the stronger mode. Every transaction then locks in one
// global order and never upgrades a row lock, so no workload can deadlock.
func orderRequests(reqs []request) []request {
	sort.Slice(reqs, func(a, b int) bool {
		if reqs[a].table != reqs[b].table {
			return reqs[a].table < reqs[b].table
		}
		return reqs[a].row < reqs[b].row
	})
	out := reqs[:0]
	for _, q := range reqs {
		if n := len(out); n > 0 && out[n-1].table == q.table && out[n-1].row == q.row {
			out[n-1].mode = lockmgr.Supremum(out[n-1].mode, q.mode)
			continue
		}
		out = append(out, q)
	}
	return out
}

// newGenEnv resolves the catalog tables the workloads use.
func newGenEnv(db *engine.Database) (*genEnv, error) {
	g := &genEnv{tables: map[string]storage.TableID{}, locks: db.Locks()}
	for _, name := range oltpTables {
		t := db.Catalog().ByName(name)
		if t == nil {
			return nil, fmt.Errorf("catalog has no table %q", name)
		}
		g.tables[name] = t.ID
	}
	return g, nil
}

// generate builds every session's transaction pool from seed.
func generate(w *workload, g *genEnv, seed uint64) [][]txnSpec {
	if w == commitStorm {
		planStorm(g)
	}
	pools := make([][]txnSpec, w.sessions)
	for s := range pools {
		pools[s] = w.gen(g, s, newRNG(seed, s))
	}
	return pools
}

// digest fingerprints a generated request stream, so two set-ups (or two
// runs) can prove they drive the program with identical inputs.
func digest(pools [][]txnSpec) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, pool := range pools {
		for _, t := range pool {
			put(uint64(len(t.reqs)))
			put(uint64(t.hold)<<32 | uint64(t.think))
			if t.readOnly {
				put(1)
			}
			for _, q := range t.reqs {
				put(uint64(q.table)<<8 | uint64(q.mode))
				put(q.row)
			}
		}
	}
	return h.Sum64()
}
