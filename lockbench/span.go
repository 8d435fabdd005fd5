package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

// Span names, one per call boundary the traced run records. spanTxn is the
// root of one logical transaction (its read-only retries included): Begin
// of the first attempt to the return of the final commit. The others are
// its children, except the control-plane spans, which are roots of their
// own.
const (
	spanTxn     = "txn"
	spanBegin   = "txn.begin"
	spanAcquire = "txn.acquire" // AcquireRow plus the Poll that reads its state
	spanWait    = "txn.wait"    // first OpWaiting to the Poll that sees the grant
	spanCommit  = "txn.commit"
	spanTick    = "engine.tick"
	spanTune    = "engine.tune"
)

// spanNames lists every span name in report order.
var spanNames = []string{spanTxn, spanBegin, spanAcquire, spanWait, spanCommit, spanTick, spanTune}

// span is one recorded interval. Spans of one transaction share id; parent
// is the index of the parent span within the same group, or -1 for a root.
type span struct {
	ID     uint64 `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// selfScratch holds selfTimes' buffers, so a tracer folding a group per
// transaction does not allocate per transaction.
type selfScratch struct {
	first []int // first[p]..first[p+1] index kids for parent p
	fill  []int
	kids  []int
	ivs   [][2]int64
	self  []int64
}

// selfTimes returns, for each span of one group, its duration minus the
// part of its interval covered by its children: the union of their
// intervals clipped to the parent, so overlapping children count once.
// The result is valid until the next call.
func (sc *selfScratch) selfTimes(group []span) []int64 {
	n := len(group)
	sc.first = append(sc.first[:0], make([]int, n+1)...)
	for _, s := range group {
		if s.Parent >= 0 {
			sc.first[s.Parent+1]++
		}
	}
	for p := 0; p < n; p++ {
		sc.first[p+1] += sc.first[p]
	}
	sc.kids = append(sc.kids[:0], make([]int, sc.first[n])...)
	sc.fill = append(sc.fill[:0], sc.first[:n]...)
	for i, s := range group {
		if s.Parent >= 0 {
			sc.kids[sc.fill[s.Parent]] = i
			sc.fill[s.Parent]++
		}
	}
	sc.self = sc.self[:0]
	for p, s := range group {
		sc.ivs = sc.ivs[:0]
		for _, k := range sc.kids[sc.first[p]:sc.first[p+1]] {
			sc.ivs = append(sc.ivs, [2]int64{group[k].Start, group[k].End})
		}
		sc.self = append(sc.self, s.End-s.Start-covered(s.Start, s.End, sc.ivs))
	}
	return sc.self
}

// covered returns how much of [lo, hi) the union of ivs covers. It sorts
// ivs in place.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	slices.SortFunc(ivs, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total int64
	curLo, curHi := int64(0), int64(0)
	open := false
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a >= b {
			continue
		}
		if open && a <= curHi {
			curHi = max(curHi, b)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// tracer keeps one driver's spans in memory. Each closed group's self
// times are folded into per-name totals; the spans themselves are kept up
// to a fixed budget and written out when the run ends.
type tracer struct {
	kept    []span
	dropped int64
	selfNs  map[string]int64
	sc      selfScratch
}

// keepSpans bounds the spans one driver keeps for the trace file, so a
// fast workload cannot grow the heap without limit.
const keepSpans = 1 << 15

func newTracer() *tracer {
	return &tracer{kept: make([]span, 0, keepSpans), selfNs: make(map[string]int64)}
}

// fold accounts one closed group: a root span at index 0 and its children.
func (t *tracer) fold(group []span) {
	for i, st := range t.sc.selfTimes(group) {
		t.selfNs[group[i].Name] += st
	}
	if keepSpans-len(t.kept) >= len(group) {
		t.kept = append(t.kept, group...)
	} else {
		t.dropped += int64(len(group))
	}
}

// writeSpans writes the kept spans of every tracer as JSON lines.
func writeSpans(path string, ts []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range ts {
		for _, s := range t.kept {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return fmt.Errorf("write trace: %w", err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
