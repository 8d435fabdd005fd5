package main

import (
	"reflect"
	"testing"
)

func TestSelfTimesFlat(t *testing.T) {
	// A 100 ns transaction with three disjoint children covering 60 ns.
	group := []span{
		{Name: spanTxn, Start: 0, End: 100, Parent: -1},
		{Name: spanBegin, Start: 0, End: 10, Parent: 0},
		{Name: spanAcquire, Start: 20, End: 50, Parent: 0},
		{Name: spanCommit, Start: 80, End: 100, Parent: 0},
	}
	want := []int64{40, 10, 30, 20}
	if got := new(selfScratch).selfTimes(group); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestSelfTimesOverlapAndClip(t *testing.T) {
	// Overlapping children count once; a child reaching outside its parent
	// counts only inside it.
	group := []span{
		{Name: "root", Start: 100, End: 200, Parent: -1},
		{Name: "a", Start: 110, End: 150, Parent: 0},
		{Name: "b", Start: 140, End: 160, Parent: 0},
		{Name: "c", Start: 190, End: 230, Parent: 0},
	}
	// Covered: [110,160) + [190,200) = 60.
	if got := new(selfScratch).selfTimes(group)[0]; got != 40 {
		t.Errorf("root self = %d, want 40", got)
	}
}

func TestSelfTimesNested(t *testing.T) {
	// Grandchildren reduce their parent's self time, not the root's.
	group := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "child", Start: 10, End: 60, Parent: 0},
		{Name: "grandchild", Start: 20, End: 30, Parent: 1},
		{Name: "grandchild", Start: 40, End: 45, Parent: 1},
	}
	want := []int64{50, 35, 10, 5}
	if got := new(selfScratch).selfTimes(group); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestSelfTimesOutOfOrderChildren(t *testing.T) {
	group := []span{
		{Name: "root", Start: 0, End: 50, Parent: -1},
		{Name: "late", Start: 30, End: 40, Parent: 0},
		{Name: "early", Start: 0, End: 20, Parent: 0},
		{Name: "inside", Start: 5, End: 15, Parent: 0},
	}
	if got := new(selfScratch).selfTimes(group)[0]; got != 20 {
		t.Errorf("root self = %d, want 20", got)
	}
}

func TestTracerFoldAccumulates(t *testing.T) {
	tr := newTracer()
	for i := 0; i < 3; i++ {
		tr.fold([]span{
			{ID: uint64(i), Name: spanTxn, Start: 0, End: 10, Parent: -1},
			{ID: uint64(i), Name: spanCommit, Start: 6, End: 10, Parent: 0},
		})
	}
	if tr.selfNs[spanTxn] != 18 || tr.selfNs[spanCommit] != 12 {
		t.Errorf("self totals = %v, want txn 18, txn.commit 12", tr.selfNs)
	}
	if len(tr.kept) != 6 || tr.dropped != 0 {
		t.Errorf("kept %d dropped %d, want 6 and 0", len(tr.kept), tr.dropped)
	}
}
