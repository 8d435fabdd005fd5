package lockmgr

import (
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// heldWall matches the one wall-clock field of a flight event: a sampled
// release's hold time.
var heldWall = regexp.MustCompile(`held=[0-9.]+[a-zµ]+`)

// serveFlight returns the /debug/flight response body for the query, with
// hold times (wall clock) masked.
func serveFlight(m *Manager, query string) string {
	mux := obs.NewMux(obs.Handlers{Flight: func(q obs.FlightQuery) any {
		return m.FlightEvents(q.Shard, q.Last)
	}})
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/flight"+query, nil))
	return heldWall.ReplaceAllString(rec.Body.String(), "held=<wall>")
}

// TestFlightDebugGolden pins the /debug/flight output byte for byte across
// every event the flight recorder writes: a queued wait, a culled wait, a
// conversion wait, grants after each, a sampled latched release, a sampled
// fast-path release, and an escalation. Everything but the masked hold
// times runs on the simulated clock, so the body is deterministic.
func TestFlightDebugGolden(t *testing.T) {
	clk := clock.NewSim()
	m := New(Config{InitialPages: 64, Clock: clk, Shards: 4, Throttle: 1, ObsSampleStride: 1})
	app := m.RegisterApp()
	h, w1, w2 := m.NewOwner(app), m.NewOwner(app), m.NewOwner(app)
	a := RowName(1, 1)
	mustGrant(t, m.AcquireAsync(h, a, ModeX, 1), "h X")
	p1 := m.AcquireAsync(w1, a, ModeS, 1)
	mustWait(t, p1, "w1 queued")
	p2 := m.AcquireAsync(w2, a, ModeS, 1)
	mustWait(t, p2, "w2 culled")
	clk.Advance(time.Millisecond)
	m.ReleaseAll(h)
	mustGrant(t, p1, "w1 after h")
	mustGrant(t, p2, "w2 after h")
	m.ReleaseAll(w1)
	m.ReleaseAll(w2)

	c1, c2 := m.NewOwner(app), m.NewOwner(app)
	b := RowName(2, 2)
	mustGrant(t, m.AcquireAsync(c1, b, ModeS, 1), "c1 S")
	mustGrant(t, m.AcquireAsync(c2, b, ModeS, 1), "c2 S")
	pc := m.AcquireAsync(c1, b, ModeX, 1)
	mustWait(t, pc, "c1 converting")
	clk.Advance(2 * time.Millisecond)
	m.ReleaseAll(c2)
	mustGrant(t, pc, "c1 converted")
	m.ReleaseAll(c1)

	// A table intent header publishes at its first grant, so the second
	// owner's IS is a grant-word admission and its Release the fast one.
	r1, r2 := m.NewOwner(app), m.NewOwner(app)
	tab := TableName(3)
	mustGrant(t, m.AcquireAsync(r1, tab, ModeIS, 1), "r1 IS")
	if err := m.Release(r1, tab); err != nil {
		t.Fatal(err)
	}
	mustGrant(t, m.AcquireAsync(r2, tab, ModeIS, 1), "r2 IS")
	if err := m.Release(r2, tab); err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(r1)
	m.ReleaseAll(r2)

	// Escalation: a 10% quota on a small LOCKLIST.
	me := New(Config{InitialPages: 32, Clock: clock.NewSim(), Shards: 4, Quota: fixedQuota(10)})
	o := me.NewOwner(me.RegisterApp())
	mustGrant(t, me.AcquireAsync(o, TableName(1), ModeIS, 1), "intent")
	for i := 0; me.Stats().Escalations == 0; i++ {
		if i > 400 {
			t.Fatal("no escalation")
		}
		mustGrant(t, me.AcquireAsync(o, RowName(1, uint64(i)), ModeS, 1), "row")
	}
	me.ReleaseAll(o)

	var got strings.Builder
	for _, q := range []string{"", "?last=3", "?shard=1"} {
		got.WriteString("GET /debug/flight" + q + "\n" + serveFlight(m, q))
	}
	got.WriteString("GET /debug/flight (escalation)\n" + serveFlight(me, ""))

	golden := filepath.Join("testdata", "flight.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got.String() != string(want) {
		t.Errorf("/debug/flight output drifted from golden file (run with -update to accept):\n--- got ---\n%s", got.String())
	}
}
