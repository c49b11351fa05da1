package harness_test

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/stm"
	"repro/internal/workload"
)

// quick are run settings small enough for CI but long enough to
// exercise real contention, with the audit on.
var quick = harness.Options{
	Window: 40 * time.Millisecond,
	Warmup: 10 * time.Millisecond,
	Audit:  true,
}

// figureOf returns the figure whose application is structure.
func figureOf(t testing.TB, structure string) harness.Figure {
	t.Helper()
	for _, fig := range harness.Figures {
		if fig.Structure == structure {
			return fig
		}
	}
	t.Fatalf("no figure runs %q", structure)
	return harness.Figure{}
}

// zipfKeys builds a zipf key distribution with exponent s.
func zipfKeys(s float64) func(int) (workload.KeyDist, error) {
	return func(n int) (workload.KeyDist, error) { return workload.NewZipf(n, s) }
}

func TestRunProducesThroughput(t *testing.T) {
	for _, structure := range []string{"list", "skiplist", "rbtree"} {
		structure := structure
		t.Run(structure, func(t *testing.T) {
			point, err := harness.Run(figureOf(t, structure), "greedy", 2, quick)
			if err != nil {
				t.Fatal(err)
			}
			if point.Stats.Commits <= 0 {
				t.Fatalf("no commits measured: %+v", point)
			}
			if point.CommitsPerSec <= 0 {
				t.Fatalf("throughput = %f, want positive", point.CommitsPerSec)
			}
			if point.Structure != structure || point.Manager != "greedy" || point.Threads != 2 {
				t.Fatalf("point mislabelled: %+v", point)
			}
		})
	}
}

func TestRunForestWithAllUpdates(t *testing.T) {
	fig := figureOf(t, "rbforest")
	fig.ForestAllProb = 0.3
	opts := quick
	opts.Window = 60 * time.Millisecond
	point, err := harness.Run(fig, "greedy", 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if point.Stats.Commits <= 0 {
		t.Fatalf("no commits measured: %+v", point)
	}
}

func TestRunEveryFigureManager(t *testing.T) {
	for _, mgr := range []string{"eruption", "greedy", "aggressive", "backoff", "karma"} {
		mgr := mgr
		t.Run(mgr, func(t *testing.T) {
			point, err := harness.Run(figureOf(t, "list"), mgr, 3, quick)
			if err != nil {
				t.Fatal(err)
			}
			if point.Stats.Commits <= 0 {
				t.Fatalf("no commits under %s", mgr)
			}
		})
	}
}

func TestRunZipfKeys(t *testing.T) {
	fig := figureOf(t, "rbtree")
	fig.Keys = zipfKeys(1.2)
	point, err := harness.Run(fig, "greedy", 4, quick)
	if err != nil {
		t.Fatal(err)
	}
	if point.Stats.Commits <= 0 {
		t.Fatalf("no commits under zipf keys: %+v", point)
	}
	if point.KeyDist != "zipf(1.2)" {
		t.Fatalf("point carries key_dist %q, want zipf(1.2)", point.KeyDist)
	}
}

func TestRunRejectsUnknownInputs(t *testing.T) {
	if _, err := harness.Run(figureOf(t, "list"), "nonexistent", 1, quick); err == nil {
		t.Fatal("unknown manager accepted")
	}
}

// TestRunRejectsBadTiming: a window that measures nothing, a negative
// warmup and a point without workers are errors, not silently
// replaced by defaults.
func TestRunRejectsBadTiming(t *testing.T) {
	fig := figureOf(t, "list")
	for _, tc := range []struct {
		name    string
		threads int
		opts    harness.Options
	}{
		{"zero window", 1, harness.Options{Warmup: time.Millisecond}},
		{"negative window", 1, harness.Options{Window: -time.Millisecond}},
		{"negative warmup", 1, harness.Options{Window: time.Millisecond, Warmup: -time.Millisecond}},
		{"zero threads", 0, harness.Options{Window: time.Millisecond}},
	} {
		if _, err := harness.Run(fig, "greedy", tc.threads, tc.opts); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestTailWorkLowersThroughput(t *testing.T) {
	fig := figureOf(t, "rbtree")
	fig.TailWork = 0
	fast, err := harness.Run(fig, "greedy", 1, quick)
	if err != nil {
		t.Fatal(err)
	}
	fig.TailWork = 20000
	slow, err := harness.Run(fig, "greedy", 1, quick)
	if err != nil {
		t.Fatal(err)
	}
	if slow.CommitsPerSec >= fast.CommitsPerSec {
		t.Fatalf("tail work did not lower throughput: %.0f >= %.0f",
			slow.CommitsPerSec, fast.CommitsPerSec)
	}
}

func TestFigureByID(t *testing.T) {
	for id := 1; id <= 4; id++ {
		fig, err := harness.FigureByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if fig.ID != id {
			t.Fatalf("FigureByID(%d).ID = %d", id, fig.ID)
		}
	}
	if _, err := harness.FigureByID(len(harness.Figures) + 1); err == nil {
		t.Fatal("FigureByID past the last figure should fail")
	}
}

// TestFigureCoverage is the figure sweep's coverage contract: figures
// 1-10 all exist, the series every figure plots (core.FigureManagers)
// are the paper's five, the default thread sweep keeps the 1, 4, 64
// and 128 points CI measures, and every structure is the structure of
// exactly one figure — 10 figures x 5 managers x 4 thread counts, 200
// points per sweep.
func TestFigureCoverage(t *testing.T) {
	paperSeries := []string{"eruption", "greedy", "aggressive", "backoff", "karma"}
	if !slices.Equal(core.FigureManagers, paperSeries) {
		t.Errorf("core.FigureManagers = %v, want the paper's series %v", core.FigureManagers, paperSeries)
	}
	ids := map[int]bool{}
	figuresOf := map[string]int{}
	for _, fig := range harness.Figures {
		ids[fig.ID] = true
		figuresOf[fig.Structure]++
	}
	for id := 1; id <= 10; id++ {
		if !ids[id] {
			t.Errorf("figure %d is missing", id)
		}
	}
	for _, th := range []int{1, 4, 64, 128} {
		if !slices.Contains(harness.DefaultThreads, th) {
			t.Errorf("DefaultThreads %v lost the %d-thread point", harness.DefaultThreads, th)
		}
	}
	for s, n := range figuresOf {
		if n != 1 {
			t.Errorf("structure %q is the structure of %d figures, want exactly one", s, n)
		}
	}
}

func TestRunFigureTinySweep(t *testing.T) {
	fig, err := harness.FigureByID(1)
	if err != nil {
		t.Fatal(err)
	}
	var progressed int
	points, err := harness.RunFigure(fig, []string{"greedy", "aggressive"}, []int{1, 2}, harness.Options{
		Window:   25 * time.Millisecond,
		Warmup:   5 * time.Millisecond,
		Progress: func(harness.Point) { progressed++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("got %d points, want 4", len(points))
	}
	if progressed != 4 {
		t.Fatalf("progress callback fired %d times, want 4", progressed)
	}
}

func TestWriteTable(t *testing.T) {
	points := []harness.Point{
		{Structure: "list", Manager: "greedy", Threads: 1, CommitsPerSec: 1000},
		{Structure: "list", Manager: "greedy", Threads: 2, CommitsPerSec: 900},
		{Structure: "list", Manager: "karma", Threads: 1, CommitsPerSec: 800},
	}
	var tblBuf strings.Builder
	if err := harness.WriteTable(&tblBuf, "Figure 1: List application", points); err != nil {
		t.Fatal(err)
	}
	tbl := tblBuf.String()
	for _, want := range []string{"Figure 1", "greedy", "karma", "1000"} {
		if !strings.Contains(tbl, want) {
			t.Fatalf("table missing %q:\n%s", want, tbl)
		}
	}
	// karma has no 2-thread point: the table renders a dash, not a
	// stale or zero cell.
	if !strings.Contains(tbl, "-") {
		t.Fatalf("table missing placeholder for absent cell:\n%s", tbl)
	}
}

// TestWriteJSONKeys pins stmbench's -json key set: a point whose every
// counter is non-zero carries all of the untraced keys, and a traced
// point adds its attribution, hot_vars and hot_edges.
func TestWriteJSONKeys(t *testing.T) {
	untraced := []string{
		"abort_rate", "aborts", "aborts_cas_race", "aborts_enemy", "aborts_user",
		"aborts_validation", "aborts_validation_held", "backoff_ns", "commits", "commits_per_sec", "conflicts",
		"enemy_aborts", "figure", "key_dist", "lat_max_us", "lat_p50_us", "lat_p99_us",
		"manager", "mix", "structure", "threads", "wait_ns",
	}
	traced := append(slices.Clone(untraced), "hot_edges", "hot_vars")
	slices.Sort(traced)
	p := harness.Point{
		Figure: 8, Structure: "kv", Manager: "greedy", Threads: 4,
		Mix: "mixed", KeyDist: "zipf(1.07)", CommitsPerSec: 1000,
		Stats: stm.Stats{
			Commits: 100, Aborts: 6, AbortsEnemy: 3, AbortsValidation: 2, AbortsValidationHeld: 1,
			AbortsCASRace: 1, AbortsUser: 1, Conflicts: 9, EnemyAborts: 4, WaitNs: 5, BackoffNs: 7,
		},
	}
	p.Latency.Observe(time.Microsecond)
	q := p
	q.HotVars = []obs.HotObject{{Obj: "key:000001", Conflicts: 3}}
	q.HotEdges = []obs.ConflictEdge{{Self: "jobs:promote", Enemy: "jobs:complete", Decision: "wait", Count: 2}}
	var buf bytes.Buffer
	if err := harness.WriteJSON(&buf, []harness.Point{p, q}); err != nil {
		t.Fatal(err)
	}
	var rows []map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &rows); err != nil {
		t.Fatal(err)
	}
	for i, want := range [][]string{untraced, traced} {
		var got []string
		for k := range rows[i] {
			got = append(got, k)
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("row %d keys = %v\nwant %v", i, got, want)
		}
	}
}
