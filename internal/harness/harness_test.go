package harness_test

import (
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
)

// quickCfg returns a configuration small enough for CI but large
// enough to exercise real contention.
func quickCfg(structure, manager string, threads int) harness.Config {
	return harness.Config{
		Structure: structure,
		Manager:   manager,
		Threads:   threads,
		Duration:  40 * time.Millisecond,
		Warmup:    10 * time.Millisecond,
		KeyRange:  64,
		Audit:     true,
	}
}

func TestRunProducesThroughput(t *testing.T) {
	for _, structure := range []string{"list", "skiplist", "rbtree"} {
		structure := structure
		t.Run(structure, func(t *testing.T) {
			point, err := harness.Run(quickCfg(structure, "greedy", 2))
			if err != nil {
				t.Fatal(err)
			}
			if point.Commits <= 0 {
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
	cfg := quickCfg("rbforest", "greedy", 2)
	cfg.ForestAllProb = 0.3
	cfg.Duration = 60 * time.Millisecond
	point, err := harness.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if point.Commits <= 0 {
		t.Fatalf("no commits measured: %+v", point)
	}
}

func TestRunEveryFigureManager(t *testing.T) {
	for _, mgr := range []string{"eruption", "greedy", "aggressive", "backoff", "karma"} {
		mgr := mgr
		t.Run(mgr, func(t *testing.T) {
			point, err := harness.Run(quickCfg("list", mgr, 3))
			if err != nil {
				t.Fatal(err)
			}
			if point.Commits <= 0 {
				t.Fatalf("no commits under %s", mgr)
			}
		})
	}
}

func TestRunZipfKeys(t *testing.T) {
	cfg := quickCfg("rbtree", "greedy", 4)
	cfg.KeyDist = "zipf:1.2"
	point, err := harness.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if point.Commits <= 0 {
		t.Fatalf("no commits under zipf keys: %+v", point)
	}
}

func TestRunRejectsBadKeyDist(t *testing.T) {
	cfg := quickCfg("list", "greedy", 1)
	cfg.KeyDist = "pareto"
	if _, err := harness.Run(cfg); err == nil {
		t.Fatal("unknown key distribution accepted")
	}
}

func TestRunRejectsUnknownInputs(t *testing.T) {
	if _, err := harness.Run(quickCfg("btree", "greedy", 1)); err == nil {
		t.Fatal("unknown structure accepted")
	}
	if _, err := harness.Run(quickCfg("list", "nonexistent", 1)); err == nil {
		t.Fatal("unknown manager accepted")
	}
}

func TestTailWorkLowersThroughput(t *testing.T) {
	fast, err := harness.Run(quickCfg("rbtree", "greedy", 1))
	if err != nil {
		t.Fatal(err)
	}
	slowCfg := quickCfg("rbtree", "greedy", 1)
	slowCfg.TailWork = 20000
	slow, err := harness.Run(slowCfg)
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
		if len(fig.Managers) != 5 {
			t.Fatalf("figure %d has %d managers, want the paper's 5", id, len(fig.Managers))
		}
	}
	if _, err := harness.FigureByID(len(harness.Figures) + 1); err == nil {
		t.Fatal("FigureByID past the last figure should fail")
	}
}

// TestFigureCoverage is the figure sweep's coverage contract: figures
// 1-10 all exist, each plots the paper's five manager series, the
// default thread sweep keeps the 1, 4, 64 and 128 points CI measures,
// and every structure is the structure of exactly one figure — 10
// figures x 5 managers x 4 thread counts, 200 points per sweep.
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
		if !slices.Equal(fig.Managers, core.FigureManagers) {
			t.Errorf("figure %d plots %v, want core.FigureManagers %v", fig.ID, fig.Managers, core.FigureManagers)
		}
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
	for _, s := range harness.Structures() {
		if n := figuresOf[s]; n != 1 {
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
	points, err := harness.RunFigure(fig, harness.FigureOptions{
		Duration: 25 * time.Millisecond,
		Warmup:   5 * time.Millisecond,
		Threads:  []int{1, 2},
		Managers: []string{"greedy", "aggressive"},
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
		{Structure: "list", Manager: "greedy", Threads: 1, CommitsPerSec: 1000, Commits: 100},
		{Structure: "list", Manager: "greedy", Threads: 2, CommitsPerSec: 900, Commits: 90},
		{Structure: "list", Manager: "karma", Threads: 1, CommitsPerSec: 800, Commits: 80},
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
