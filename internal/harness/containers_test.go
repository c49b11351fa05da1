package harness_test

import (
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/workload"
)

func TestRunContainerStructures(t *testing.T) {
	for _, structure := range harness.ContainerStructures {
		structure := structure
		t.Run(structure, func(t *testing.T) {
			point, err := harness.Run(quickCfg(structure, "greedy", 2))
			if err != nil {
				t.Fatal(err)
			}
			if point.Commits <= 0 {
				t.Fatalf("no commits measured: %+v", point)
			}
			if point.Structure != structure || point.Manager != "greedy" || point.Threads != 2 {
				t.Fatalf("point mislabelled: %+v", point)
			}
			if point.Mix != "update" {
				t.Fatalf("container point carries mix %q, want %q", point.Mix, "update")
			}
		})
	}
}

func TestRunContainerMixes(t *testing.T) {
	for _, mix := range []string{"readheavy", "mixed", "rangeheavy"} {
		mix := mix
		t.Run(mix, func(t *testing.T) {
			for _, structure := range harness.ContainerStructures {
				cfg := quickCfg(structure, "karma", 2)
				cfg.Mix = mix
				point, err := harness.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if point.Commits <= 0 {
					t.Fatalf("%s/%s: no commits measured", structure, mix)
				}
				if point.Mix != mix {
					t.Fatalf("%s: point carries mix %q, want %q", structure, point.Mix, mix)
				}
			}
		})
	}
}

func TestRunContainerZipf(t *testing.T) {
	cfg := quickCfg("omap", "greedy", 4)
	cfg.KeyDist = "zipf:1.2"
	cfg.Mix = "mixed"
	point, err := harness.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if point.Commits <= 0 {
		t.Fatalf("no commits under zipf keys: %+v", point)
	}
}

// TestRunKVStructure runs the kv application — the harness's first
// string-keyed workload — under both key distributions, with the
// audit on so the store's shard/bucket invariants are verified after
// the run, and checks the point records its distribution (empty for
// uniform, named for skew).
func TestRunKVStructure(t *testing.T) {
	cfg := quickCfg("kv", "greedy", 4)
	cfg.Mix = "mixed"
	cfg.Audit = true
	point, err := harness.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if point.Commits <= 0 {
		t.Fatalf("no commits measured: %+v", point)
	}
	if point.KeyDist != "" {
		t.Fatalf("uniform point carries key_dist %q, want empty", point.KeyDist)
	}
	cfg.KeyDist = "zipf"
	point, err = harness.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if point.Commits <= 0 {
		t.Fatalf("no commits under zipf: %+v", point)
	}
	if point.KeyDist != "zipf(1.1)" {
		t.Fatalf("zipf point carries key_dist %q, want %q", point.KeyDist, "zipf(1.1)")
	}
}

// TestRunKVWALStructure runs the durable kv application (Figure 9's
// workload): every measured write is captured and logged to a real
// write-ahead log in a scratch directory, with binary-hostile keys so
// the whole measured path — hashing, chains, WAL framing — handles
// arbitrary bytes, and the audit on. The closer hook removes the
// scratch directory after the run.
func TestRunKVWALStructure(t *testing.T) {
	cfg := quickCfg("kvwal", "greedy", 4)
	cfg.Mix = "mixed"
	cfg.KeyDist = "zipf"
	cfg.BinaryKeys = true
	cfg.Audit = true
	point, err := harness.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if point.Commits <= 0 {
		t.Fatalf("no commits measured: %+v", point)
	}
	if point.Structure != "kvwal" {
		t.Fatalf("point structure %q, want kvwal", point.Structure)
	}
}

// TestRunJobsStructure runs the cross-type pipeline (Figure 10's
// workload): every measured transaction spans at least two container
// kinds, and the audit checks job conservation — submitted == pending
// + active + done — in one consistent snapshot plus the store's
// structural invariants.
func TestRunJobsStructure(t *testing.T) {
	cfg := quickCfg("jobs", "greedy", 4)
	cfg.Audit = true
	point, err := harness.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if point.Commits <= 0 {
		t.Fatalf("no commits measured: %+v", point)
	}
	if point.Structure != "jobs" {
		t.Fatalf("point structure %q, want jobs", point.Structure)
	}
	if point.Mix != "" {
		t.Fatalf("jobs point carries mix %q, want empty (fixed pipeline mix)", point.Mix)
	}
}

// TestJobsFigureSweep runs Figure 10 across two managers and checks
// labelling, with the conservation audit on at every point.
func TestJobsFigureSweep(t *testing.T) {
	fig, err := harness.FigureByID(10)
	if err != nil {
		t.Fatal(err)
	}
	if fig.Structure != "jobs" {
		t.Fatalf("figure 10 = %+v, want jobs", fig)
	}
	points, err := harness.RunFigure(fig, harness.FigureOptions{
		Duration: 25 * time.Millisecond,
		Warmup:   5 * time.Millisecond,
		Threads:  []int{1, 4},
		Managers: []string{"greedy", "karma"},
		Audit:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("sweep produced %d points, want 4", len(points))
	}
	for _, p := range points {
		if p.Figure != 10 || p.Structure != "jobs" {
			t.Fatalf("point mislabelled: %+v", p)
		}
		if p.CommitsPerSec <= 0 {
			t.Fatalf("no throughput at %+v", p)
		}
	}
}

// TestKVFigureDefaultsToSkew: figure 8 runs zipf unless the caller
// overrides, and an explicit override wins.
func TestKVFigureDefaultsToSkew(t *testing.T) {
	fig, err := harness.FigureByID(8)
	if err != nil {
		t.Fatal(err)
	}
	if fig.Structure != "kv" || fig.KeyDist != "zipf" {
		t.Fatalf("figure 8 = %+v, want kv/zipf", fig)
	}
	points, err := harness.RunFigure(fig, harness.FigureOptions{
		Duration: 25 * time.Millisecond,
		Warmup:   5 * time.Millisecond,
		Threads:  []int{2},
		Managers: []string{"greedy"},
		Audit:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 || points[0].KeyDist != "zipf(1.1)" {
		t.Fatalf("figure 8 points = %+v, want one zipf(1.1) point", points)
	}
	points, err = harness.RunFigure(fig, harness.FigureOptions{
		Duration: 25 * time.Millisecond,
		Warmup:   5 * time.Millisecond,
		Threads:  []int{2},
		Managers: []string{"greedy"},
		KeyDist:  "uniform",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 || points[0].KeyDist != "" {
		t.Fatalf("override points = %+v, want one uniform point", points)
	}
}

func TestRunRejectsBadMix(t *testing.T) {
	cfg := quickCfg("hashset", "greedy", 1)
	cfg.Mix = "writeonly"
	if _, err := harness.Run(cfg); err == nil {
		t.Fatal("unknown op mix accepted")
	}
}

func TestIntsetIgnoresMixLabel(t *testing.T) {
	cfg := quickCfg("list", "greedy", 1)
	cfg.Mix = "readheavy"
	point, err := harness.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if point.Mix != "" {
		t.Fatalf("intset point carries mix %q, want empty (fixed paper workload)", point.Mix)
	}
}

func TestStructuresListsEverything(t *testing.T) {
	got := harness.Structures()
	want := []string{"list", "skiplist", "rbtree", "rbforest", "hashset", "queue", "omap", "kv", "kvwal", "jobs"}
	if len(got) != len(want) {
		t.Fatalf("Structures() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Structures()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestContainerFigureSweep(t *testing.T) {
	fig, err := harness.FigureByID(6) // the queue figure
	if err != nil {
		t.Fatal(err)
	}
	points, err := harness.RunFigure(fig, harness.FigureOptions{
		Duration: 25 * time.Millisecond,
		Warmup:   5 * time.Millisecond,
		Threads:  []int{1, 2},
		Managers: []string{"greedy", "karma"},
		Audit:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("sweep produced %d points, want 4", len(points))
	}
	for _, p := range points {
		if p.Figure != 6 || p.Structure != "queue" {
			t.Fatalf("point mislabelled: %+v", p)
		}
		if p.CommitsPerSec <= 0 {
			t.Fatalf("no throughput at %+v", p)
		}
	}
}

// TestMixPresetsExported pins the preset names the harness documents
// to what workload actually exports.
func TestMixPresetsExported(t *testing.T) {
	for _, m := range []workload.OpMix{workload.UpdateMix, workload.ReadHeavyMix, workload.MixedMix, workload.RangeMix} {
		if _, err := workload.NewOpMix(m.Name()); err != nil {
			t.Fatalf("preset %q not reachable by name: %v", m.Name(), err)
		}
	}
}
