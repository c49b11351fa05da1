package harness_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/workload"
)

// containerStructures are the applications served by
// internal/container: Figures 5-7.
var containerStructures = []string{"hashset", "queue", "omap"}

func TestRunContainerStructures(t *testing.T) {
	for _, structure := range containerStructures {
		structure := structure
		t.Run(structure, func(t *testing.T) {
			fig := figureOf(t, structure)
			point, err := harness.Run(fig, "greedy", 2, quick)
			if err != nil {
				t.Fatal(err)
			}
			if point.Stats.Commits <= 0 {
				t.Fatalf("no commits measured: %+v", point)
			}
			if point.Structure != structure || point.Manager != "greedy" || point.Threads != 2 {
				t.Fatalf("point mislabelled: %+v", point)
			}
			if point.Mix == "" || point.Mix != fig.Mix.Name() {
				t.Fatalf("container point carries mix %q, want the figure's %q", point.Mix, fig.Mix.Name())
			}
		})
	}
}

// mustMix builds a mix from weights.
func mustMix(t testing.TB, lookup, insert, delete, rang float64) workload.OpMix {
	t.Helper()
	m, err := workload.NewOpMix(lookup, insert, delete, rang)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRunContainerMixes runs every container application under a
// read-heavy mix, the kv figures' mixed mix and a range-heavy mix, and
// checks each point reports the mix it ran.
func TestRunContainerMixes(t *testing.T) {
	for _, tc := range []struct {
		name string
		mix  workload.OpMix
	}{
		{"readheavy", mustMix(t, 0.90, 0.05, 0.05, 0)},
		{"mixed", workload.MixedMix},
		{"rangeheavy", mustMix(t, 0.20, 0.20, 0.20, 0.40)},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, structure := range containerStructures {
				fig := figureOf(t, structure)
				fig.Mix = tc.mix
				point, err := harness.Run(fig, "karma", 2, quick)
				if err != nil {
					t.Fatal(err)
				}
				if point.Stats.Commits <= 0 {
					t.Fatalf("%s/%s: no commits measured", structure, tc.name)
				}
				if point.Mix != tc.mix.Name() {
					t.Fatalf("%s: point carries mix %q, want %q", structure, point.Mix, tc.mix.Name())
				}
			}
		})
	}
}

func TestRunContainerZipf(t *testing.T) {
	fig := figureOf(t, "omap")
	fig.Keys = zipfKeys(1.2)
	fig.Mix = workload.MixedMix
	point, err := harness.Run(fig, "greedy", 4, quick)
	if err != nil {
		t.Fatal(err)
	}
	if point.Stats.Commits <= 0 {
		t.Fatalf("no commits under zipf keys: %+v", point)
	}
}

// TestRunKVStructure runs the kv application — the harness's first
// string-keyed workload — under both key distributions, with the
// audit on so the store's shard/bucket invariants are verified after
// the run, and checks the point records its distribution (empty for
// uniform, named with the sampler's own exponent for skew).
func TestRunKVStructure(t *testing.T) {
	fig := figureOf(t, "kv")
	uniform := fig
	uniform.Keys = workload.NewUniform
	point, err := harness.Run(uniform, "greedy", 4, quick)
	if err != nil {
		t.Fatal(err)
	}
	if point.Stats.Commits <= 0 {
		t.Fatalf("no commits measured: %+v", point)
	}
	if point.KeyDist != "" {
		t.Fatalf("uniform point carries key_dist %q, want empty", point.KeyDist)
	}
	point, err = harness.Run(fig, "greedy", 4, quick)
	if err != nil {
		t.Fatal(err)
	}
	if point.Stats.Commits <= 0 {
		t.Fatalf("no commits under zipf: %+v", point)
	}
	if point.KeyDist != "zipf(1.07)" {
		t.Fatalf("zipf point carries key_dist %q, want %q", point.KeyDist, "zipf(1.07)")
	}
}

// TestRunKVWALStructure runs the durable kv application (Figure 9's
// workload): every measured write is captured and logged to a real
// write-ahead log in a scratch directory, with the audit on. The
// closer hook closes the log and removes the scratch directory after
// the run.
func TestRunKVWALStructure(t *testing.T) {
	point, err := harness.Run(figureOf(t, "kvwal"), "greedy", 4, quick)
	if err != nil {
		t.Fatal(err)
	}
	if point.Stats.Commits <= 0 {
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
	point, err := harness.Run(figureOf(t, "jobs"), "greedy", 4, quick)
	if err != nil {
		t.Fatal(err)
	}
	if point.Stats.Commits <= 0 {
		t.Fatalf("no commits measured: %+v", point)
	}
	if point.Structure != "jobs" {
		t.Fatalf("point structure %q, want jobs", point.Structure)
	}
	if point.Mix != "" {
		t.Fatalf("jobs point carries mix %q, want empty (fixed pipeline mix)", point.Mix)
	}
}

// sweep are the settings of the figure sweeps below.
var sweep = harness.Options{
	Window: 25 * time.Millisecond,
	Warmup: 5 * time.Millisecond,
	Audit:  true,
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
	points, err := harness.RunFigure(fig, []string{"greedy", "karma"}, []int{1, 4}, sweep)
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

// TestKVFigureDefaultsToSkew: a figure is its definition. Figure 8
// run with only a thread override plots every core.FigureManagers
// series, in order, on the figure's own mixed op mix and zipf keys.
func TestKVFigureDefaultsToSkew(t *testing.T) {
	fig, err := harness.FigureByID(8)
	if err != nil {
		t.Fatal(err)
	}
	points, err := harness.RunFigure(fig, nil, []int{1}, sweep)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(core.FigureManagers) {
		t.Fatalf("figure 8 produced %d points, want one per manager %v", len(points), core.FigureManagers)
	}
	for i, p := range points {
		if p.Manager != core.FigureManagers[i] || p.Threads != 1 || p.Structure != "kv" {
			t.Fatalf("point %d = %s/%s x%d, want kv/%s x1", i, p.Structure, p.Manager, p.Threads, core.FigureManagers[i])
		}
		if p.Mix != "mixed" || p.KeyDist != "zipf(1.07)" {
			t.Fatalf("point %d labelled %q/%q, want mixed/zipf(1.07)", i, p.Mix, p.KeyDist)
		}
	}
}

// TestIntsetIgnoresMixLabel: the intset figures run the paper's fixed
// update workload, so their points carry no mix label.
func TestIntsetIgnoresMixLabel(t *testing.T) {
	point, err := harness.Run(figureOf(t, "list"), "greedy", 1, quick)
	if err != nil {
		t.Fatal(err)
	}
	if point.Mix != "" {
		t.Fatalf("intset point carries mix %q, want empty (fixed paper workload)", point.Mix)
	}
}

func TestContainerFigureSweep(t *testing.T) {
	fig, err := harness.FigureByID(6) // the queue figure
	if err != nil {
		t.Fatal(err)
	}
	points, err := harness.RunFigure(fig, []string{"greedy", "karma"}, []int{1, 2}, sweep)
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
