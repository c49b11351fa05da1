package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/workload"
)

// Figure is one evaluation figure: which benchmark application, on
// which workload, under which contention scenario. Every figure plots
// the same series, core.FigureManagers, against DefaultThreads; one
// point of it is (Figure, manager, threads), run by Run.
type Figure struct {
	// ID is the figure number: 1-4 are the paper's, 5-7 the container
	// extensions, 8-10 the kv-store applications.
	ID int
	// Name is the caption.
	Name string
	// Structure names the application in points and in stmbench -list.
	Structure string
	// App builds a fresh application for one run, drawing keys from
	// keys.
	App func(fig Figure, keys workload.KeyDist) app
	// Mix is the container op mix. The intset and jobs figures run a
	// fixed workload and leave it zero, so their points carry no mix.
	Mix workload.OpMix
	// Keys builds the key distribution over a universe of n keys:
	// uniform is the paper's workload; the kv figures run zipf, since
	// real key-value traffic concentrates on hot keys.
	Keys func(n int) (workload.KeyDist, error)
	// TailWork adds an uncontended computation of roughly TailWork
	// arithmetic steps at the end of every transaction, reproducing
	// Figure 3's low-contention scenario ("threads perform
	// computations unrelated to the effective transactions at the
	// end"); zero elsewhere.
	TailWork int
	// ForestAllProb is the probability that a red-black forest
	// operation updates all trees rather than one, producing the
	// high-variance transaction lengths of Figure 4. Only the forest
	// reads it.
	ForestAllProb float64
}

// zipf is the kv figures' key distribution: exponent 1.07, a common
// web-workload skew.
func zipf(n int) (workload.KeyDist, error) { return workload.NewZipf(n, 1.07) }

// DefaultThreads samples the paper's 1..32 thread range, extended
// with 64- and 128-goroutine points: the striped commit protocol
// removed the global writer-commit lock that made thread counts past
// 32 meaningless, so the sweeps now measure the post-paper range too.
var DefaultThreads = []int{1, 2, 4, 8, 16, 24, 32, 64, 128}

// Figures are the paper's four evaluation figures (1-4) plus the
// container-subsystem extensions (5-7) and the kv-store applications
// (8-10): the same manager series over the contention profiles the
// paper's structures cannot produce — disjoint hash buckets, a
// FIFO whose two ends are hot spots, skip-list range scans competing with
// point writers, skewed string keys, a logged store and a cross-type
// job pipeline. Every structure is the structure of exactly one
// figure; TestFigureCoverage pins that and the rest of what a sweep
// must cover.
var Figures = []Figure{
	{
		ID:        1,
		Name:      "List application",
		Structure: "list",
		App:       newList,
		Keys:      workload.NewUniform,
	},
	{
		ID:        2,
		Name:      "Skiplist application",
		Structure: "skiplist",
		App:       newSkipList,
		Keys:      workload.NewUniform,
	},
	{
		ID:        3,
		Name:      "Red-black application (low contention)",
		Structure: "rbtree",
		App:       newRBTree,
		Keys:      workload.NewUniform,
		TailWork:  4000,
	},
	{
		ID:            4,
		Name:          "Red-black forest application",
		Structure:     "rbforest",
		App:           newRBForest,
		Keys:          workload.NewUniform,
		ForestAllProb: 0.1,
	},
	{
		ID:        5,
		Name:      "Hash set application (disjoint buckets)",
		Structure: "hashset",
		App:       newHashSet,
		Mix:       workload.UpdateMix,
		Keys:      workload.NewUniform,
	},
	{
		ID:        6,
		Name:      "FIFO queue application (head/tail hot spots)",
		Structure: "queue",
		App:       newQueue,
		Mix:       workload.UpdateMix,
		Keys:      workload.NewUniform,
	},
	{
		ID:        7,
		Name:      "Ordered map application (range scans vs point writes)",
		Structure: "omap",
		App:       newOMap,
		Mix:       workload.MixedMix,
		Keys:      workload.NewUniform,
	},
	{
		ID:        8,
		Name:      "KV store application (string keys, skewed traffic)",
		Structure: "kv",
		App:       newKV,
		Mix:       workload.MixedMix,
		Keys:      zipf,
	},
	{
		ID:        9,
		Name:      "KV store with write-ahead logging (group commit, async ack)",
		Structure: "kvwal",
		App:       newKVWAL,
		Mix:       workload.MixedMix,
		Keys:      zipf,
	},
	{
		ID:        10,
		Name:      "Cross-type job pipeline (list, zset and hash in one transaction)",
		Structure: "jobs",
		App:       newJobs,
		Keys:      workload.NewUniform,
	},
}

// FigureByID returns the figure definition for the paper's figure
// number.
func FigureByID(id int) (Figure, error) {
	for _, f := range Figures {
		if f.ID == id {
			return f, nil
		}
	}
	return Figure{}, fmt.Errorf("harness: no figure %d (have 1-%d)", id, len(Figures))
}

// RunFigure measures every (manager, threads) point of the figure,
// in manager-major order. Empty managers run core.FigureManagers and
// empty threads run DefaultThreads.
func RunFigure(fig Figure, managers []string, threads []int, opts Options) ([]Point, error) {
	if len(managers) == 0 {
		managers = core.FigureManagers
	}
	if len(threads) == 0 {
		threads = DefaultThreads
	}
	var points []Point
	for _, mgr := range managers {
		for _, th := range threads {
			point, err := Run(fig, mgr, th, opts)
			if err != nil {
				return nil, fmt.Errorf("figure %d, %s x%d: %w", fig.ID, mgr, th, err)
			}
			points = append(points, point)
		}
	}
	return points, nil
}
