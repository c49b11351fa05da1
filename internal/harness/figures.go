package harness

import (
	"fmt"
	"time"

	"repro/internal/core"
)

// Figure describes one evaluation figure: which benchmark
// application under which contention scenario. Every figure plots the
// same series, core.FigureManagers, against DefaultThreads.
type Figure struct {
	// ID is the figure number: 1-4 are the paper's, 5-7 the container
	// extensions, 8-10 the kv-store applications.
	ID int
	// Name is the caption.
	Name string
	// Structure is the benchmark application.
	Structure string
	// Mix is the container op mix (see Config.Mix); empty selects the
	// default update mix, and the intset structures ignore it.
	Mix string
	// KeyDist is the figure's key distribution (see Config.KeyDist);
	// empty selects uniform, the paper's workload. The kv figures run
	// skewed traffic — real key-value traffic concentrates on hot keys.
	KeyDist string
	// TailWork is the uncontended in-transaction tail (Figure 3's low
	// contention scenario); zero elsewhere.
	TailWork int
	// ForestAllProb applies to the forest only.
	ForestAllProb float64
}

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
	},
	{
		ID:        2,
		Name:      "Skiplist application",
		Structure: "skiplist",
	},
	{
		ID:        3,
		Name:      "Red-black application (low contention)",
		Structure: "rbtree",
		TailWork:  4000,
	},
	{
		ID:            4,
		Name:          "Red-black forest application",
		Structure:     "rbforest",
		ForestAllProb: 0.1,
	},
	{
		ID:        5,
		Name:      "Hash set application (disjoint buckets)",
		Structure: "hashset",
		Mix:       "update",
	},
	{
		ID:        6,
		Name:      "FIFO queue application (head/tail hot spots)",
		Structure: "queue",
		Mix:       "update",
	},
	{
		ID:        7,
		Name:      "Ordered map application (range scans vs point writes)",
		Structure: "omap",
		Mix:       "mixed",
	},
	{
		ID:        8,
		Name:      "KV store application (string keys, skewed traffic)",
		Structure: "kv",
		Mix:       "mixed",
		KeyDist:   "zipf",
	},
	{
		ID:        9,
		Name:      "KV store with write-ahead logging (group commit, async ack)",
		Structure: "kvwal",
		Mix:       "mixed",
		KeyDist:   "zipf",
	},
	{
		ID:        10,
		Name:      "Cross-type job pipeline (list, zset and hash in one transaction)",
		Structure: "jobs",
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

// FigureOptions tune a figure run without changing what it measures.
type FigureOptions struct {
	// Duration per point (default 300ms).
	Duration time.Duration
	// Warmup per point (default 50ms).
	Warmup time.Duration
	// Threads overrides DefaultThreads when non-empty.
	Threads []int
	// Managers overrides core.FigureManagers when non-empty.
	Managers []string
	// Seed for workload reproducibility.
	Seed uint64
	// Audit structural integrity after every point.
	Audit bool
	// TxTrace samples 1 in N transactions into the flight recorder's
	// conflict matrix (see Config.TxTrace); zero disables tracing.
	TxTrace int
	// Progress, when non-nil, receives each point as it completes.
	Progress func(Point)
}

// RunFigure measures every (manager, threads) point of the figure and
// returns the points grouped in manager-major order.
func RunFigure(fig Figure, opts FigureOptions) ([]Point, error) {
	threads := DefaultThreads
	if len(opts.Threads) > 0 {
		threads = opts.Threads
	}
	managers := core.FigureManagers
	if len(opts.Managers) > 0 {
		managers = opts.Managers
	}
	var points []Point
	for _, mgr := range managers {
		for _, th := range threads {
			cfg := Config{
				Structure:     fig.Structure,
				Manager:       mgr,
				Threads:       th,
				Duration:      opts.Duration,
				Warmup:        opts.Warmup,
				TailWork:      fig.TailWork,
				ForestAllProb: fig.ForestAllProb,
				Seed:          opts.Seed,
				Audit:         opts.Audit,
				KeyDist:       fig.KeyDist,
				Mix:           fig.Mix,
				TxTrace:       opts.TxTrace,
			}
			point, err := Run(cfg)
			if err != nil {
				return nil, fmt.Errorf("figure %d, %s x%d: %w", fig.ID, mgr, th, err)
			}
			point.Figure = fig.ID
			if opts.Progress != nil {
				opts.Progress(point)
			}
			points = append(points, point)
		}
	}
	return points, nil
}
