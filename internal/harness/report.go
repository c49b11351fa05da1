package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/obs"
)

// pointJSON is the machine-readable form of a Point for stmbench's
// -json output. The latency histogram is flattened to its tracked
// quantiles, and the engine counters are the point's window Stats.
type pointJSON struct {
	Figure        int     `json:"figure,omitempty"`
	Structure     string  `json:"structure"`
	Manager       string  `json:"manager"`
	Threads       int     `json:"threads"`
	Mix           string  `json:"mix,omitempty"`
	KeyDist       string  `json:"key_dist,omitempty"`
	CommitsPerSec float64 `json:"commits_per_sec"`
	Commits       int64   `json:"commits"`
	Aborts        int64   `json:"aborts"`
	Conflicts     int64   `json:"conflicts"`
	EnemyAborts   int64   `json:"enemy_aborts"`
	AbortRate     float64 `json:"abort_rate"`
	WaitNs        int64   `json:"wait_ns,omitempty"`
	BackoffNs     int64   `json:"backoff_ns,omitempty"`
	// The per-cause abort partition (always exact; omitted when zero).
	AbortsEnemy      int64 `json:"aborts_enemy,omitempty"`
	AbortsValidation int64 `json:"aborts_validation,omitempty"`
	// AbortsValidationHeld is the subset of AbortsValidation that failed
	// on a stripe another committer held.
	AbortsValidationHeld int64   `json:"aborts_validation_held,omitempty"`
	AbortsCASRace        int64   `json:"aborts_cas_race,omitempty"`
	AbortsUser           int64   `json:"aborts_user,omitempty"`
	LatP50Us             float64 `json:"lat_p50_us"`
	LatP99Us             float64 `json:"lat_p99_us"`
	LatMaxUs             float64 `json:"lat_max_us"`
	// Flight-recorder attribution, present only on traced runs
	// (Options.TxTrace > 0): top-K hot variables and decision edges.
	HotVars  []obs.HotObject    `json:"hot_vars,omitempty"`
	HotEdges []obs.ConflictEdge `json:"hot_edges,omitempty"`
}

// WriteJSON emits the points as an indented JSON array; each point
// carries the figure it was measured for (Point.Figure), so
// multi-figure runs stay distinguishable in one stream.
func WriteJSON(w io.Writer, points []Point) error {
	out := make([]pointJSON, len(points))
	for i, p := range points {
		out[i] = pointJSON{
			Figure:        p.Figure,
			Structure:     p.Structure,
			Manager:       p.Manager,
			Threads:       p.Threads,
			Mix:           p.Mix,
			KeyDist:       p.KeyDist,
			CommitsPerSec: p.CommitsPerSec,
			Commits:       p.Stats.Commits,
			Aborts:        p.Stats.Aborts,
			Conflicts:     p.Stats.Conflicts,
			EnemyAborts:   p.Stats.EnemyAborts,
			AbortRate:     p.Stats.AbortRate(),
			WaitNs:        p.Stats.WaitNs,
			BackoffNs:     p.Stats.BackoffNs,

			AbortsEnemy:          p.Stats.AbortsEnemy,
			AbortsValidation:     p.Stats.AbortsValidation,
			AbortsValidationHeld: p.Stats.AbortsValidationHeld,
			AbortsCASRace:        p.Stats.AbortsCASRace,
			AbortsUser:           p.Stats.AbortsUser,
			HotVars:              p.HotVars,
			HotEdges:             p.HotEdges,

			LatP50Us: float64(p.Latency.Quantile(0.50).Nanoseconds()) / 1e3,
			LatP99Us: float64(p.Latency.Quantile(0.99).Nanoseconds()) / 1e3,
			LatMaxUs: float64(p.Latency.Max().Nanoseconds()) / 1e3,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// WriteTable renders the points as the figure's series table: one row
// per manager, one column per thread count, committed transactions per
// second in the cells — the same series the paper plots.
func WriteTable(w io.Writer, title string, points []Point) error {
	threadSet := map[int]bool{}
	managerOrder := []string{}
	seenMgr := map[string]bool{}
	cell := map[string]map[int]float64{}
	for _, p := range points {
		threadSet[p.Threads] = true
		if !seenMgr[p.Manager] {
			seenMgr[p.Manager] = true
			managerOrder = append(managerOrder, p.Manager)
			cell[p.Manager] = map[int]float64{}
		}
		cell[p.Manager][p.Threads] = p.CommitsPerSec
	}
	threads := make([]int, 0, len(threadSet))
	for t := range threadSet {
		threads = append(threads, t)
	}
	sort.Ints(threads)

	if _, err := fmt.Fprintf(w, "%s\ncommitted transactions per second vs number of threads\n\n", title); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-14s", "manager"); err != nil {
		return err
	}
	for _, t := range threads {
		if _, err := fmt.Fprintf(w, "%10d", t); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for _, mgr := range managerOrder {
		if _, err := fmt.Fprintf(w, "%-14s", mgr); err != nil {
			return err
		}
		for _, t := range threads {
			if v, ok := cell[mgr][t]; ok {
				if _, err := fmt.Fprintf(w, "%10.0f", v); err != nil {
					return err
				}
			} else if _, err := fmt.Fprintf(w, "%10s", "-"); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
