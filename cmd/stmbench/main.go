// Command stmbench regenerates the paper's evaluation figures and the
// container and kv-store extensions: for each figure it sweeps the
// number of threads and prints committed transactions per second per
// contention manager — the same series Figures 1–4 plot, plus the
// hash-set, queue, ordered-map, kv-store and job-pipeline sweeps
// (figures 5–10). It is the repository's only figure driver; -audit
// turns a sweep into a correctness check as well.
//
// Usage:
//
//	stmbench -figure 1                 # one figure
//	stmbench -all                      # all figures (paper + extensions)
//	stmbench -all -json                # machine-readable output (JSON array)
//	stmbench -all -audit -threads 1,4,64,128 -window 120ms -warmup 30ms
//	stmbench -figure 2 -threads 1,4,8 -window 200ms -managers greedy,karma
//	stmbench -figure 10 -threads 64 -txtrace 16 -json   # conflict attribution
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
)

func main() {
	var (
		figureID = flag.Int("figure", 0, fmt.Sprintf("figure number to run (1-%d, see -list)", len(harness.Figures)))
		all      = flag.Bool("all", false, "run every figure")
		window   = flag.Duration("window", 300*time.Millisecond, "measurement window per point")
		warmup   = flag.Duration("warmup", 50*time.Millisecond, "warmup per point (runs before the window opens; not measured)")
		txtrace  = flag.Int("txtrace", 0, "sample 1 in N transactions into the flight recorder: points gain abort-cause breakdown and top-K hot vars (0 disables)")
		threads  = flag.String("threads", "", fmt.Sprintf("comma-separated positive thread counts (default: %v)", harness.DefaultThreads))
		managers = flag.String("managers", "", fmt.Sprintf("comma-separated manager names (default: %s)", strings.Join(core.FigureManagers, ",")))
		jsonOut  = flag.Bool("json", false, "emit a JSON array of per-point results instead of a table")
		audit    = flag.Bool("audit", false, "verify structural integrity after every point")
		seed     = flag.Uint64("seed", 0x5eed, "workload seed")
		list     = flag.Bool("list", false, "list figures, structures and managers, then exit")
	)
	flag.Parse()

	if *list {
		writeList(os.Stdout)
		return
	}

	figures, err := selectFigures(*all, *figureID)
	if err != nil {
		usage(err.Error())
	}
	if err := checkTiming(*window, *warmup); err != nil {
		usage(err.Error())
	}

	opts := harness.Options{
		Window:  *window,
		Warmup:  *warmup,
		Seed:    *seed,
		Audit:   *audit,
		TxTrace: *txtrace,
	}
	var ts []int
	if *threads != "" {
		if ts, err = parseInts(*threads); err != nil {
			usage(err.Error())
		}
	}
	var ms []string
	if *managers != "" {
		if ms, err = parseManagers(*managers); err != nil {
			usage(err.Error())
		}
	}
	if !*jsonOut {
		opts.Progress = func(p harness.Point) {
			hot := ""
			if len(p.HotVars) > 0 {
				hot = "  hot=" + p.HotVars[0].Obj
			}
			fmt.Fprintf(os.Stderr, "  %-10s %-12s x%-3d %10.0f commits/s (abort rate %.2f)%s\n",
				p.Structure, p.Manager, p.Threads, p.CommitsPerSec, p.Stats.AbortRate(), hot)
		}
	}

	// jsonPoints accumulates across figures so the whole run is one
	// JSON array; each point carries its figure id.
	var jsonPoints []harness.Point
	for _, fig := range figures {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "running figure %d: %s\n", fig.ID, fig.Name)
		}
		points, err := harness.RunFigure(fig, ms, ts, opts)
		if err != nil {
			fatal(err)
		}
		if *jsonOut {
			jsonPoints = append(jsonPoints, points...)
			continue
		}
		fmt.Println()
		title := fmt.Sprintf("Figure %d: %s", fig.ID, fig.Name)
		if err := harness.WriteTable(os.Stdout, title, points); err != nil {
			fatal(err)
		}
	}
	if *jsonOut {
		if err := harness.WriteJSON(os.Stdout, jsonPoints); err != nil {
			fatal(err)
		}
	}
}

// writeList prints the figures, the structure each one runs, and the
// registered managers.
func writeList(w io.Writer) {
	fmt.Fprintln(w, "figures:")
	structures := make([]string, len(harness.Figures))
	for i, fig := range harness.Figures {
		fmt.Fprintf(w, "  %d: %s (structure=%s)\n", fig.ID, fig.Name, fig.Structure)
		structures[i] = fig.Structure
	}
	fmt.Fprintf(w, "structures: %s\n", strings.Join(structures, ", "))
	fmt.Fprintf(w, "managers: %s\n", strings.Join(core.Names(), ", "))
}

// selectFigures resolves the -all / -figure selection into the figures
// to run, rejecting unknown or ambiguous selections so a typo never
// silently measures the wrong thing.
func selectFigures(all bool, figureID int) ([]harness.Figure, error) {
	switch {
	case all && figureID != 0:
		return nil, errors.New("-figure and -all are mutually exclusive")
	case all:
		return harness.Figures, nil
	case figureID == 0:
		return nil, errors.New("pass -figure N or -all (see -list)")
	}
	fig, err := harness.FigureByID(figureID)
	if err != nil {
		return nil, err
	}
	return []harness.Figure{fig}, nil
}

// checkTiming rejects a -window that measures nothing and a negative
// -warmup; a zero warmup is honoured.
func checkTiming(window, warmup time.Duration) error {
	if window <= 0 {
		return fmt.Errorf("bad -window %v: must be positive", window)
	}
	if warmup < 0 {
		return fmt.Errorf("bad -warmup %v: must not be negative", warmup)
	}
	return nil
}

// parseInts parses -threads: a comma-separated list of thread counts,
// each of which must be positive.
func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad thread count %q: %w", p, err)
		}
		if v <= 0 {
			return nil, fmt.Errorf("bad thread count %d: must be positive", v)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseManagers parses -managers: a comma-separated list of contention
// manager names, each of which must be registered, so a typo is a usage
// error before any point runs.
func parseManagers(s string) ([]string, error) {
	names := strings.Split(s, ",")
	for i, name := range names {
		names[i] = strings.TrimSpace(name)
		if _, err := core.Factory(names[i]); err != nil {
			return nil, err
		}
	}
	return names, nil
}

// usage reports a bad invocation: the error, then the flag summary,
// then exit code 2 (the flag package's own convention).
func usage(msg string) {
	fmt.Fprintln(os.Stderr, "stmbench:", msg)
	flag.Usage()
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stmbench:", err)
	os.Exit(1)
}
