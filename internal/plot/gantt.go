// Package plot renders ASCII Gantt charts of scheduler traces: one row
// per transaction, one glyph per tick of its running, aborted or
// waiting intervals — the terminal rendition of the paper's Section 4
// executions (see examples/adversary).
package plot

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Span is one labelled interval of a Gantt chart: a transaction's
// continuous running interval in a simulator trace.
type Span struct {
	// Row groups spans onto one line (one row per transaction).
	Row string
	// Start and End are the tick interval [Start, End).
	Start, End int
	// Glyph fills the span's cells: '=' running-to-commit, 'x'
	// running-to-abort, '.' waiting — callers choose.
	Glyph byte
}

// Gantt renders rows of spans against a shared tick axis. Rows are
// ordered by first appearance; overlapping spans in one row keep the
// later glyph (traces do not overlap in practice).
func Gantt(w io.Writer, title string, spans []Span) error {
	if len(spans) == 0 {
		return fmt.Errorf("plot: no spans")
	}
	horizon := 0
	rowOrder := []string{}
	rows := map[string][]Span{}
	for _, s := range spans {
		if s.End <= s.Start {
			continue
		}
		if s.End > horizon {
			horizon = s.End
		}
		if _, ok := rows[s.Row]; !ok {
			rowOrder = append(rowOrder, s.Row)
		}
		rows[s.Row] = append(rows[s.Row], s)
	}
	if horizon == 0 {
		return fmt.Errorf("plot: all spans empty")
	}
	sort.SliceStable(rowOrder, func(i, j int) bool {
		return firstStart(rows[rowOrder[i]]) < firstStart(rows[rowOrder[j]])
	})

	labelWidth := 6
	for _, r := range rowOrder {
		if len(r) > labelWidth {
			labelWidth = len(r)
		}
	}
	if title != "" {
		if _, err := fmt.Fprintln(w, title); err != nil {
			return err
		}
	}
	for _, r := range rowOrder {
		line := make([]byte, horizon)
		for i := range line {
			line[i] = ' '
		}
		for _, s := range rows[r] {
			for t := s.Start; t < s.End && t < horizon; t++ {
				if t >= 0 {
					line[t] = s.Glyph
				}
			}
		}
		if _, err := fmt.Fprintf(w, "%-*s |%s|\n", labelWidth, r, line); err != nil {
			return err
		}
	}
	axis := strings.Repeat("-", horizon)
	if _, err := fmt.Fprintf(w, "%-*s +%s+\n", labelWidth, "", axis); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%-*s  0%*d (ticks)\n", labelWidth, "", horizon-1, horizon)
	return err
}

func firstStart(spans []Span) int {
	first := int(^uint(0) >> 1)
	for _, s := range spans {
		if s.Start < first {
			first = s.Start
		}
	}
	return first
}
