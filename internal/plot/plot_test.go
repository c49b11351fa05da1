package plot_test

import (
	"strings"
	"testing"

	"repro/internal/plot"
)

func TestGanttBasic(t *testing.T) {
	var sb strings.Builder
	err := plot.Gantt(&sb, "trace", []plot.Span{
		{Row: "T0", Start: 0, End: 3, Glyph: 'x'},
		{Row: "T0", Start: 3, End: 5, Glyph: '='},
		{Row: "T1", Start: 0, End: 2, Glyph: '='},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"trace", "T0", "T1", "xxx==", "==", "(ticks)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("gantt missing %q:\n%s", want, out)
		}
	}
	// Rows ordered by first start; T0 and T1 both start at 0, order
	// of first appearance wins.
	if strings.Index(out, "T0") > strings.Index(out, "T1") {
		t.Fatalf("row order wrong:\n%s", out)
	}
}

func TestGanttErrors(t *testing.T) {
	var sb strings.Builder
	if err := plot.Gantt(&sb, "", nil); err == nil {
		t.Error("empty span list accepted")
	}
	if err := plot.Gantt(&sb, "", []plot.Span{{Row: "T0", Start: 5, End: 5, Glyph: '='}}); err == nil {
		t.Error("all-empty spans accepted")
	}
}

func TestGanttSkipsEmptySpans(t *testing.T) {
	var sb strings.Builder
	err := plot.Gantt(&sb, "", []plot.Span{
		{Row: "T0", Start: 2, End: 2, Glyph: 'x'}, // empty, skipped
		{Row: "T1", Start: 0, End: 1, Glyph: '='},
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "T0") {
		t.Fatalf("empty-span row rendered:\n%s", sb.String())
	}
}
