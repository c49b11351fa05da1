package main

import (
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// TestSelectFigures pins the -all/-figure resolution: exactly one
// selector, and unknown values are rejected with an error rather than
// silently running a default.
func TestSelectFigures(t *testing.T) {
	tests := []struct {
		name      string
		all       bool
		figure    int
		wantErr   bool
		wantCount int
		wantFirst string // Structure of the first figure, "" = don't check
	}{
		{name: "nothing selected", wantErr: true},
		{name: "all", all: true, wantCount: 10},
		{name: "figure 1", figure: 1, wantCount: 1, wantFirst: "list"},
		{name: "figure 5 is hashset", figure: 5, wantCount: 1, wantFirst: "hashset"},
		{name: "figure 7 is omap", figure: 7, wantCount: 1, wantFirst: "omap"},
		{name: "figure 8 is kv", figure: 8, wantCount: 1, wantFirst: "kv"},
		{name: "figure 9 is kvwal", figure: 9, wantCount: 1, wantFirst: "kvwal"},
		{name: "figure 10 is jobs", figure: 10, wantCount: 1, wantFirst: "jobs"},
		{name: "unknown figure", figure: 99, wantErr: true},
		{name: "negative figure", figure: -3, wantErr: true},
		{name: "all and figure", all: true, figure: 1, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			figs, err := selectFigures(tt.all, tt.figure)
			if tt.wantErr {
				if err == nil {
					t.Fatalf("selectFigures(%v, %d) accepted; want error", tt.all, tt.figure)
				}
				return
			}
			if err != nil {
				t.Fatalf("selectFigures(%v, %d): %v", tt.all, tt.figure, err)
			}
			if len(figs) != tt.wantCount {
				t.Fatalf("got %d figures, want %d", len(figs), tt.wantCount)
			}
			if tt.wantFirst != "" && figs[0].Structure != tt.wantFirst {
				t.Fatalf("first figure structure = %q, want %q", figs[0].Structure, tt.wantFirst)
			}
		})
	}
}

// TestParseInts pins -threads parsing: every count must be a positive
// integer, so "0" or "-2" is a usage error rather than a silent
// one-thread point.
func TestParseInts(t *testing.T) {
	tests := []struct {
		name string
		in   string
		want []int // nil = must be rejected
	}{
		{name: "ci sweep", in: "1,4,64,128", want: []int{1, 4, 64, 128}},
		{name: "spaces", in: " 2, 8", want: []int{2, 8}},
		{name: "zero", in: "0"},
		{name: "negative", in: "-1"},
		{name: "zero and negative among valid", in: "0,-2,1"},
		{name: "not a number", in: "x"},
		{name: "empty element", in: "1,,4"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := parseInts(tt.in)
			if tt.want == nil {
				if err == nil {
					t.Fatalf("parseInts(%q) = %v; want error", tt.in, got)
				}
				return
			}
			if err != nil {
				t.Fatalf("parseInts(%q): %v", tt.in, err)
			}
			if !slices.Equal(got, tt.want) {
				t.Fatalf("parseInts(%q) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

// TestParseManagers pins -managers parsing: every name must be a
// registered manager, so a typo or an empty element is a usage error
// before anything runs, not a failure after the other managers' points.
func TestParseManagers(t *testing.T) {
	tests := []struct {
		name string
		in   string
		want []string // nil = must be rejected
	}{
		{name: "one", in: "greedy", want: []string{"greedy"}},
		{name: "several", in: "greedy,karma,polka", want: []string{"greedy", "karma", "polka"}},
		{name: "spaces", in: " greedy, karma", want: []string{"greedy", "karma"}},
		{name: "unknown", in: "greedy,karmaa"},
		{name: "trailing comma", in: "greedy,"},
		{name: "empty element", in: "greedy,,karma"},
		{name: "blank", in: " "},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := parseManagers(tt.in)
			if tt.want == nil {
				if err == nil {
					t.Fatalf("parseManagers(%q) = %v; want error", tt.in, got)
				}
				return
			}
			if err != nil {
				t.Fatalf("parseManagers(%q): %v", tt.in, err)
			}
			if !slices.Equal(got, tt.want) {
				t.Fatalf("parseManagers(%q) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

// TestCheckTiming pins -window and -warmup: a window that measures
// nothing and a negative warmup are usage errors, and a zero warmup is
// honoured rather than replaced by a default.
func TestCheckTiming(t *testing.T) {
	tests := []struct {
		name           string
		window, warmup time.Duration
		wantErr        bool
	}{
		{name: "defaults", window: 300 * time.Millisecond, warmup: 50 * time.Millisecond},
		{name: "zero warmup", window: 100 * time.Millisecond},
		{name: "zero window", warmup: 50 * time.Millisecond, wantErr: true},
		{name: "negative window", window: -time.Millisecond, wantErr: true},
		{name: "negative warmup", window: 100 * time.Millisecond, warmup: -time.Millisecond, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := checkTiming(tt.window, tt.warmup)
			if (err != nil) != tt.wantErr {
				t.Fatalf("checkTiming(%v, %v) = %v, want error %v", tt.window, tt.warmup, err, tt.wantErr)
			}
		})
	}
}

// TestWriteList pins -list: one line per figure with its structure,
// then every structure in figure order, then the managers.
func TestWriteList(t *testing.T) {
	var b strings.Builder
	writeList(&b)
	want := `figures:
  1: List application (structure=list)
  2: Skiplist application (structure=skiplist)
  3: Red-black application (low contention) (structure=rbtree)
  4: Red-black forest application (structure=rbforest)
  5: Hash set application (disjoint buckets) (structure=hashset)
  6: FIFO queue application (head/tail hot spots) (structure=queue)
  7: Ordered map application (range scans vs point writes) (structure=omap)
  8: KV store application (string keys, skewed traffic) (structure=kv)
  9: KV store with write-ahead logging (group commit, async ack) (structure=kvwal)
  10: Cross-type job pipeline (list, zset and hash in one transaction) (structure=jobs)
structures: list, skiplist, rbtree, rbforest, hashset, queue, omap, kv, kvwal, jobs
managers: ` + strings.Join(core.Names(), ", ") + "\n"
	if got := b.String(); got != want {
		t.Fatalf("-list printed\n%s\nwant\n%s", got, want)
	}
}
