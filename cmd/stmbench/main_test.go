package main

import (
	"slices"
	"testing"
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
