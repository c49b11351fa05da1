package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckFlags: every integer flag has a floor, and -exp names an
// experiment or "all".
func TestCheckFlags(t *testing.T) {
	tests := []struct {
		name            string
		exp             string
		s, m, trials, n int
		wantErr         bool
	}{
		{name: "defaults", exp: "all", s: 8, m: 2, trials: 10, n: 8},
		{name: "smallest", exp: "adversary", s: 1, m: 2, trials: 1, n: 1},
		{name: "m 1", exp: "adversary", s: 8, m: 1, trials: 10, n: 8, wantErr: true},
		{name: "m 0", exp: "all", s: 8, m: 0, trials: 10, n: 8, wantErr: true},
		{name: "s 0", exp: "adversary", s: 0, m: 2, trials: 10, n: 8, wantErr: true},
		{name: "s negative", exp: "trace", s: -1, m: 2, trials: 10, n: 8, wantErr: true},
		{name: "trials 0", exp: "ratio", s: 8, m: 2, trials: 0, n: 8, wantErr: true},
		{name: "trials negative", exp: "randomized", s: 8, m: 2, trials: -1, n: 8, wantErr: true},
		{name: "n 0", exp: "bounded", s: 8, m: 2, trials: 10, n: 0, wantErr: true},
		{name: "unknown exp", exp: "adversery", s: 8, m: 2, trials: 10, n: 8, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := checkFlags(tt.exp, tt.s, tt.m, tt.trials, tt.n)
			if (err != nil) != tt.wantErr {
				t.Fatalf("checkFlags(%q, s=%d, m=%d, trials=%d, n=%d) = %v, want error %v",
					tt.exp, tt.s, tt.m, tt.trials, tt.n, err, tt.wantErr)
			}
		})
	}
}

// TestBadFlagsExitTwo runs the built command. sched.Adversary clamps
// m to 2 and s to 1, so -m 1 or -s 0 would run an instance the table
// does not describe; each must be a usage error, exit 2, with no
// experiment run.
func TestBadFlagsExitTwo(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "makespan")
	build := exec.Command("go", "build", "-o", bin, "./cmd/makespan")
	build.Dir = filepath.Join("..", "..")
	// The module vendors its dependencies; a caller's GOFLAGS must not
	// switch that off, and nothing may be fetched.
	build.Env = append(os.Environ(), "GOFLAGS=", "GOPROXY=off", "GOWORK=off")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/makespan: %v\n%s", err, out)
	}
	for _, args := range [][]string{
		{"-exp", "adversary", "-m", "1"},
		{"-exp", "adversary", "-s", "0"},
		{"-exp", "ratio", "-trials", "0"},
	} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("makespan %v: %v, want exit status 2\n%s", args, err, out)
		}
		if strings.Contains(string(out), "==") {
			t.Errorf("makespan %v ran an experiment before rejecting its flags:\n%s", args, out)
		}
		if !strings.Contains(string(out), "Usage") {
			t.Errorf("makespan %v printed no usage message:\n%s", args, out)
		}
	}
}
