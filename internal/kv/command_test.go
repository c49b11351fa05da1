package kv

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/stm"
)

// TestCommandTableComplete holds every command-table entry to the
// one-definition contract: a body, a flight-recorder label, a metrics
// slot that shows up in INFO commandstats and /metrics after one call,
// and a row in the user-facing command table.
func TestCommandTableComplete(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "cmd", "stmkv", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	srv, addr, stop := startServerWith(t, New(stm.New()))
	reg := srv.Registry()
	defer stop()

	seen := make(map[string]bool)
	for i, cmd := range commandTable {
		if cmd.idx != i {
			t.Errorf("%s: idx %d at table position %d", cmd.name, cmd.idx, i)
		}
		if seen[cmd.name] || cmd.name != strings.ToUpper(cmd.name) {
			t.Errorf("%s: name duplicated or not upper case", cmd.name)
		}
		seen[cmd.name] = true
		if (cmd.tx == nil) == (cmd.ctl == nil) {
			t.Errorf("%s: want exactly one of a transactional and a control body", cmd.name)
		}
		if cmd.label.String() != cmd.name {
			t.Errorf("%s: label %q", cmd.name, cmd.label.String())
		}
		if lookupCommand(cmd.name) != cmd {
			t.Errorf("%s: not found by name", cmd.name)
		}
		if cmd.max >= 0 && cmd.max < cmd.min {
			t.Errorf("%s: arity max %d below min %d", cmd.name, cmd.max, cmd.min)
		}
		if !strings.Contains(string(readme), "`"+cmd.name) {
			t.Errorf("%s: missing from the command table in cmd/stmkv/README.md", cmd.name)
		}
		// One call on a fresh connection (QUIT hangs up); the reply —
		// often an arity error — is irrelevant, the slot must count it.
		c := dialClient(t, addr)
		if _, err := c.Do(cmd.name); err != nil {
			t.Errorf("%s: %v", cmd.name, err)
		}
		c.Close()
	}

	c := dialClient(t, addr)
	defer c.Close()
	stats := mustDo(t, c, "INFO", "commandstats").Str
	var expo bytes.Buffer
	if err := reg.WriteProm(&expo); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.CheckExposition(expo.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, cmd := range commandTable {
		lower := strings.ToLower(cmd.name)
		if !strings.Contains(stats, "cmdstat_"+lower+":calls=") {
			t.Errorf("%s: missing from INFO commandstats:\n%s", cmd.name, stats)
		}
		if samples[`stmkv_commands_total{cmd="`+lower+`"}`] < 1 {
			t.Errorf("%s: stmkv_commands_total not counted in /metrics", cmd.name)
		}
	}
}

// TestInternName holds the handler's name lookup, which works on the
// bytes off the wire, to the rule it replaces: upper-case the name with
// strings.ToUpper and look that up. Non-ASCII spellings that Unicode
// upper-cases to a table name keep resolving, and an ASCII name resolves
// without allocating.
func TestInternName(t *testing.T) {
	names := []string{"", "x", "GETX", "ABORTLOGS", "abortlogabortlog", "ſet", "pıng", "dıſcard", "ſlowlog", "get\x00", "\xffGET"}
	for _, cmd := range commandTable {
		names = append(names, cmd.name, strings.ToLower(cmd.name), strings.ToLower(cmd.name[:1])+cmd.name[1:])
	}
	for _, name := range names {
		want := lookupCommand(strings.ToUpper(name)).internedName()
		if got := internName([]byte(name)); got != want {
			t.Errorf("internName(%q) = %q, want %q", name, got, want)
		}
	}
	if got := internName([]byte("dıſcard")); got != "DISCARD" {
		t.Errorf(`internName("dıſcard") = %q, want "DISCARD"`, got)
	}
	b := []byte("hGetAll")
	if n := testing.AllocsPerRun(100, func() { internName(b) }); n != 0 {
		t.Errorf("internName(%q): %v allocs, want 0", b, n)
	}
}
