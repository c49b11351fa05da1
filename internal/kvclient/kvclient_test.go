package kvclient

import (
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/kv"
	"repro/internal/stm"
)

// serve starts an in-process memory-only server and returns its
// address; the server closes when the test ends.
func serve(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := kv.NewServer(kv.New(stm.New()))
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return ln.Addr().String()
}

func dial(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func must(t *testing.T, c *Client, args ...string) {
	t.Helper()
	if _, err := c.Must(args...); err != nil {
		t.Fatal(err)
	}
}

// wantErr fails unless err is non-nil and mentions sub.
func wantErr(t *testing.T, what string, err error, sub string) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), sub) {
		t.Fatalf("%s: err %v, want one mentioning %q", what, err, sub)
	}
}

// TestDriveThenAudit: a binary-keyed run passes its own audit,
// and the audit then catches a moved balance in each ledger.
func TestDriveThenAudit(t *testing.T) {
	addr := serve(t)
	report, err := Drive(addr, Load{Clients: 4, Ops: 300, BinKeys: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(report)
	c := dial(t, addr)
	if _, err := Audit(c); err != nil {
		t.Fatal(err)
	}
	must(t, c, "INCRBY", "acct:3", "1")
	_, err = Audit(c)
	wantErr(t, "audit after a stray INCRBY", err, "accounts conservation broken")
	must(t, c, "INCRBY", "acct:3", "-1")
	must(t, c, "HINCRBY", ledgerKey, "h:5", "-7")
	_, err = Audit(c)
	wantErr(t, "audit after a stray HINCRBY", err, "ledger "+ledgerKey+" conservation broken")
}

// TestAuditLedger: the audit requires the ledger, and a vanished
// account is named.
func TestAuditLedger(t *testing.T) {
	c := dial(t, serve(t))
	mset := []string{"MSET"}
	hset := []string{"HSET", ledgerKey}
	for i, a := range accountKeys() {
		mset = append(mset, a, strconv.Itoa(initialBalance))
		hset = append(hset, "h:"+strconv.Itoa(i), strconv.Itoa(initialBalance))
	}
	must(t, c, mset...)
	_, err := Audit(c)
	wantErr(t, "audit without a ledger", err, "ledger "+ledgerKey+" vanished")
	must(t, c, hset...)
	if _, err := Audit(c); err != nil {
		t.Fatalf("audit of the seeded state: %v", err)
	}
	must(t, c, "DEL", "acct:7")
	_, err = Audit(c)
	wantErr(t, "audit with an account deleted", err, "acct:7 vanished")
}

// TestClientBound: Audit walks list:0 .. list:<maxClients-1>, so a run
// with more clients than that is refused before it writes anything, a
// run at the bound passes its audit, and a broken run on the last list
// in range is found.
func TestClientBound(t *testing.T) {
	addr := serve(t)
	_, err := Drive(addr, Load{Clients: maxClients + 1, Ops: 1})
	wantErr(t, "run over the bound", err, "at most "+strconv.Itoa(maxClients)+" clients")
	c := dial(t, addr)
	if v, err := c.Must("DBSIZE"); err != nil || v.Int != 0 {
		t.Fatalf("a refused run seeded the accounts: %+v, %v", v, err)
	}
	if _, err := Drive(addr, Load{Clients: maxClients, Ops: 4}); err != nil {
		t.Fatalf("a run at the bound: %v", err)
	}
	last := "list:" + strconv.Itoa(maxClients-1)
	must(t, c, "DEL", last)
	must(t, c, "RPUSH", last, "e:0", "e:1", "e:3")
	_, err = Audit(c)
	wantErr(t, "audit of a gapped list", err, last+"[2] is element 3 after element 1")
}

// TestProbes: planted probes check out after the doomed TTL passes,
// and a probe that changed is reported.
func TestProbes(t *testing.T) {
	c := dial(t, serve(t))
	if err := PlantProbes(c); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	if err := CheckProbes(c); err != nil {
		t.Fatal(err)
	}
	must(t, c, "RPUSH", "probe:list", "d")
	wantErr(t, "probes after an extra push", CheckProbes(c), "list order lost")
	must(t, c, "SET", "probe:gone", "back")
	wantErr(t, "probes with the doomed key back", CheckProbes(c), "resurrected")
}

// TestPipeline: a pipeline's replies come back one per command, in
// order, and an error reply is a value.
func TestPipeline(t *testing.T) {
	c := dial(t, serve(t))
	var sets, gets [][]string
	for i := range 64 {
		k := "pipe:" + strconv.Itoa(i)
		sets = append(sets, []string{"SET", k, "v" + strconv.Itoa(i)})
		gets = append(gets, []string{"GET", k})
	}
	vs, err := c.Pipeline(sets...)
	if err != nil || len(vs) != 64 {
		t.Fatalf("pipelined SETs: %d replies, %v", len(vs), err)
	}
	for i, v := range vs {
		if v.Str != "OK" {
			t.Fatalf("SET %d = %+v", i, v)
		}
	}
	if vs, err = c.Pipeline(append(gets, []string{"INCR", "pipe:0"})...); err != nil {
		t.Fatal(err)
	}
	for i, v := range vs[:64] {
		if v.Str != "v"+strconv.Itoa(i) {
			t.Fatalf("GET %d = %+v", i, v)
		}
	}
	if !vs[64].IsError() {
		t.Fatalf("INCR on text = %+v, want an error reply", vs[64])
	}
}
