package main

import (
	"encoding/json"
	"flag"
	"io"
	"net"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/kv"
	"repro/internal/kvclient"
	"repro/internal/obs"
	"repro/internal/stm"
	"repro/internal/wal"
)

// TestServerFlags: stmkv has the server's seven flags and no other,
// and each lands in the config start reads.
func TestServerFlags(t *testing.T) {
	fs := flag.NewFlagSet("stmkv", flag.ContinueOnError)
	cfg := serverFlags(fs)
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	want := []string{"addr", "bgsave-every", "data", "manager", "metrics", "sweep", "txtrace"}
	if !slices.Equal(names, want) {
		t.Fatalf("flags %v, want %v", names, want)
	}
	err := fs.Parse([]string{"-addr", "a:1", "-manager", "karma", "-metrics", "m:2", "-txtrace", "3",
		"-data", "d", "-sweep", "2s", "-bgsave-every", "400ops"})
	if err != nil {
		t.Fatal(err)
	}
	if got := (serverConfig{addr: "a:1", metrics: "m:2", manager: "karma", data: "d", sweep: 2 * time.Second, bgsave: "400ops", txtrace: 3}); *cfg != got {
		t.Fatalf("parsed config %+v, want %+v", *cfg, got)
	}
}

// TestSmoke starts the server as main does, on ephemeral ports with
// the metrics listener and the flight recorder on, drives an
// internal/kvclient load through it over TCP (every reply checked, then
// kvclient.Audit: accounts and hash ledger conserved, private lists in
// FIFO order), and checks what only a started server shows: /metrics
// serves the server's registry, which counted the load, /healthz is
// green, the conflict matrix at /debug/stm/conflicts saw the load, the
// store is sound and sweeps clean, Close drains, a second Close is a
// no-op and the port is free again. The durable run also sweeps and
// snapshots every 400 records under the load; then the log's counters
// must be at rest and consistent, and its directory, recovered as a
// crash would leave it, must equal the live store op for op and pass
// the same audit.
func TestSmoke(t *testing.T) {
	t.Run("memory", func(t *testing.T) {
		smoke(t, kvclient.Load{Clients: 6, Ops: 1000})
	})
	t.Run("durable", func(t *testing.T) {
		smoke(t, kvclient.Load{Clients: 24, Ops: 1500}, "-data", t.TempDir(), "-bgsave-every", "400ops")
	})
}

func smoke(t *testing.T, load kvclient.Load, args ...string) {
	fs := flag.NewFlagSet("stmkv", flag.ContinueOnError)
	cfg := serverFlags(fs)
	// A dense sampling period makes the load fill the flight recorder.
	if err := fs.Parse(append([]string{"-addr", "127.0.0.1:0", "-metrics", "127.0.0.1:0", "-txtrace", "4"}, args...)); err != nil {
		t.Fatal(err)
	}
	inst, err := start(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		inst.srv.Close()
		inst.stopMetrics()
		if inst.log != nil {
			inst.log.Close()
		}
	})
	addr := inst.ln.Addr().String()
	report, err := kvclient.Drive(addr, load)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(report)
	checkEndpoints(t, "http://"+inst.metricsAddr)

	if err := inst.store.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.store.Sweep(); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	// Close quiesces every background writer as well as the clients: a
	// scheduled BGSAVE rotating and reaping segments, or a sweeper pass
	// appending tombstones, while Recover scans the directory would
	// hand the audit below a torn view of the log.
	if err := inst.srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := <-inst.done; err != nil {
		t.Fatalf("serve returned: %v", err)
	}
	if err := inst.srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	probe, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("port not released: %v", err)
	}
	probe.Close()
	if inst.log == nil {
		return
	}

	// How many records share an fsync is logged, not gated: it is the
	// device's speed over the arrival rate (internal/wal's
	// TestFlushDrainsQueue proves the sharing).
	st := inst.log.Stats()
	t.Logf("wal: %d records in %d batches, %d fsyncs, %d dropped, lsn %d/%d durable",
		st.Records(), st.Batches, st.Fsyncs, st.Dropped, st.Durable, st.Enqueued)
	if st.Records() == 0 {
		t.Fatal("wal: no records logged under load")
	}
	if st.Batches != st.Fsyncs || st.Fsyncs > st.Records() || st.Dropped != 0 || st.Durable != st.Enqueued {
		t.Fatalf("wal inconsistent at rest: %+v (want batches == fsyncs <= records, 0 dropped, durable == enqueued)", st)
	}
	// The recovered store must equal the live one: a SET, tombstone,
	// container member or TTL deadline lost or doubled in the replay of
	// a log written under the sweeper and the scheduled snapshots shows
	// as a differing op. The wait lets every short-TTL key of the load
	// expire, so the two dumps do not race a deadline.
	time.Sleep(20 * time.Millisecond)
	live, err := inst.store.SnapshotOps()
	if err != nil {
		t.Fatal(err)
	}
	fresh := kv.New(stm.New(), kv.WithClock(func() int64 { return time.Now().UnixNano() }))
	if _, err := wal.Recover(inst.log.Dir(), fresh.Apply); err != nil {
		t.Fatalf("recover: %v", err)
	}
	recovered, err := fresh.SnapshotOps()
	if err != nil {
		t.Fatal(err)
	}
	byKey := func(a, b wal.Op) int { return strings.Compare(a.Key, b.Key) }
	slices.SortStableFunc(live, byKey)
	slices.SortStableFunc(recovered, byKey)
	for i := range min(len(live), len(recovered)) {
		if live[i] != recovered[i] {
			t.Fatalf("recovered store differs at op %d: live %+v, recovered %+v", i, live[i], recovered[i])
		}
	}
	if len(live) != len(recovered) {
		t.Fatalf("recovered store has %d ops, live %d", len(recovered), len(live))
	}
	// It is audited over the wire like the live one: a lost or doubled
	// INCRBY or HINCRBY in replay breaks a sum.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := kv.NewServer(fresh)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()
	c, err := kvclient.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := kvclient.Audit(c); err != nil {
		t.Fatalf("recovered store: %v", err)
	}
	if err := inst.log.Close(); err != nil {
		t.Fatalf("wal close: %v", err)
	}
}

// checkEndpoints: /metrics parses back and counted the load's commands,
// /healthz is green, the conflict matrix is served as JSON that names
// the manager and sampled the load's transactions and hot objects, and
// its text form answers.
func checkEndpoints(t *testing.T, base string) {
	t.Helper()
	get := func(path string) []byte {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d (%v)", path, resp.StatusCode, err)
		}
		return body
	}
	samples, err := obs.CheckExposition(get("/metrics"))
	if err != nil {
		t.Fatalf("metrics exposition malformed: %v", err)
	}
	var commands float64
	for name, v := range samples {
		if strings.HasPrefix(name, "stmkv_commands_total{") {
			commands += v
		}
	}
	if commands == 0 {
		t.Fatal("stmkv_commands_total is zero after the load")
	}
	get("/healthz")
	var snap struct {
		Manager    string           `json:"manager"`
		SampledTxs int64            `json:"sampled_txs"`
		Causes     map[string]int64 `json:"abort_causes"`
		HotObjects []struct {
			Obj string `json:"obj"`
		} `json:"hot_objects"`
	}
	if err := json.Unmarshal(get("/debug/stm/conflicts"), &snap); err != nil {
		t.Fatalf("conflicts not parseable JSON: %v", err)
	}
	if snap.Manager == "" || snap.SampledTxs == 0 || len(snap.HotObjects) == 0 {
		t.Fatalf("conflicts snapshot %+v: want a manager, sampled transactions and hot objects", snap)
	}
	get("/debug/stm/conflicts?format=text&top=5")
	t.Logf("metrics: %d samples, %.0f commands counted", len(samples), commands)
	t.Logf("conflicts: %d txs sampled (hot: %s), %d abort causes", snap.SampledTxs, snap.HotObjects[0].Obj, len(snap.Causes))
}
