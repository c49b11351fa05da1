package kv

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/stm"
)

// infoLines splits an INFO reply into its lines, keyed "section.key"
// by the lower-cased section header above them, and the sections' key
// sequences in order.
func infoLines(t *testing.T, info string) (values map[string]string, keys map[string][]string, order []string) {
	t.Helper()
	values, keys = map[string]string{}, map[string][]string{}
	section := ""
	for _, line := range strings.Split(info, "\r\n") {
		switch {
		case line == "":
		case strings.HasPrefix(line, "# "):
			section = strings.ToLower(line[2:])
			order = append(order, section)
		default:
			k, v, ok := strings.Cut(line, ":")
			if !ok || section == "" {
				t.Fatalf("INFO line %q outside a section or without a colon", line)
			}
			values[section+"."+k] = v
			keys[section] = append(keys[section], k)
		}
	}
	return values, keys, order
}

// TestInfoKeyOrder pins every INFO section's key sequence, memory-only
// and durable: the keys and their order are the INFO contract
// (bench/trace.go and operators' scripts parse them).
func TestInfoKeyOrder(t *testing.T) {
	common := map[string]string{
		"server":       "stmkv_version go_version process_id uptime_in_seconds contention_manager shards durable",
		"clients":      "connected_clients",
		"stats":        "total_connections_received total_commands_processed total_command_errors reply_flushes sweeper_failures sweeper_reaped_keys expiry_armed_shards bgsave_failures slowlog_len",
		"commandstats": "cmdstat_get cmdstat_set",
		"stm":          "manager commits aborts conflicts enemy_aborts opens wait_ns backoff_ns abort_rate commit_p50_usec commit_p99_usec attempts_per_commit",
		"contention":   "aborts_enemy aborts_validation aborts_validation_held aborts_cas_race aborts_user_error wait_ns abortlog_len",
		"keyspace":     "db0",
	}
	for _, tc := range []struct {
		name string
		wal  string
		run  func(*testing.T) (string, func())
	}{
		{"memory", "wal_enabled", func(t *testing.T) (string, func()) {
			_, addr, stop := startServerWith(t, New(stm.New()))
			return addr, stop
		}},
		{"durable", "wal_enabled records batches fsyncs dropped segment wal_segments snapshots_completed snapshot_last_usec snapshot_last_chunks snapshot_chunk_retries snapshot_tail_records lsn_enqueued lsn_durable queue_depth fsync_p50_usec fsync_p99_usec ops_per_batch sticky_error",
			func(t *testing.T) (string, func()) {
				_, _, addr, stop := durableServer(t)
				return addr, stop
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr, stop := tc.run(t)
			defer stop()
			c := dialClient(t, addr)
			defer c.Close()
			mustDo(t, c, "SET", "a", "1")
			mustDo(t, c, "GET", "a")
			_, keys, order := infoLines(t, mustDo(t, c, "INFO").Str)
			if got, want := strings.Join(order, " "), strings.Join(infoSections, " "); got != want {
				t.Fatalf("sections %q, want %q", got, want)
			}
			for _, section := range infoSections {
				want := common[section]
				if section == "wal" {
					want = tc.wal
				}
				if got := strings.Join(keys[section], " "); got != want {
					t.Errorf("INFO %s keys:\n got %s\nwant %s", section, got, want)
				}
			}
		})
	}
}

// TestInfoMetricsParity: every scalar /metrics series has a twin INFO
// line, and at rest the two read the same value. The list below is
// kept apart from the server's own so that a view that misreads or
// misformats a statistic fails here; snapshot_last is microseconds in
// INFO and seconds in /metrics, and the sticky error is text in INFO
// ("none" when healthy) and 0/1 in /metrics.
func TestInfoMetricsParity(t *testing.T) {
	srv, _, addr, stop := durableServer(t, WithManagerName("greedy"))
	defer stop()
	c := dialClient(t, addr)
	defer c.Close()
	for i := range 12 {
		mustDo(t, c, "SET", "k"+strconv.Itoa(i), "v", "PX", "60000")
	}
	mustDo(t, c, "GET", "k1")
	mustDo(t, c, "MULTI")
	mustDo(t, c, "INCRBY", "n", "3")
	mustDo(t, c, "RPUSH", "l", "a", "b")
	mustDo(t, c, "EXEC")
	if v, _ := c.Do("INCR", "l"); !v.IsError() {
		t.Fatalf("INCR on a list = %+v, want an error", v)
	}
	mustDo(t, c, "SAVE")
	mustDo(t, c, "SET", "after", "save")
	// Distinct values, so that a row reading another's counter shows.
	srv.sm.sweepFailures.Add(3)
	srv.sm.sweepReaped.Add(5)
	srv.sm.bgsaveFailures.Add(7)

	var body strings.Builder
	srv.WriteMetrics(&body)
	samples, err := obs.CheckExposition([]byte(body.String()))
	if err != nil {
		t.Fatalf("/metrics failed parse-back: %v\n%s", err, body.String())
	}
	info, _, _ := infoLines(t, mustDo(t, c, "INFO").Str)

	const mgr = `{manager="greedy"}`
	twins := map[string]string{
		"clients.connected_clients":         "stmkv_connected_clients",
		"stats.total_connections_received":  "stmkv_connections_total",
		"stats.reply_flushes":               "stmkv_reply_flushes_total",
		"stats.sweeper_failures":            "stmkv_sweeper_failures_total",
		"stats.sweeper_reaped_keys":         "stmkv_sweeper_reaped_total",
		"stats.expiry_armed_shards":         "stmkv_expiry_armed_shards",
		"stats.bgsave_failures":             "stmkv_bgsave_failures_total",
		"stm.commits":                       "stm_commits_total" + mgr,
		"stm.aborts":                        "stm_aborts_total" + mgr,
		"stm.conflicts":                     "stm_conflicts_total" + mgr,
		"stm.enemy_aborts":                  "stm_enemy_aborts_total" + mgr,
		"stm.wait_ns":                       "stm_wait_ns_total" + mgr,
		"stm.backoff_ns":                    "stm_backoff_ns_total" + mgr,
		"contention.aborts_enemy":           "stm_aborts_enemy_total" + mgr,
		"contention.aborts_validation":      "stm_aborts_validation_total" + mgr,
		"contention.aborts_validation_held": "stm_aborts_validation_held_total" + mgr,
		"contention.aborts_cas_race":        "stm_aborts_cas_race_total" + mgr,
		"contention.aborts_user_error":      "stm_aborts_user_total" + mgr,
		"wal.records":                       "wal_records_total",
		"wal.batches":                       "wal_batches_total",
		"wal.fsyncs":                        "wal_fsyncs_total",
		"wal.dropped":                       "wal_dropped_total",
		"wal.segment":                       "wal_segment",
		"wal.wal_segments":                  "wal_segments",
		"wal.snapshots_completed":           "wal_snapshots_completed_total",
		"wal.snapshot_last_usec":            "wal_snapshot_last_seconds",
		"wal.snapshot_last_chunks":          "wal_snapshot_last_chunks",
		"wal.snapshot_chunk_retries":        "wal_snapshot_chunk_retries_total",
		"wal.snapshot_tail_records":         "wal_snapshot_tail_records_total",
		"wal.lsn_enqueued":                  "wal_lsn_enqueued",
		"wal.lsn_durable":                   "wal_lsn_durable",
		"wal.queue_depth":                   "wal_queue_depth",
		"wal.sticky_error":                  "wal_sticky_error",
		"keyspace.db0":                      "stmkv_keys",
	}
	if len(twins) != 34 {
		t.Fatalf("%d twins listed, want 34", len(twins))
	}
	series := map[string]bool{}
	for key, metric := range twins {
		series[metric] = true
		text, ok := info[key]
		if !ok {
			t.Errorf("INFO has no %s", key)
			continue
		}
		got, ok := samples[metric]
		if !ok {
			t.Errorf("/metrics has no %s", metric)
			continue
		}
		var want float64
		switch key {
		case "wal.snapshot_last_usec":
			got = float64(time.Duration(math.Round(got * 1e9)).Microseconds())
			want, err = strconv.ParseFloat(text, 64)
		case "wal.sticky_error":
			if text != "none" {
				want = 1
			}
		case "keyspace.db0":
			want, err = strconv.ParseFloat(strings.TrimPrefix(text, "keys="), 64)
		default:
			want, err = strconv.ParseFloat(text, 64)
		}
		if err != nil {
			t.Errorf("INFO %s:%s: %v", key, text, err)
		} else if got != want {
			t.Errorf("INFO %s:%s, /metrics %s %g", key, text, metric, got)
		}
	}
	// The load moved what it should, so equal values are not all zeros.
	for _, key := range []string{"stm.commits", "wal.records", "wal.snapshots_completed", "wal.snapshot_last_chunks", "stats.sweeper_reaped_keys", "keyspace.db0"} {
		if v := info[key]; v == "0" || v == "keys=0" {
			t.Errorf("INFO %s is %s after the load", key, v)
		}
	}
	// Every scalar series is one of the twins: the per-command series
	// and the histograms' samples are the only others.
	for name := range samples {
		scalar := !strings.Contains(name, `{cmd="`) && !strings.Contains(name, "_bucket{") &&
			!strings.HasSuffix(name, "_sum") && !strings.HasSuffix(name, "_count") &&
			!strings.Contains(name, "_sum{") && !strings.Contains(name, "_count{")
		if scalar && !series[name] {
			t.Errorf("/metrics series %s has no INFO twin", name)
		}
	}
}
