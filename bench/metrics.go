package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// This file is the metric dictionary in code. BENCHMARK.json carries
// the same names and units (plus direction and bound); the package's
// test fails when the two disagree, and a run fails when it has not
// produced every metric of its mode exactly once. README.md says what
// each one means.

type metricDef struct{ name, unit string }

// endToEnd is printed by an untraced run (--trace 0), for every
// workload. See README.md for why the issue's open-loop, recovery and
// failure-ratio metrics are not here.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_ops_s", "1/s"},
	{"lat_p50_us", "us"},
	{"cpu_us_per_op", "us"},
	{"rss_peak_mb", "MB"},
}

// perLayer is printed by a traced run (--trace 1), for every workload;
// a metric a workload cannot have (open-loop latency without a socket,
// log counters without a log) reads 0 there.
var perLayer = []metricDef{
	{"client.encode_write_ns_op", "ns"},
	{"client.wait_ns_op", "ns"},
	{"client.read_decode_ns_op", "ns"},
	{"client.lat_p99_us", "us"},
	{"client.window_spread", "ratio"},
	{"client.traced_throughput_ops_s", "1/s"},
	{"client.open8k_lat_p50_us", "us"},
	{"client.open8k_lat_p99_us", "us"},
	{"client.open20k_lat_p50_us", "us"},
	{"client.open20k_lat_p99_us", "us"},
	{"client.gen_lag_p99_us", "us"},
	{"client.max_rate_ok_ops_s", "1/s"},

	{"os.read_syscalls_op", "count"},
	{"os.write_syscalls_op", "count"},
	{"os.ctx_switches_op", "count"},
	{"os.socket_ns_op", "ns"},
	{"os.fsync_us", "us"},

	{"resp.decode_ns_op", "ns"},
	{"resp.decode_allocs_op", "count"},
	{"resp.decode_bytes_op", "B"},
	{"resp.encode_ns_op", "ns"},
	{"resp.encode_allocs_op", "count"},
	{"resp.encode_bytes_op", "B"},

	{"kvserver.pipe_ns_op", "ns"},
	{"kvserver.pipe_allocs_op", "count"},
	{"kvserver.self_ns_op", "ns"},
	{"kvserver.self_allocs_op", "count"},
	{"kvserver.cmd_errors", "count"},

	{"kv.op_ns_op", "ns"},
	{"kv.op_allocs_op", "count"},
	{"kv.op_bytes_op", "B"},
	{"kv.heap_bytes_per_key", "B"},
	{"kv.keys_live", "count"},

	{"container.table_lookup_ns_op", "ns"},
	{"container.table_lookup_allocs_op", "count"},
	{"container.deque_pushpop_ns_op", "ns"},
	{"container.deque_pushpop_allocs_op", "count"},
	{"container.omap_put_ns_op", "ns"},
	{"container.omap_put_allocs_op", "count"},
	{"container.omap_get_ns_op", "ns"},
	{"container.omap_get_allocs_op", "count"},

	{"stm.read_ns_op", "ns"},
	{"stm.read16_ns_op", "ns"},
	{"stm.update_ns_op", "ns"},
	{"stm.update_allocs_op", "count"},
	{"stm.update2_ns_op", "ns"},
	{"stm.commits_op", "count"},
	{"stm.opens_per_commit", "count"},
	{"stm.abort_ratio", "ratio"},
	{"stm.aborts_validation_share", "ratio"},
	{"stm.aborts_casrace_share", "ratio"},
	{"stm.backoff_ns_per_commit", "ns"},

	{"core.wait_ns_per_commit", "ns"},
	{"core.conflicts_per_commit", "count"},
	{"core.enemy_aborts_per_commit", "count"},
	{"core.aborts_enemy_share", "ratio"},

	{"wal.append_sync_ns_op", "ns"},
	{"wal.append_async_ns_op", "ns"},
	{"wal.append_async_allocs_op", "count"},
	{"wal.recover_ns_op", "ns"},
	{"wal.fsyncs_per_record", "ratio"},
	{"wal.ops_per_batch", "count"},
	{"wal.fsync_p50_us", "us"},
	{"wal.bytes_per_user_byte", "ratio"},
	{"wal.dropped", "count"},
	{"wal.recover_us_per_op", "us"},
}

// report collects one run's results.
type report struct {
	values            map[string]float64
	attempted, failed int64
	// problems are violated invariants: any one makes the run incorrect
	// whatever the reply counts say.
	problems []string
}

func newReport() *report { return &report{values: make(map[string]float64)} }

func (r *report) set(name string, v float64) { r.values[name] = v }

// na marks metrics this workload cannot have.
func (r *report) na(names ...string) {
	for _, n := range names {
		r.values[n] = 0
	}
}

func (r *report) count(t tally) { r.attempted += t.attempted; r.failed += t.failed }

func (r *report) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes every metric of defs by name with its unit, then the
// result line. A metric the run did not produce, or produced without a
// definition, is a bug in the benchmark and an error here.
func (r *report) print(w io.Writer, defs []metricDef) error {
	line := resultLine{
		Correct:   r.correct(),
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "VIOLATION: %s\n", p)
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		fmt.Fprintf(w, "%-36s %16.4f %s\n", d.name, v, d.unit)
		line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(line.Metrics) != len(defs) {
		return fmt.Errorf("duplicate metric name in the dictionary")
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}
