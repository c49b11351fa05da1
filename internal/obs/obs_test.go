package obs

import (
	"bytes"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

func TestHistogramConcurrentSnapshot(t *testing.T) {
	var h Histogram
	const goroutines, per = 4, 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(g+1) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	snap := h.Snapshot()
	if snap.Count() != goroutines*per {
		t.Fatalf("snapshot count = %d, want %d", snap.Count(), goroutines*per)
	}
	wantSum := time.Duration(per) * (1 + 2 + 3 + 4) * time.Microsecond
	if snap.Sum() != wantSum {
		t.Fatalf("snapshot sum = %v, want %v", snap.Sum(), wantSum)
	}
	if p := snap.Quantile(0.99); p < 4*time.Microsecond || p > 8*time.Microsecond {
		t.Fatalf("p99 = %v, want within [4us, 8us]", p)
	}
}

func TestWritePromParseBack(t *testing.T) {
	var buf bytes.Buffer
	WriteFamily(&buf, "stmkv_commands_total", "Commands processed.", "counter")
	WriteInt(&buf, "stmkv_commands_total", 5, "cmd", "get")
	WriteInt(&buf, "stmkv_commands_total", 3, "cmd", "set")
	WriteFamily(&buf, "stmkv_uptime_seconds", "Uptime.", "gauge")
	WriteFloat(&buf, "stmkv_uptime_seconds", 1.5)
	WriteFamily(&buf, "stm_commits_total", "Commits.", "counter")
	WriteInt(&buf, "stm_commits_total", 99, "manager", "greedy")
	var lat metrics.Histogram
	lat.Observe(100 * time.Microsecond)
	lat.Observe(3 * time.Millisecond)
	WriteFamily(&buf, "stmkv_command_seconds", "Latency.", "histogram")
	WriteHistogram(&buf, "stmkv_command_seconds", &lat, 1e-9, "cmd", "get")
	WriteHistogram(&buf, "stmkv_command_seconds", &metrics.Histogram{}, 1e-9, "cmd", "set")
	var sizes metrics.Histogram
	sizes.Observe(4)
	WriteFamily(&buf, "wal_batch_ops", "Batch sizes.", "histogram")
	WriteHistogram(&buf, "wal_batch_ops", &sizes, 1)

	out := buf.String()
	samples, err := CheckExposition(buf.Bytes())
	if err != nil {
		t.Fatalf("exposition failed parse-back: %v\n%s", err, out)
	}
	if samples[`stmkv_commands_total{cmd="get"}`] != 5 {
		t.Fatalf("get counter sample wrong:\n%s", out)
	}
	if samples[`stm_commits_total{manager="greedy"}`] != 99 {
		t.Fatalf("labelled counter sample wrong:\n%s", out)
	}
	if samples[`stmkv_uptime_seconds`] != 1.5 {
		t.Fatalf("gauge sample wrong:\n%s", out)
	}
	if samples[`stmkv_command_seconds_count{cmd="get"}`] != 2 {
		t.Fatalf("histogram count wrong:\n%s", out)
	}
	if samples[`stmkv_command_seconds_bucket{cmd="get",le="+Inf"}`] != 2 {
		t.Fatalf("+Inf bucket wrong:\n%s", out)
	}
	if samples[`stmkv_command_seconds_count{cmd="set"}`] != 0 {
		t.Fatalf("empty histogram count wrong:\n%s", out)
	}
	sum := samples[`stmkv_command_seconds_sum{cmd="get"}`]
	if sum < 0.003 || sum > 0.0032 {
		t.Fatalf("histogram sum = %g, want ~0.0031:\n%s", sum, out)
	}
	if samples[`wal_batch_ops_sum`] != 4 {
		t.Fatalf("size histogram sum = %g, want unscaled 4:\n%s", samples[`wal_batch_ops_sum`], out)
	}
	if !strings.Contains(out, "# TYPE stmkv_command_seconds histogram") {
		t.Fatalf("missing TYPE line:\n%s", out)
	}
	// Cumulative buckets: every _bucket sample is <= the +Inf total.
	for name, v := range samples {
		if strings.Contains(name, "_bucket{") && strings.Contains(name, `cmd="get"`) {
			if v > 2 {
				t.Fatalf("bucket %s = %g exceeds count", name, v)
			}
		}
	}
}

func TestWritePromLabelEscaping(t *testing.T) {
	var buf bytes.Buffer
	WriteFamily(&buf, "weird_total", "a \\ help\nline", "counter")
	WriteInt(&buf, "weird_total", 1, "key", "a\"b\\c\nd")
	samples, err := CheckExposition(buf.Bytes())
	if err != nil {
		t.Fatalf("escaped output failed parse-back: %v\n%s", err, buf.String())
	}
	if len(samples) != 1 || samples[`weird_total{key="a\"b\\c\nd"}`] != 1 {
		t.Fatalf("want the one escaped sample, got %v", samples)
	}
}

func TestCheckExpositionRejectsMalformed(t *testing.T) {
	cases := []string{
		"no_type_line 3\n",
		"# TYPE x counter\nx notanumber\n",
		"# TYPE x counter\nx{unterminated=\"v 3\n",
		"# TYPE x counter\n# TYPE x counter\nx 1\n",
		"# TYPE x counter\nx 1\nx 2\n",
		"",
		// A family's samples split from its group.
		"# TYPE a counter\n# TYPE b counter\nb 1\na 1\n",
	}
	for _, c := range cases {
		if _, err := CheckExposition([]byte(c)); err == nil {
			t.Fatalf("malformed exposition accepted: %q", c)
		}
	}
}

func TestCheckExpositionRejectsInvalidNames(t *testing.T) {
	cases := []string{
		// Metric names outside Prometheus's grammar.
		"# TYPE 9bad counter\n9bad 1\n",
		"# TYPE bad-name counter\nbad-name 1\n",
		"# HELP bad-name help\n",
		// Label names outside it.
		"# TYPE x counter\nx{9k=\"v\"} 1\n",
		"# TYPE x counter\nx{bad-name=\"v\"} 1\n",
	}
	for _, c := range cases {
		if _, err := CheckExposition([]byte(c)); err == nil {
			t.Fatalf("invalid name accepted: %q", c)
		}
	}
}

func TestMuxEndpoints(t *testing.T) {
	healthy := true
	mux := Mux(func(w io.Writer) {
		WriteFamily(w, "up_total", "", "counter")
		WriteInt(w, "up_total", 1)
	}, func() error {
		if !healthy {
			return io.ErrClosedPipe
		}
		return nil
	}, NewConflicts("greedy"))
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) (int, []byte) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}

	code, body := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	if _, err := CheckExposition(body); err != nil {
		t.Fatalf("/metrics not well-formed: %v", err)
	}
	if code, body = get("/healthz"); code != 200 || !strings.Contains(string(body), "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	healthy = false
	if code, _ = get("/healthz"); code != 503 {
		t.Fatalf("unhealthy /healthz status = %d, want 503", code)
	}
	// pprof index and a real profile endpoint must be reachable.
	if code, _ = get("/debug/pprof/"); code != 200 {
		t.Fatalf("/debug/pprof/ status %d", code)
	}
	if code, _ = get("/debug/pprof/goroutine?debug=1"); code != 200 {
		t.Fatalf("/debug/pprof/goroutine status %d", code)
	}
	if code, _ = get("/debug/stm/conflicts"); code != 200 {
		t.Fatalf("/debug/stm/conflicts status %d", code)
	}
}
