package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/metrics"
)

// The writers below emit the Prometheus text exposition format
// (version 0.0.4). A family is its WriteFamily header followed by all
// of its samples as one group. labels alternate label names and
// values, e.g. "cmd", "get"; values are escaped, names are written as
// given. Write errors are left to the caller's writer: a scrape cut
// short is a truncated body the scraper retries. CheckExposition
// checks what they produce.

// WriteFamily writes a family's HELP and TYPE lines; kind is
// "counter", "gauge" or "histogram".
func WriteFamily(w io.Writer, name, help, kind string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, helpEscaper.Replace(help), name, kind)
}

// WriteInt writes one integer sample.
func WriteInt(w io.Writer, name string, v int64, labels ...string) {
	fmt.Fprintf(w, "%s%s %d\n", name, labelBlock(labels), v)
}

// WriteFloat writes one floating-point sample.
func WriteFloat(w io.Writer, name string, v float64, labels ...string) {
	fmt.Fprintf(w, "%s%s %s\n", name, labelBlock(labels), formatFloat(v))
}

// WriteHistogram writes one histogram series: cumulative buckets for
// the occupied le edges plus the mandatory +Inf bucket, then _sum and
// _count. Skipping empty buckets keeps 64-way series compact;
// cumulative semantics make any subset of edges valid. scale
// multiplies raw values and bucket edges: 1e-9 turns nanosecond
// durations into the seconds Prometheus expects, 1 leaves unit-less
// sizes alone.
func WriteHistogram(w io.Writer, name string, h *metrics.Histogram, scale float64, labels ...string) {
	le := append(labels[:len(labels):len(labels)], "le", "")
	var cum uint64
	for i, c := range h.Counts() {
		if c == 0 {
			continue
		}
		cum += c
		le[len(le)-1] = formatFloat(float64(metrics.BucketUpper(i)) * scale)
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, labelBlock(le), cum)
	}
	le[len(le)-1] = "+Inf"
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, labelBlock(le), h.Count())
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labelBlock(labels), formatFloat(float64(h.Sum())*scale))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labelBlock(labels), h.Count())
}

// labelBlock renders {k="v",...}, or "" when there are no labels.
func labelBlock(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(labelEscaper.Replace(labels[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
