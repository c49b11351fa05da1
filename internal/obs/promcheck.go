package obs

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// The grammar CheckExposition holds a line to: Prometheus's names for
// metrics and labels, and a sample as a metric name, an optional block
// of quoted label values (escapes honoured) and a value.
const (
	metricNameRe = `[a-zA-Z_:][a-zA-Z0-9_:]*`
	labelPairRe  = `[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"`
)

var (
	metricName = regexp.MustCompile(`^` + metricNameRe + `$`)
	sampleLine = regexp.MustCompile(`^(` + metricNameRe + `)(\{` + labelPairRe + `(?:,` + labelPairRe + `)*\})? (.*)$`)
)

// CheckExposition validates Prometheus text-format output and returns
// the parsed samples keyed by the full series name as written
// (name plus label block). It is deliberately strict about the things
// a scraper would choke on — malformed lines, metric or label names
// outside the grammar, samples with no TYPE or apart from their
// family's group, duplicate series, unparseable values — and is shared
// by the package tests and kv's metrics tests so both verify the same
// contract.
func CheckExposition(data []byte) (map[string]float64, error) {
	samples := make(map[string]float64)
	typed := make(map[string]string) // family name -> kind
	current := ""                    // the family of the last TYPE line
	for ln, line := range strings.Split(string(data), "\n") {
		lineNo := ln + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return nil, fmt.Errorf("line %d: malformed comment %q", lineNo, line)
			}
			if !metricName.MatchString(fields[2]) {
				return nil, fmt.Errorf("line %d: bad metric name %q", lineNo, fields[2])
			}
			if fields[1] == "TYPE" {
				name := fields[2]
				if len(fields) < 4 {
					return nil, fmt.Errorf("line %d: TYPE without kind", lineNo)
				}
				kind := fields[3]
				if kind != "counter" && kind != "gauge" && kind != "histogram" && kind != "summary" && kind != "untyped" {
					return nil, fmt.Errorf("line %d: unknown TYPE %q", lineNo, kind)
				}
				if _, dup := typed[name]; dup {
					return nil, fmt.Errorf("line %d: duplicate TYPE for %q", lineNo, name)
				}
				typed[name] = kind
				current = name
			}
			continue
		}

		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			return nil, fmt.Errorf("line %d: malformed sample %q", lineNo, line)
		}
		name, base := m[1]+m[2], m[1]
		val, err := strconv.ParseFloat(strings.TrimSpace(m[3]), 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad value in %q: %v", lineNo, line, err)
		}
		fam := base
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(base, suffix)
			if trimmed != base && typed[trimmed] == "histogram" {
				fam = trimmed
				break
			}
		}
		if _, ok := typed[fam]; !ok {
			return nil, fmt.Errorf("line %d: sample %q has no preceding TYPE", lineNo, name)
		}
		if fam != current {
			return nil, fmt.Errorf("line %d: sample %q is apart from its family's group under %q's TYPE", lineNo, name, fam)
		}
		if _, dup := samples[name]; dup {
			return nil, fmt.Errorf("line %d: duplicate series %q", lineNo, name)
		}
		samples[name] = val
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("exposition contains no samples")
	}
	return samples, nil
}
