package obs

import (
	"fmt"
	"strconv"
	"strings"
)

// CheckExposition validates Prometheus text-format output and returns
// the parsed samples keyed by the full series name as written
// (name plus label block). It is deliberately strict about the things
// a scraper would choke on — malformed lines, samples with no TYPE,
// duplicate series, unparseable values — and is shared by the package
// tests and kv's metrics tests so both verify the same contract.
func CheckExposition(data []byte) (map[string]float64, error) {
	samples := make(map[string]float64)
	typed := make(map[string]string) // family name -> kind
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
			}
			continue
		}

		name, rest, err := splitSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		val, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad value in %q: %v", lineNo, line, err)
		}
		base := name
		if i := strings.IndexByte(base, '{'); i >= 0 {
			base = base[:i]
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

// splitSample splits "name{labels} value" or "name value" into the
// series name (labels included) and the value text, honoring quotes
// and escapes inside label values.
func splitSample(line string) (name, rest string, err error) {
	brace := strings.IndexByte(line, '{')
	space := strings.IndexByte(line, ' ')
	if brace < 0 || (space >= 0 && space < brace) {
		// No label block.
		if space < 0 {
			return "", "", fmt.Errorf("malformed sample %q", line)
		}
		return line[:space], line[space+1:], nil
	}
	inQuote, esc := false, false
	for i := brace + 1; i < len(line); i++ {
		c := line[i]
		switch {
		case esc:
			esc = false
		case c == '\\':
			esc = true
		case c == '"':
			inQuote = !inQuote
		case c == '}' && !inQuote:
			if i+1 >= len(line) || line[i+1] != ' ' {
				return "", "", fmt.Errorf("missing value after label block in %q", line)
			}
			return line[:i+1], line[i+2:], nil
		}
	}
	return "", "", fmt.Errorf("unterminated label block in %q", line)
}
