package export

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file is the strict consumer side of the exposition format: a
// validating parser for the subset of the text format (v0.0.4) the
// writers in this package emit. It exists so ci can prove a live
// /metrics scrape is well-formed without importing a Prometheus client
// — and it is deliberately stricter than Prometheus itself: every
// sample must belong to a declared # TYPE family, histogram bucket
// series must be cumulative with a +Inf bucket agreeing with _count,
// and duplicate series are errors.

// ParsedSample is one sample line.
type ParsedSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// MetricFamily is one # TYPE group with its samples in input order.
type MetricFamily struct {
	Name    string
	Type    string // counter | gauge | histogram | summary | untyped
	Samples []ParsedSample
}

// ParseText strictly parses an exposition document, returning families
// keyed by name. The first malformed line, orphaned sample, duplicate
// series, or inconsistent histogram fails the parse with a line number.
func ParseText(r io.Reader) (map[string]*MetricFamily, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	fams := map[string]*MetricFamily{}
	seen := map[string]bool{} // name + sorted labels, duplicate-series guard
	ln := 0
	for sc.Scan() {
		ln++
		line := sc.Text()
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "# TYPE "):
			rest := strings.Fields(line[len("# TYPE "):])
			if len(rest) != 2 {
				return nil, fmt.Errorf("line %d: malformed TYPE line %q", ln, line)
			}
			name, typ := rest[0], rest[1]
			if err := checkPromName(name); err != nil {
				return nil, fmt.Errorf("line %d: %v", ln, err)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return nil, fmt.Errorf("line %d: unknown metric type %q", ln, typ)
			}
			if fams[name] != nil {
				return nil, fmt.Errorf("line %d: duplicate TYPE for family %q", ln, name)
			}
			fams[name] = &MetricFamily{Name: name, Type: typ}
		case strings.HasPrefix(line, "#"):
			continue // HELP and comments
		default:
			s, err := parseSampleLine(line)
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", ln, err)
			}
			fam := familyOf(fams, s.Name)
			if fam == nil {
				return nil, fmt.Errorf("line %d: sample %q belongs to no declared family", ln, s.Name)
			}
			key := seriesKey(s)
			if seen[key] {
				return nil, fmt.Errorf("line %d: duplicate series %s", ln, key)
			}
			seen[key] = true
			fam.Samples = append(fam.Samples, s)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, fam := range fams {
		if fam.Type == "histogram" {
			if err := checkHistogramFamily(fam); err != nil {
				return nil, err
			}
		}
	}
	return fams, nil
}

// Validate parses the document and returns its family and sample
// counts: the gate the tests and the benchmark hold a /metrics scrape to.
func Validate(r io.Reader) (families, samples int, err error) {
	fams, err := ParseText(r)
	if err != nil {
		return 0, 0, err
	}
	for _, fam := range fams {
		samples += len(fam.Samples)
	}
	return len(fams), samples, nil
}

// familyOf resolves a sample name to its family, allowing the
// histogram/summary suffixed series.
func familyOf(fams map[string]*MetricFamily, name string) *MetricFamily {
	if f := fams[name]; f != nil {
		return f
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base, ok := strings.CutSuffix(name, suf)
		if !ok {
			continue
		}
		if f := fams[base]; f != nil && (f.Type == "histogram" || f.Type == "summary") {
			if suf == "_bucket" && f.Type != "histogram" {
				return nil
			}
			return f
		}
	}
	return nil
}

// checkPromName enforces the metric-name grammar.
func checkPromName(name string) error {
	if name == "" {
		return fmt.Errorf("empty metric name")
	}
	for i, r := range name {
		ok := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r == '_' || r == ':' ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return fmt.Errorf("illegal metric name %q", name)
		}
	}
	return nil
}

// checkLabelName enforces the label-name grammar.
func checkLabelName(name string) error {
	if name == "" || strings.HasPrefix(name, "__") {
		return fmt.Errorf("illegal label name %q", name)
	}
	for i, r := range name {
		ok := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r == '_' ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return fmt.Errorf("illegal label name %q", name)
		}
	}
	return nil
}

// parseSampleLine parses `name[{label="value",...}] value`.
func parseSampleLine(line string) (ParsedSample, error) {
	s := ParsedSample{Labels: map[string]string{}}
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	s.Name = line[:i]
	if err := checkPromName(s.Name); err != nil {
		return s, err
	}
	rest := line[i:]
	if rest[0] == '{' {
		end, err := parseLabels(rest, s.Labels)
		if err != nil {
			return s, fmt.Errorf("%v in %q", err, line)
		}
		rest = rest[end:]
	}
	rest = strings.TrimSpace(rest)
	if rest == "" {
		return s, fmt.Errorf("missing value in %q", line)
	}
	// The text format allows a trailing timestamp; our writers never
	// emit one, and strictness is the point here.
	v, err := parsePromValue(rest)
	if err != nil {
		return s, fmt.Errorf("bad value %q in %q", rest, line)
	}
	s.Value = v
	return s, nil
}

// parseLabels parses a {k="v",...} block starting at s[0]=='{',
// returning the index just past the closing brace.
func parseLabels(s string, out map[string]string) (int, error) {
	i := 1
	for {
		if i >= len(s) {
			return 0, fmt.Errorf("unterminated label block")
		}
		if s[i] == '}' {
			return i + 1, nil
		}
		eq := strings.Index(s[i:], "=")
		if eq < 0 {
			return 0, fmt.Errorf("label without '='")
		}
		name := s[i : i+eq]
		if err := checkLabelName(name); err != nil {
			return 0, err
		}
		i += eq + 1
		if i >= len(s) || s[i] != '"' {
			return 0, fmt.Errorf("unquoted label value")
		}
		i++
		var val strings.Builder
		for {
			if i >= len(s) {
				return 0, fmt.Errorf("unterminated label value")
			}
			c := s[i]
			if c == '\\' {
				if i+1 >= len(s) {
					return 0, fmt.Errorf("dangling escape")
				}
				switch s[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return 0, fmt.Errorf("bad escape \\%c", s[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				i++
				break
			}
			val.WriteByte(c)
			i++
		}
		if _, dup := out[name]; dup {
			return 0, fmt.Errorf("duplicate label %q", name)
		}
		out[name] = val.String()
		if i < len(s) && s[i] == ',' {
			i++
		}
	}
}

// parsePromValue parses a sample value, accepting the format's spelled
// infinities.
func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// seriesKey identifies a series by name plus sorted labels.
func seriesKey(s ParsedSample) string {
	if len(s.Labels) == 0 {
		return s.Name
	}
	keys := sortedKeys(s.Labels)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, k+"="+strconv.Quote(s.Labels[k]))
	}
	return s.Name + "{" + strings.Join(parts, ",") + "}"
}

// checkHistogramFamily verifies the histogram contract: bucket counts
// non-decreasing in ascending le order, a +Inf bucket present and equal
// to _count, and _sum/_count present exactly once.
func checkHistogramFamily(fam *MetricFamily) error {
	type bkt struct {
		le    float64
		count float64
	}
	var buckets []bkt
	haveInf := false
	var inf, count, sum float64
	var nCount, nSum int
	for _, s := range fam.Samples {
		switch s.Name {
		case fam.Name + "_bucket":
			le, ok := s.Labels["le"]
			if !ok {
				return fmt.Errorf("family %q: bucket without le label", fam.Name)
			}
			v, err := parsePromValue(le)
			if err != nil {
				return fmt.Errorf("family %q: unparseable le %q", fam.Name, le)
			}
			if math.IsInf(v, 1) {
				haveInf, inf = true, s.Value
				continue
			}
			buckets = append(buckets, bkt{le: v, count: s.Value})
		case fam.Name + "_count":
			count = s.Value
			nCount++
		case fam.Name + "_sum":
			sum = s.Value
			nSum++
		default:
			return fmt.Errorf("family %q: stray series %q", fam.Name, s.Name)
		}
	}
	_ = sum
	if nCount != 1 || nSum != 1 {
		return fmt.Errorf("family %q: need exactly one _count and one _sum (got %d, %d)", fam.Name, nCount, nSum)
	}
	if !haveInf {
		return fmt.Errorf("family %q: missing +Inf bucket", fam.Name)
	}
	if inf != count {
		return fmt.Errorf("family %q: +Inf bucket %g != _count %g", fam.Name, inf, count)
	}
	sort.SliceStable(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	for i := 1; i < len(buckets); i++ {
		if buckets[i].count < buckets[i-1].count {
			return fmt.Errorf("family %q: bucket counts not cumulative at le=%g", fam.Name, buckets[i].le)
		}
	}
	if len(buckets) > 0 && buckets[len(buckets)-1].count > inf {
		return fmt.Errorf("family %q: finite bucket exceeds +Inf count", fam.Name)
	}
	return nil
}
