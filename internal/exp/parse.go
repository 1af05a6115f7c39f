package exp

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseAlgoSpec parses the CLI algorithm syntax shared by slowcctrace's
// -flow and slowccsim's -matrix: key[:arg], one roster row and its
// argument (AlgoSyntax lists them). An omitted argument takes the row's
// default; one outside the row's domain, NaN included, is an error.
func ParseAlgoSpec(spec string) (AlgoSpec, error) {
	key, arg, hasArg := strings.Cut(spec, ":")
	r, ok := row(strings.ToLower(key))
	if !ok {
		return AlgoSpec{}, fmt.Errorf("unknown algorithm %q (want %s)", key, strings.Join(rosterKeys(), ", "))
	}
	val := r.arg
	if hasArg {
		var err error
		val, err = strconv.ParseFloat(arg, 64)
		if err != nil {
			return AlgoSpec{}, fmt.Errorf("flow %q: %v", spec, err)
		}
		if !r.dom.has(val) {
			return AlgoSpec{}, fmt.Errorf("flow %q: %s wants %s", spec, r.key, r.dom.text)
		}
	}
	return r.spec(val), nil
}

func rosterKeys() []string {
	keys := make([]string, len(roster))
	for i, r := range roster {
		keys[i] = r.key
	}
	return keys
}

// AlgoSyntax is the help text for the key[:arg] syntax: one line per
// roster row, with its argument's domain and default.
func AlgoSyntax() string {
	lines := make([]string, len(roster))
	for i, r := range roster {
		lines[i] = fmt.Sprintf("  %-9s %s; %s (default %g)", r.key, r.help, r.dom.text, r.arg)
	}
	return strings.Join(lines, "\n")
}

// ParseAlgoList parses a comma-separated list of algorithm specs, e.g.
// "tcp:0.5,tfrc:8,sqrt:0.5" (the -matrix CLI syntax).
func ParseAlgoList(list string) ([]AlgoSpec, error) {
	var out []AlgoSpec
	for _, spec := range strings.Split(list, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		a, err := ParseAlgoSpec(spec)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty algorithm list %q", list)
	}
	return out, nil
}
