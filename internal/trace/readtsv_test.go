package trace

import (
	"bufio"
	"fmt"
	"io"
)

// ReadTSV parses the format WriteTSV emits (header required). It is
// WriteTSV's round-trip oracle: no binary reads a trace TSV back, so the
// reader lives with the tests that hold the writer to it.
func ReadTSV(rd io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("trace: empty TSV")
	}
	if header := sc.Text(); header != "t\top\tflow\tkind\tseq\tsize\thop" {
		return nil, fmt.Errorf("trace: unrecognized TSV header %q", header)
	}
	var out []Event
	line := 1
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" {
			continue
		}
		// The hop column may legitimately be empty; Sscanf cannot express
		// that, so split by hand.
		ev, err := parseEventFields(text)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %v", line, err)
		}
		out = append(out, ev)
	}
	return out, sc.Err()
}

// parseOp inverts Op.String.
func parseOp(s string) (Op, error) {
	switch s {
	case "send":
		return Send, nil
	case "recv":
		return Recv, nil
	case "drop":
		return Drop, nil
	case "mark":
		return Mark, nil
	}
	return 0, fmt.Errorf("trace: unknown op %q", s)
}

// parseEventFields parses one seven-column event row.
func parseEventFields(text string) (Event, error) {
	var ev Event
	fields := splitTabs(text, 7)
	if len(fields) != 7 {
		return ev, fmt.Errorf("want 7 columns, got %d", len(fields))
	}
	if _, err := fmt.Sscanf(fields[0], "%g", &ev.T); err != nil {
		return ev, fmt.Errorf("t: %v", err)
	}
	op, err := parseOp(fields[1])
	if err != nil {
		return ev, err
	}
	ev.Op = op
	if _, err := fmt.Sscanf(fields[2], "%d", &ev.Flow); err != nil {
		return ev, fmt.Errorf("flow: %v", err)
	}
	if _, err := fmt.Sscanf(fields[3], "%d", &ev.Kind); err != nil {
		return ev, fmt.Errorf("kind: %v", err)
	}
	if _, err := fmt.Sscanf(fields[4], "%d", &ev.Seq); err != nil {
		return ev, fmt.Errorf("seq: %v", err)
	}
	if _, err := fmt.Sscanf(fields[5], "%d", &ev.Size); err != nil {
		return ev, fmt.Errorf("size: %v", err)
	}
	ev.Hop = fields[6]
	return ev, nil
}

// splitTabs splits text into at most n tab-separated fields without
// dropping trailing empties (unlike strings.Split it is bounded, which
// keeps a malformed row from ballooning).
func splitTabs(text string, n int) []string {
	out := make([]string, 0, n)
	start := 0
	for i := 0; i < len(text) && len(out) < n-1; i++ {
		if text[i] == '\t' {
			out = append(out, text[start:i])
			start = i + 1
		}
	}
	return append(out, text[start:])
}
