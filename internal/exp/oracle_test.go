package exp

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"slowcc/internal/obs"
)

var (
	runOracle    = flag.Bool("oracle", false, "run TestRosterOracle: every roster row at seed 1 against testdata/oracle.tsv")
	updateOracle = flag.Bool("update-oracle", false, "with -oracle, rewrite testdata/oracle.tsv from this run")
)

// oraclePath is the behavioural oracle: one line per roster row, as
// slowccsim -exp all -seed 1 runs it.
const oraclePath = "testdata/oracle.tsv"

// oracleColumns are the oracle's columns, in order:
//   - cells: how many finished cells the row's sweeps harvested
//   - events: the engine events those cells executed, summed
//   - digest: the XOR of the cells' stream digests (export.Collector's fold)
//   - counters: sha256 of the summed counters, as sorted "name value" lines
//   - text: sha256 of the rendered text
//   - result: sha256 of the result's JSON, the run manifest's outputs[row]
var oracleColumns = []string{"row", "cells", "events", "digest", "counters", "text", "result"}

// runOracleRow runs e as slowccsim -exp all -seed 1 does, on sw with a
// fresh recording sink as its Progress, and returns the row's oracle
// line and its text.
func runOracleRow(t testing.TB, sw *Sweep, e Experiment) (line []string, text string) {
	t.Helper()
	sink := &recordingSink{}
	sw.Progress = sink
	text, data := e.Run(sw, false, 1, MatrixConfig{})
	blob, err := json.Marshal(data)
	if err != nil {
		t.Fatalf("%s: result does not marshal: %v", e.Name, err)
	}
	var events, digest uint64
	counters := map[string]int64{}
	for _, st := range sink.stats {
		events += st.Events
		digest ^= st.Digest
		for name, v := range st.Counters {
			counters[name] += v
		}
	}
	names := make([]string, 0, len(counters))
	for name := range counters {
		names = append(names, name)
	}
	slices.Sort(names)
	var c strings.Builder
	for _, name := range names {
		fmt.Fprintf(&c, "%s %d\n", name, counters[name])
	}
	return []string{
		e.Name,
		strconv.Itoa(len(sink.stats)),
		strconv.FormatUint(events, 10),
		fmt.Sprintf("%016x", digest),
		obs.DigestBytes([]byte(c.String())),
		obs.DigestBytes([]byte(text)),
		obs.DigestBytes(blob),
	}, text
}

// readOracle returns the checked-in oracle's lines by row name.
func readOracle(t testing.TB) map[string][]string {
	t.Helper()
	b, err := os.ReadFile(oraclePath)
	if err != nil {
		t.Fatalf("%v (record it with -oracle -update-oracle)", err)
	}
	lines := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	if lines[0] != strings.Join(oracleColumns, "\t") {
		t.Fatalf("%s: header %q, want %q", oraclePath, lines[0], strings.Join(oracleColumns, "\t"))
	}
	rows := map[string][]string{}
	for i, l := range lines[1:] {
		f := strings.Split(l, "\t")
		if len(f) != len(oracleColumns) {
			t.Fatalf("%s:%d: %d columns, want %d", oraclePath, i+2, len(f), len(oracleColumns))
		}
		rows[f[0]] = f
	}
	return rows
}

// checkOracle fails t for a row whose line moved from the oracle's,
// naming each column that moved and what that says changed.
func checkOracle(t testing.TB, oracle map[string][]string, got []string) {
	t.Helper()
	want, ok := oracle[got[0]]
	if !ok {
		t.Errorf("%s: no line in %s", got[0], oraclePath)
		return
	}
	var moved []string
	changed := map[string]bool{}
	for i, col := range oracleColumns[1:] {
		if want[i+1] != got[i+1] {
			moved = append(moved, fmt.Sprintf("%s %s -> %s", col, want[i+1], got[i+1]))
			changed[col] = true
		}
	}
	if len(moved) == 0 {
		return
	}
	why := "a counter changed"
	switch {
	case changed["cells"] || changed["events"] || changed["digest"]:
		why = "the simulation changed"
	case changed["result"] || changed["text"]:
		why = "a metric or a renderer changed"
	}
	t.Errorf("%s moved from %s (%s): %s", got[0], oraclePath, why, strings.Join(moved, "; "))
}

// TestRosterOracle holds every roster row at reduced scale and seed 1 to
// its line in testdata/oracle.tsv. It runs the whole roster under the
// invariant auditor (about a minute of CPU), so it runs only with
// -oracle (make oracle); -update-oracle rewrites the table. A change
// that moves the table says why, row by row.
func TestRosterOracle(t *testing.T) {
	if !*runOracle {
		t.Skip("the whole roster: run with -oracle (make oracle)")
	}
	var oracle map[string][]string
	if !*updateOracle {
		oracle = readOracle(t)
		if len(oracle) != len(Experiments()) {
			t.Errorf("%s has %d rows, the roster %d", oraclePath, len(oracle), len(Experiments()))
		}
	}
	sw := newSweep(t)
	table := strings.Join(oracleColumns, "\t") + "\n"
	for _, e := range Experiments() {
		line, _ := runOracleRow(t, sw, e)
		table += strings.Join(line, "\t") + "\n"
		if oracle != nil {
			checkOracle(t, oracle, line)
		}
	}
	if *updateOracle {
		if err := os.WriteFile(oraclePath, []byte(table), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
