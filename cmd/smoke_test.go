// Package cmd_test drives the three commands end to end through the real
// binaries: flag plumbing, exit codes and file round trips the unit
// tests cannot reach. TestMain builds them once.
package cmd_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"slowcc/internal/exp"
)

// bin is the directory holding the built commands.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "slowcc-cmd-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	build := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "./slowccsim", "./slowcctrace", "./slowccreport")
	build.Stderr = os.Stderr
	code := 1
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "building the commands:", err)
	} else {
		bin = dir
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// run runs one built command with dir as its working directory and
// returns its exit code and output.
func run(t *testing.T, dir, name string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(filepath.Join(bin, name), args...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("%s %v: %v", name, args, err)
	}
	return cmd.ProcessState.ExitCode(), out.String(), errb.String()
}

// ok runs a command that must exit 0 and returns its stdout.
func ok(t *testing.T, dir, name string, args ...string) string {
	t.Helper()
	code, stdout, stderr := run(t, dir, name, args...)
	if code != 0 {
		t.Fatalf("%s %v: exit %d\n%s", name, args, code, stderr)
	}
	return stdout
}

func nonEmpty(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil || len(b) == 0 {
		t.Fatalf("%s: %d bytes, %v", path, len(b), err)
	}
	return b
}

// The manifest pipeline: a probed slowcctrace run writes a digest-sealed
// manifest plus probe TSV, and slowccreport must verify the digest and
// render them.
func TestReportSmoke(t *testing.T) {
	dir := t.TempDir()
	ok(t, dir, "slowcctrace", "-flow", "tcp:0.5", "-flow", "tfrc:8", "-dur", "5", "-probe", "0.5",
		"-out", "trace.tsv", "-probes", "run.probes.tsv", "-manifest", "run.json")
	if report := ok(t, dir, "slowccreport", "-probes", "run.probes.tsv", "run.json"); report == "" {
		t.Fatal("slowccreport printed nothing")
	}
}

// The pairwise matrix: a 2x2 algorithm subset on a 2-hop parking lot,
// all three conditions, supervised, with -fail-degraded so a degraded
// cell fails here rather than degrading silently, and the TSV artifact
// and manifest written to disk.
func TestMatrixSmoke(t *testing.T) {
	dir := t.TempDir()
	ok(t, dir, "slowccsim", "-exp", "matrix", "-matrix", "tcp:0.5,tfrc:8", "-topology", "parking-lot:2",
		"-fail-degraded", "-tsv", "matrix.tsv", "-manifest", "run.json")
	cells, err := exp.ParseMatrixTSV(bytes.NewReader(nonEmpty(t, filepath.Join(dir, "matrix.tsv"))))
	if err != nil || len(cells) != 2*2*3 {
		t.Fatalf("matrix.tsv: %d cells, %v; want 12", len(cells), err)
	}
	nonEmpty(t, filepath.Join(dir, "run.json"))
}

// The result store's read side: a matrix recorded into a store, then
// resumed twice. Every resume must reproduce the TSV from hits alone,
// and the second — which finds a compacted store and adds nothing —
// must leave the store's files exactly as it found them.
func TestResumeSmoke(t *testing.T) {
	dir := t.TempDir()
	matrix := func(tsv string, extra ...string) (tsvBytes []byte, stderr string) {
		args := append([]string{"-exp", "matrix", "-matrix", "tcp:0.5,cbr:3e6", "-store", "d", "-tsv", tsv}, extra...)
		code, _, stderr := run(t, dir, "slowccsim", args...)
		if code != 0 {
			t.Fatalf("slowccsim %v: exit %d\n%s", args, code, stderr)
		}
		return nonEmpty(t, filepath.Join(dir, tsv)), stderr
	}
	cold, _ := matrix("a.tsv")
	cells, err := exp.ParseMatrixTSV(bytes.NewReader(cold))
	if err != nil {
		t.Fatal(err)
	}
	summary := fmt.Sprintf("store d: %d entries, %d hits, 0 misses, 0 corrupt\n", len(cells), len(cells))

	snapPath, journalPath := filepath.Join(dir, "d", "snapshot.json"), filepath.Join(dir, "d", "journal.bin")
	var before []byte
	var beforeInfo os.FileInfo
	for _, tsv := range []string{"b.tsv", "c.tsv"} {
		warm, stderr := matrix(tsv, "-resume")
		if !bytes.Equal(warm, cold) {
			t.Fatalf("%s differs from the cold run's a.tsv", tsv)
		}
		if !strings.Contains(stderr, summary) {
			t.Fatalf("%s: stderr %q, want the summary %q", tsv, stderr, summary)
		}
		snap := nonEmpty(t, snapPath)
		info, err := os.Stat(snapPath)
		if err != nil {
			t.Fatal(err)
		}
		if before != nil && (!bytes.Equal(snap, before) || !info.ModTime().Equal(beforeInfo.ModTime())) {
			t.Fatalf("a fully warm resume rewrote snapshot.json (mtime %v -> %v)", beforeInfo.ModTime(), info.ModTime())
		}
		before, beforeInfo = snap, info
		if j, err := os.Stat(journalPath); err != nil || j.Size() != 0 {
			t.Fatalf("journal.bin after %s: %v, %v; want it empty", tsv, j, err)
		}
	}
}

// The latency-attribution pipeline: a journey-enabled slowcctrace run
// writes a trace-event timeline and a histogram-carrying manifest, a
// supervised matrix sweep writes its per-cell telemetry timeline, and
// slowccreport must validate both documents and render the heatmap from
// the sweep's TSV artifact.
func TestTimelineSmoke(t *testing.T) {
	dir := t.TempDir()
	ok(t, dir, "slowcctrace", "-flow", "tcp:0.5", "-flow", "tfrc:8", "-dur", "5", "-journeys",
		"-timeline", "journeys.json", "-manifest", "run.json")
	ok(t, dir, "slowccsim", "-exp", "matrix", "-matrix", "tcp:0.5,cbr:3e6", "-topology", "dumbbell",
		"-fail-degraded", "-timeline", "sweep.json", "-tsv", "matrix.tsv")
	ok(t, dir, "slowccreport", "-timeline", "journeys.json", "run.json")
	ok(t, dir, "slowccreport", "-timeline", "sweep.json", "-heatmap", "matrix.tsv")
}

// A run that exits nonzero is the one worth profiling: both profiles
// must be complete on disk after a -fail-degraded exit.
func TestProfilesSurviveNonzeroExit(t *testing.T) {
	dir := t.TempDir()
	code, _, stderr := run(t, dir, "slowccsim", "-exp", "fig3", "-deadline", "1ns", "-retries", "0",
		"-fail-degraded", "-cpuprofile", "cpu.out", "-memprofile", "mem.out")
	if code != 1 {
		t.Fatalf("exit %d, want 1 (every cell over its deadline)\n%s", code, stderr)
	}
	if cpu := nonEmpty(t, filepath.Join(dir, "cpu.out")); !bytes.HasPrefix(cpu, []byte{0x1f, 0x8b}) {
		t.Fatalf("cpu.out does not start with a gzip header: % x", cpu[:2])
	}
	nonEmpty(t, filepath.Join(dir, "mem.out"))
}

func TestListAndSelect(t *testing.T) {
	dir := t.TempDir()
	want := "experiments:\n"
	for _, e := range exp.Experiments() {
		want += fmt.Sprintf("  %-18s %s\n", e.Name, e.Desc)
	}
	if got := ok(t, dir, "slowccsim", "-list"); got != want {
		t.Fatalf("-list:\n%s\nwant the roster:\n%s", got, want)
	}
	if out := ok(t, dir, "slowccsim", "-exp", "FIG20"); !strings.Contains(out, "Figure 20") {
		t.Fatalf("-exp FIG20 did not run fig20:\n%s", out)
	}
}

func TestUsageErrorsExitTwo(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		stderr string
		args   []string
	}{
		{"unknown experiment", []string{"-exp", "nosuch"}},
		{"-matrix: ", []string{"-exp", "matrix", "-matrix", "bogus"}},
		{"-topology: ", []string{"-exp", "matrix", "-topology", "ring"}},
		{"-topology: ", []string{"-exp", "matrix", "-topology", "dumbbell:2"}},
		{"-topology: ", []string{"-exp", "matrix", "-topology", "parking-lot:0"}},
	} {
		code, _, stderr := run(t, dir, "slowccsim", tc.args...)
		if code != 2 || !strings.HasPrefix(stderr, tc.stderr) {
			t.Errorf("slowccsim %v: exit %d, stderr %q; want 2 and %q", tc.args, code, stderr, tc.stderr)
		}
	}
}
