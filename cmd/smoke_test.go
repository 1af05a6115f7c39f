// Package cmd_test drives the three commands and the examples end to end
// through the real binaries: flag plumbing, exit codes, signals and file
// round trips the unit tests cannot reach. TestMain builds them once.
package cmd_test

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"slowcc/internal/exp"
	"slowcc/internal/obs/export"
)

// bin is the directory holding the built commands.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "slowcc-cmd-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	build := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "./slowccsim", "./slowcctrace", "./slowccreport", "../examples/...")
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

// proc is a command running in the background: start it, wait for a
// line of its stderr, signal it, wait for it to exit.
type proc struct {
	t    *testing.T
	cmd  *exec.Cmd
	kill *time.Timer // bounds a child that never prints or never exits

	mu     sync.Mutex
	more   *sync.Cond // a line arrived, or stderr hit EOF
	stderr []string
	eof    bool
}

func start(t *testing.T, dir, name string, args ...string) *proc {
	t.Helper()
	p := &proc{t: t, cmd: exec.Command(filepath.Join(bin, name), args...)}
	p.more = sync.NewCond(&p.mu)
	p.cmd.Dir = dir
	pipe, err := p.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p.kill = time.AfterFunc(2*time.Minute, func() { p.cmd.Process.Kill() })
	t.Cleanup(func() { p.signal(syscall.SIGKILL) })
	go func() {
		sc := bufio.NewScanner(pipe)
		for more := true; more; {
			more = sc.Scan()
			p.mu.Lock()
			if more {
				p.stderr = append(p.stderr, sc.Text())
			}
			p.eof = !more
			p.more.Broadcast()
			p.mu.Unlock()
		}
	}()
	return p
}

// line blocks until a stderr line matches re and returns re's group (the
// whole match if it has none); the child exiting first, or its two
// minutes running out, fails the test.
func (p *proc) line(re string) string {
	p.t.Helper()
	match := regexp.MustCompile(re)
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := 0; ; i++ {
		for i == len(p.stderr) {
			if p.eof {
				p.t.Fatalf("%v exited without a stderr line matching %q:\n%s", p.cmd.Args, re, strings.Join(p.stderr, "\n"))
			}
			p.more.Wait()
		}
		if m := match.FindStringSubmatch(p.stderr[i]); m != nil {
			return m[len(m)-1]
		}
	}
}

// signal sends sig, waits for the child to exit and returns its exit
// code (-1 when a signal killed it). Calling it again is harmless.
func (p *proc) signal(sig syscall.Signal) int {
	p.cmd.Process.Signal(sig) // an error means it has already exited
	p.mu.Lock()
	for !p.eof {
		p.more.Wait()
	}
	p.mu.Unlock()
	p.cmd.Wait() // the exit status is read below
	p.kill.Stop()
	return p.cmd.ProcessState.ExitCode()
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
		"-out", "trace.tsv", "-probes", "run.probes.tsv", "-manifest", "run.json", "-timeline", "tl.json")
	if report := ok(t, dir, "slowccreport", "-probes", "run.probes.tsv", "run.json"); report == "" {
		t.Fatal("slowccreport printed nothing")
	}
	// Another JSON file is not a manifest: no report, and no Prometheus
	// text for a run that never happened.
	for _, args := range [][]string{{"tl.json"}, {"-prom", "tl.json"}} {
		if code, stdout, stderr := run(t, dir, "slowccreport", args...); code != 1 || stdout != "" || !strings.Contains(stderr, "schema") {
			t.Fatalf("slowccreport %v: exit %d, stdout %q, stderr %q; want 1, nothing, a schema error", args, code, stdout, stderr)
		}
	}
	// A probe file without its header, even an empty one, is an error,
	// not a report with the probe section left out.
	if err := os.WriteFile(filepath.Join(dir, "empty.tsv"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, stderr := run(t, dir, "slowccreport", "-probes", "empty.tsv", "run.json"); code != 1 || !strings.Contains(stderr, "empty probe TSV") {
		t.Fatalf("slowccreport -probes empty.tsv: exit %d, stderr %q; want 1 and an empty-TSV error", code, stderr)
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

	snapPath, journalPath := filepath.Join(dir, "d", "snapshot.bin"), filepath.Join(dir, "d", "journal.bin")
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
			t.Fatalf("a fully warm resume rewrote snapshot.bin (mtime %v -> %v)", beforeInfo.ModTime(), info.ModTime())
		}
		before, beforeInfo = snap, info
		if j, err := os.Stat(journalPath); err != nil || j.Size() != 0 {
			t.Fatalf("journal.bin after %s: %v, %v; want it empty", tsv, j, err)
		}
	}
}

// A run an engine budget cut short has not measured its cells: they are
// degraded, not results — exit 1 under -fail-degraded, every row keeps
// its labels and says degraded true — and the store keeps them as
// degraded markers. Matrix keys do not include the budget, so the
// budget-free resume over that store must serve none of them and end
// byte-identical to a cold run.
func TestHaltedThenResumedSmoke(t *testing.T) {
	dir := t.TempDir()
	matrix := []string{"-exp", "matrix", "-matrix", "tcp:0.5,cbr:1e6", "-topology", "dumbbell", "-fail-degraded"}
	ok(t, dir, "slowccsim", append(matrix, "-tsv", "cold.tsv")...)
	cold := nonEmpty(t, filepath.Join(dir, "cold.tsv"))

	code, _, stderr := run(t, dir, "slowccsim", append(matrix, "-max-events", "20000", "-store", "d", "-tsv", "halted.tsv")...)
	if code != 1 || !strings.Contains(stderr, "12 sweep cell(s) degraded") ||
		!strings.Contains(stderr, "halted by its run budget (halt: max-events after 20000 events") {
		t.Fatalf("budget-halted matrix: exit %d, want 1 naming its 12 halted cells\n%s", code, stderr)
	}
	cells, err := exp.ParseMatrixTSV(bytes.NewReader(nonEmpty(t, filepath.Join(dir, "halted.tsv"))))
	if err != nil || len(cells) != 12 {
		t.Fatalf("halted TSV: %d rows, %v; want 12", len(cells), err)
	}
	for _, c := range cells {
		if !c.Degraded || c.Topology == "" || c.Condition == "" || c.A == "" || c.B == "" {
			t.Fatalf("halted row %+v, want its labels and degraded true", c)
		}
	}

	code, _, stderr = run(t, dir, "slowccsim", append(matrix, "-store", "d", "-resume", "-tsv", "resumed.tsv")...)
	if code != 0 || !strings.Contains(stderr, "store d: 12 entries, 0 hits, 12 misses, 0 corrupt") {
		t.Fatalf("budget-free resume: exit %d, want 0 serving no halted cell\n%s", code, stderr)
	}
	if resumed := nonEmpty(t, filepath.Join(dir, "resumed.tsv")); !bytes.Equal(resumed, cold) {
		t.Fatalf("resumed TSV differs from the cold run's:\n%s\nvs\n%s", resumed, cold)
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

	// A number no sweep writes is a parse error with its place in the
	// file, not a panic in the renderer.
	header, _, _ := bytes.Cut(nonEmpty(t, filepath.Join(dir, "matrix.tsv")), []byte("\n"))
	nan := string(header) + "\nd\ts\tA\tB\tNaN\tNaN\tNaN\tNaN\tNaN\tNaN\tNaN\tfalse\n"
	if err := os.WriteFile(filepath.Join(dir, "nan.tsv"), []byte(nan), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := run(t, dir, "slowccreport", "-heatmap", "nan.tsv")
	if code != 1 || !strings.Contains(stderr, "line 2 col 5") || strings.Contains(stderr, "panic") {
		t.Fatalf("slowccreport -heatmap on a NaN TSV: exit %d, stderr %q; want 1 and a line 2 col 5 parse error", code, stderr)
	}
}

// A run whose cells miss their deadline exits 1 under -fail-degraded and
// names the degraded cells — fig17's, whose scenarios once ran outside
// any sweep, too. Such a run is the one worth profiling: both profiles
// must be complete on disk after the exit.
func TestProfilesSurviveNonzeroExit(t *testing.T) {
	for _, name := range []string{"fig3", "fig17"} {
		dir := t.TempDir()
		code, _, stderr := run(t, dir, "slowccsim", "-exp", name, "-deadline", "1ns",
			"-fail-degraded", "-cpuprofile", "cpu.out", "-memprofile", "mem.out")
		if code != 1 || !strings.Contains(stderr, "exp: sweep cell ") {
			t.Fatalf("-exp %s: exit %d, want 1 naming the cells over their deadline\n%s", name, code, stderr)
		}
		if cpu := nonEmpty(t, filepath.Join(dir, "cpu.out")); !bytes.HasPrefix(cpu, []byte{0x1f, 0x8b}) {
			t.Fatalf("-exp %s: cpu.out does not start with a gzip header: % x", name, cpu[:2])
		}
		nonEmpty(t, filepath.Join(dir, "mem.out"))
	}
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

// A usage error exits 2 with its message and has no side effects: the
// -store directory every bad slowccsim invocation names must not exist
// afterwards, nor any output file a flag that cannot take effect named.
func TestUsageErrorsExitTwo(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		says string // what the output starts with: stderr, or the listing on stdout
		args []string
	}{
		{"unknown experiment", []string{"slowccsim", "-exp", "nosuch"}},
		{"flag provided but not defined: -retries", []string{"slowccsim", "-exp", "fig3", "-retries", "0"}},
		{"-matrix: ", []string{"slowccsim", "-exp", "matrix", "-matrix", "bogus"}},
		{"-topology: ", []string{"slowccsim", "-exp", "matrix", "-topology", "ring"}},
		{"-topology: ", []string{"slowccsim", "-exp", "matrix", "-topology", "dumbbell:2"}},
		{"-topology: ", []string{"slowccsim", "-exp", "matrix", "-topology", "parking-lot:0"}},
		{"-topology: ", []string{"slowccsim", "-exp", "matrix", "-matrix", "cbr:1e6", "-topology", "parking-lot:101"}},
		{"-topology: ", []string{"slowccsim", "-exp", "matrix", "-topology", "parking-lot:100000000"}},
		{"-fault: ", []string{"slowccsim", "-exp", "fig3", "-fault", "bogus"}},
		{"-slog: ", []string{"slowccsim", "-exp", "fig3", "-slog", "loud"}},
		{"-max-events: ", []string{"slowccsim", "-exp", "fig3", "-max-events", "-5"}},
		{"-deadline: ", []string{"slowccsim", "-exp", "fig3", "-deadline", "-1s"}},
		{"-tsv: ", []string{"slowccsim", "-exp", "fig20", "-tsv", "x.tsv"}},
		{"experiments:", []string{"slowccsim"}},
		{"-probes requires -probe", []string{"slowcctrace", "-dur", "1", "-probes", "x.tsv"}},
		{"-rate: ", []string{"slowcctrace", "-rate", "-1"}},
		{"-rate: ", []string{"slowcctrace", "-rate", "Inf"}},
		{"-dur: ", []string{"slowcctrace", "-dur", "-3"}},
		{"-dur: ", []string{"slowcctrace", "-dur", "NaN"}},
		{"-heatmap-svg requires -heatmap", []string{"slowccreport", "-heatmap-svg", "x.svg"}},
		{"-heatmap-metric requires -heatmap", []string{"slowccreport", "-heatmap-metric", "jain"}},
	} {
		args := tc.args[1:]
		if tc.args[0] == "slowccsim" {
			args = append(args, "-store", "d")
		}
		code, stdout, stderr := run(t, dir, tc.args[0], args...)
		if code != 2 || !strings.HasPrefix(stderr+stdout, tc.says) {
			t.Errorf("%v: exit %d, stderr %q; want 2 and %q", tc.args, code, stderr, tc.says)
		}
		if _, err := os.Stat(filepath.Join(dir, "d")); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%v left its -store directory behind (%v)", tc.args, err)
			os.RemoveAll(filepath.Join(dir, "d"))
		}
	}
	code, _, stderr := run(t, dir, "slowccsim", "-exp", "matrix", "-resume")
	if code != 2 || !strings.HasPrefix(stderr, "-resume requires -store") {
		t.Errorf("slowccsim -resume without -store: exit %d, stderr %q", code, stderr)
	}
	for _, name := range []string{"x.tsv", "x.svg"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("a usage error wrote %s (%v)", name, err)
		}
	}
}

// The live-telemetry stack through the real binary: slowccsim -serve
// runs fig3 with the export server on an ephemeral port and a result
// store attached; once the run is complete /healthz says so, /metrics
// carries the sweep, digest and store families, the SSE feed replays a
// sweep event, SIGTERM exits cleanly, and the scraped exposition passes
// the strict validator — a /metrics stream a Prometheus scraper would
// reject fails here.
func TestExportSmoke(t *testing.T) {
	dir := t.TempDir()
	p := start(t, dir, "slowccsim", "-exp", "fig3", "-serve", "127.0.0.1:0", "-slog", "warn", "-store", "store")
	base := "http://" + p.line(`^serving telemetry on http://([^/]+)/`)
	client := &http.Client{Timeout: 30 * time.Second}
	get := func(path string) []byte {
		t.Helper()
		resp, err := client.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s, %v", path, resp.Status, err)
		}
		return body
	}
	get("/healthz") // answers while the sweep runs
	p.line(`^run complete`)
	if health := get("/healthz"); !bytes.Contains(health, []byte(`"run_done": true`)) {
		t.Errorf("/healthz after the run: %s", health)
	}
	metrics := get("/metrics")
	for _, family := range []string{"slowcc_sweep_cells_done_total", "slowcc_stream_digest_info",
		"slowcc_store_hits", "slowcc_store_misses", "slowcc_store_corrupt"} {
		if !bytes.Contains(metrics, []byte("\n"+family)) {
			t.Errorf("/metrics has no %s sample", family)
		}
	}
	if sse := get("/progress?replay=close"); !bytes.Contains(sse, []byte("event: sweep\n")) {
		t.Errorf("/progress replayed no sweep event:\n%s", sse)
	}
	if code := p.signal(syscall.SIGTERM); code != 0 {
		t.Errorf("SIGTERM after the run: exit %d, want 0", code)
	}
	if _, _, err := export.Validate(bytes.NewReader(metrics)); err != nil {
		t.Errorf("scraped /metrics: %v", err)
	}
}

// The crash-safety gate: a matrix sweep is SIGKILLed (no handler, no
// checkpoint — the per-entry fsync is all that survives) up to three
// times, each time once the journal has grown past its size at the
// previous kill, and resumed after each kill. The last resume must serve
// cells from the store with no corrupt entry — a torn tail may be
// quarantined — and its TSV must be byte-identical to an uninterrupted
// run's: replayed cells are indistinguishable from computed ones.
func TestKillAndResumeSmoke(t *testing.T) {
	dir := t.TempDir()
	matrix := []string{"-exp", "matrix", "-matrix", "tcp:0.5,tfrc:8,cbr:3e6", "-store", "store"}
	ok(t, dir, "slowccsim", "-exp", "matrix", "-matrix", "tcp:0.5,tfrc:8,cbr:3e6", "-tsv", "full.tsv")

	journal := filepath.Join(dir, "store", "journal.bin")
	size := func() int64 {
		info, err := os.Stat(journal)
		if err != nil {
			return 0
		}
		return info.Size()
	}
	args := append(matrix, "-tsv", "killed.tsv")
	for kill, last := 1, int64(0); kill <= 3; kill++ {
		p := start(t, dir, "slowccsim", args...)
		exited := false
		for deadline := time.Now().Add(time.Minute); size() <= last && !exited; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("kill %d: the journal did not grow past %d bytes within a minute", kill, last)
			}
			p.mu.Lock()
			exited = p.eof
			p.mu.Unlock()
		}
		p.signal(syscall.SIGKILL)
		if exited {
			if kill == 1 {
				t.Fatal("the sweep finished before its first cell reached the journal")
			}
			break // the sweep finished first: nothing left to kill
		}
		last = size()
		t.Logf("kill %d: journal at %d bytes", kill, last)
		args = append(matrix, "-resume", "-tsv", "killed.tsv")
	}

	code, _, stderr := run(t, dir, "slowccsim", append(matrix, "-resume", "-tsv", "resumed.tsv")...)
	if code != 0 || !regexp.MustCompile(`(?m)^store .*: [0-9]+ entries, [1-9][0-9]* hits, [0-9]+ misses, 0 corrupt$`).MatchString(stderr) {
		t.Fatalf("resume: exit %d, served no cell from the store, or found a corrupt one:\n%s", code, stderr)
	}
	if !bytes.Equal(nonEmpty(t, filepath.Join(dir, "resumed.tsv")), nonEmpty(t, filepath.Join(dir, "full.tsv"))) {
		t.Fatal("resumed.tsv differs from the uninterrupted run's full.tsv")
	}
}

// The root package exports what the examples use (TestRootSurfaceHasUsers);
// here the examples run.
func TestExamplesRun(t *testing.T) {
	examples, err := os.ReadDir(filepath.Join("..", "examples"))
	if err != nil || len(examples) == 0 {
		t.Fatalf("../examples: %d entries, %v", len(examples), err)
	}
	t.Setenv("TMPDIR", t.TempDir()) // examples/tracing writes its TSV to a temp file
	for _, e := range examples {
		if out := ok(t, t.TempDir(), e.Name()); out == "" {
			t.Errorf("examples/%s printed nothing", e.Name())
		}
	}
}
