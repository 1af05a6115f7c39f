package export_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"slowcc/internal/exp"
	"slowcc/internal/obs"
	"slowcc/internal/obs/export"
)

var update = flag.Bool("update", false, "rewrite golden files")

// shortTraceRun is the real run behind the golden:
// deterministic seed, journeys and the stream digest on.
func shortTraceRun() *exp.TraceRun {
	r := exp.NewTraceRun(exp.TraceRunConfig{
		Seed:          1,
		Duration:      5,
		ProbeInterval: 0.5,
		Journeys:      true,
		Digest:        true,
		Algos:         []exp.AlgoSpec{exp.TCPAlgo(0.5)},
	})
	r.Run()
	return r
}

// What /metrics serves for a sweep — a Collector holding a real short
// run's counters and digest the way a sweep cell's are merged, then a
// Progress hub that has seen a few cells finish — must be byte-stable
// (the golden) and valid under the strict parser, cumulative histogram
// included.
func TestWritePrometheusGoldenFromRealRun(t *testing.T) {
	r := shortTraceRun()
	col := export.NewCollector()
	hub := export.NewProgress(col)
	counters := map[string]int64{}
	r.D.Counters(counters)
	hub.CellStats(obs.CellStats{
		Counters:     counters,
		Events:       r.Eng.Steps(),
		Digest:       r.Digest.Sum(),
		DigestEvents: r.Digest.Events(),
	})
	for cell, durMS := range []float64{3, 40, 250} {
		hub.SweepEvent(obs.SweepEvent{Kind: obs.SweepQueued, Cell: cell})
		hub.SweepEvent(obs.SweepEvent{Kind: obs.SweepRunning, Cell: cell})
		hub.SweepEvent(obs.SweepEvent{Kind: obs.SweepDone, Cell: cell, Outcome: "ok", DurMS: durMS})
	}
	var buf bytes.Buffer
	if err := col.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if err := hub.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "trace.prom")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition differs from golden %s (re-run with -update if intended).\ngot:\n%s", golden, buf.String())
	}
	fams, samples, err := export.Validate(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("strict parse of own output: %v", err)
	}
	if fams == 0 || samples == 0 {
		t.Fatalf("empty exposition: %d families, %d samples", fams, samples)
	}
	parsed, err := export.ParseText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"slowcc_engine_fired",           // registry counter
		"slowcc_link_lr_departures",     // bottleneck counter
		"slowcc_sweep_cell_duration_ms", // the hub's histogram
	} {
		if parsed[name] == nil {
			t.Errorf("family %s missing from exposition", name)
		}
	}
	if got := parsed["slowcc_sweep_cell_duration_ms"]; got != nil && got.Type != "histogram" {
		t.Errorf("cell duration family type %q, want histogram", got.Type)
	}
}

func TestStrictParserRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"orphan sample":    "foo 1\n",
		"bad name":         "# TYPE 1bad counter\n1bad 1\n",
		"bad type":         "# TYPE foo widget\nfoo 1\n",
		"duplicate type":   "# TYPE foo counter\n# TYPE foo counter\nfoo 1\n",
		"duplicate series": "# TYPE foo counter\nfoo 1\nfoo 2\n",
		"bad value":        "# TYPE foo counter\nfoo one\n",
		"unclosed labels":  "# TYPE foo counter\nfoo{a=\"b\" 1\n",
		"missing +Inf":     "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"inf != count":     "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 1\n",
		"not cumulative":   "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		"gauge bucket":     "# TYPE g gauge\ng_bucket{le=\"1\"} 1\n",
	}
	for name, doc := range cases {
		if _, err := export.ParseText(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: parsed without error:\n%s", name, doc)
		}
	}
	ok := "# TYPE foo counter\nfoo 1\n# TYPE g gauge\ng{x=\"y\"} 2.5\n" +
		"# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 3\nh_sum 4.5\nh_count 3\n"
	if _, err := export.ParseText(strings.NewReader(ok)); err != nil {
		t.Fatalf("valid document rejected: %v", err)
	}
}

// An info metric's label value comes back from the strict parser as it
// went in, whatever escapes it needs: a quote, a backslash, a newline.
func TestInfoLabelRoundTrips(t *testing.T) {
	const digest = "a\"b\\c\nd"
	hub := export.NewProgress(export.NewCollector())
	hub.SetRun(digest)
	var buf bytes.Buffer
	if err := hub.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := export.ParseText(&buf)
	if err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	info := fams["slowcc_run_info"]
	if info == nil || len(info.Samples) != 1 || info.Samples[0].Labels["digest"] != digest {
		t.Fatalf("run_info %+v, want one sample labelled digest=%q", info, digest)
	}
}

func TestPromNameProjection(t *testing.T) {
	cases := map[string]string{
		"engine.scheduled":                  "slowcc_engine_scheduled",
		"journey.access-1-lr-in.drop_burst": "slowcc_journey_access_1_lr_in_drop_burst",
		"slowcc_already_prefixed":           "slowcc_already_prefixed",
		"weird name":                        "slowcc_weird_name",
	}
	for in, want := range cases {
		if got := export.PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}

// Collector merging: counters sum, digests XOR, and the rendered
// document stays strictly valid.
func TestCollectorMerge(t *testing.T) {
	col := export.NewCollector()
	col.AddCellStats(obs.CellStats{
		Counters: map[string]int64{"engine.fired": 10},
		Digest:   0xaaaa, DigestEvents: 10, Events: 10,
	})
	col.AddCellStats(obs.CellStats{
		Counters: map[string]int64{"engine.fired": 5},
		Digest:   0x5555, DigestEvents: 5, Events: 5,
	})
	var buf bytes.Buffer
	if err := col.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := export.ParseText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("collector exposition invalid: %v\n%s", err, buf.String())
	}
	fired := fams["slowcc_engine_fired"]
	if fired == nil || fired.Samples[0].Value != 15 {
		t.Fatalf("merged counter wrong: %+v", fired)
	}
	info := fams["slowcc_stream_digest_info"]
	if info == nil || info.Samples[0].Labels["digest"] != fmt.Sprintf("%016x", uint64(0xffff)) {
		t.Fatalf("digest info metric wrong: %+v", info)
	}
	if digested := fams["slowcc_stream_digest_events_total"]; digested == nil || digested.Samples[0].Value != 15 {
		t.Fatalf("digested events wrong: %+v", digested)
	}
}

// Counter funcs are sampled at scrape time under canonical names, so
// externally-owned state (the result store's hit/miss/corrupt counts)
// shows up in the same document as merged cell counters.
func TestCollectorCounterFuncs(t *testing.T) {
	col := export.NewCollector()
	hits := int64(0)
	col.SetCounterFunc("store.hits", func() int64 { return hits })
	col.SetCounterFunc("store.misses", func() int64 { return 2 })
	col.SetCounterFunc("store.corrupt", func() int64 { return 0 })

	scrape := func() map[string]*export.MetricFamily {
		t.Helper()
		var buf bytes.Buffer
		if err := col.WriteMetrics(&buf); err != nil {
			t.Fatal(err)
		}
		fams, err := export.ParseText(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("exposition with counter funcs invalid: %v\n%s", err, buf.String())
		}
		return fams
	}
	fams := scrape()
	for name, want := range map[string]float64{
		"slowcc_store_hits":    0,
		"slowcc_store_misses":  2,
		"slowcc_store_corrupt": 0,
	} {
		fam := fams[name]
		if fam == nil || fam.Type != "counter" || fam.Samples[0].Value != want {
			t.Errorf("%s = %+v, want counter %v", name, fam, want)
		}
	}
	// The func is sampled per scrape, not captured once.
	hits = 7
	if fams = scrape(); fams["slowcc_store_hits"].Samples[0].Value != 7 {
		t.Errorf("second scrape did not re-sample: %+v", fams["slowcc_store_hits"])
	}
}

// Cached cells (served from the result store) count separately from
// done ones and never touch the running gauge.
func TestProgressCachedLifecycle(t *testing.T) {
	hub := export.NewProgress(export.NewCollector())
	for _, ev := range []obs.SweepEvent{
		{Kind: obs.SweepQueued, Cell: 0, AtMS: 1},
		{Kind: obs.SweepCached, Cell: 0, Outcome: "cached", AtMS: 1},
		{Kind: obs.SweepQueued, Cell: 1, AtMS: 2},
		{Kind: obs.SweepRunning, Cell: 1, AtMS: 2},
		{Kind: obs.SweepDone, Cell: 1, Outcome: "ok", AtMS: 5, DurMS: 3},
	} {
		hub.SweepEvent(ev)
	}
	counts := hub.Counts()
	if counts.Cached != 1 || counts.Done != 1 || counts.Running != 0 {
		t.Fatalf("counts = %+v, want 1 cached, 1 done, 0 running", counts)
	}
	var buf bytes.Buffer
	if err := hub.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := export.ParseText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("progress exposition invalid: %v\n%s", err, buf.String())
	}
	cached := fams["slowcc_sweep_cells_cached_total"]
	if cached == nil || cached.Type != "counter" || cached.Samples[0].Value != 1 {
		t.Fatalf("slowcc_sweep_cells_cached_total = %+v, want counter 1", cached)
	}
	if fams["slowcc_sweep_cells_running"].Samples[0].Value != 0 {
		t.Fatal("cached lifecycle perturbed the running gauge")
	}
}

// sseEvents GETs /progress and decodes the SSE stream into events.
func sseEvents(t *testing.T, url string) []obs.SweepEvent {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var out []obs.SweepEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var ev obs.SweepEvent
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				t.Fatalf("bad SSE data %q: %v", data, err)
			}
			out = append(out, ev)
		}
	}
	return out
}

// The server must replay buffered progress events over SSE in order,
// serve valid /metrics, and flip /healthz to 503 once a cell degrades.
func TestServerProgressSSEAndHealth(t *testing.T) {
	col := export.NewCollector()
	hub := export.NewProgress(col)
	hub.SetRun("cafebabe")
	srv := export.NewServer(hub)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + addr

	// A two-cell sweep: cell 0 succeeds, cell 1 is halted by its run
	// budget, which degrades it.
	seq := []obs.SweepEvent{
		{Kind: obs.SweepQueued, Cell: 0, Worker: 0, AtMS: 1},
		{Kind: obs.SweepRunning, Cell: 0, Worker: 0, AtMS: 2},
		{Kind: obs.SweepQueued, Cell: 1, Worker: 1, AtMS: 2},
		{Kind: obs.SweepRunning, Cell: 1, Worker: 1, AtMS: 3},
		{Kind: obs.SweepDone, Cell: 0, Worker: 0, Outcome: "ok", AtMS: 9, DurMS: 7},
	}
	for _, ev := range seq {
		hub.SweepEvent(ev)
	}

	// Health is ok while no cell has degraded.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h export.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz = %d %q, want 200 ok", resp.StatusCode, h.Status)
	}
	if h.Sweep.Done != 1 || h.Sweep.Run != "cafebabe" {
		t.Fatalf("healthz sweep state wrong: %+v", h.Sweep)
	}

	hub.SweepEvent(obs.SweepEvent{Kind: obs.SweepDegraded, Cell: 1, Worker: 1, Outcome: "halt",
		Halt: "max-events after 50 events, t=0.05, 1ms wall", AtMS: 11, DurMS: 8})

	got := sseEvents(t, base+"/progress?replay=close")
	if len(got) != len(seq)+1 {
		t.Fatalf("replayed %d events, want %d", len(got), len(seq)+1)
	}
	for i, ev := range seq {
		if got[i] != ev {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], ev)
		}
	}
	if last := got[len(got)-1]; last.Kind != obs.SweepDegraded || last.Outcome != "halt" || last.Halt == "" {
		t.Fatalf("terminal event %+v, want degraded/halt naming the halt", last)
	}

	// Degraded — a budget halt included — flips health to 503.
	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || h.Status != "degraded" {
		t.Fatalf("healthz after degraded = %d %q, want 503 degraded", resp.StatusCode, h.Status)
	}

	// /metrics must be strictly valid and carry the sweep counters.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	fams, err := export.ParseText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("/metrics invalid: %v\n%s", err, buf.String())
	}
	checks := map[string]float64{
		"slowcc_sweep_cells_queued_total":   2,
		"slowcc_sweep_cells_done_total":     1,
		"slowcc_sweep_cells_degraded_total": 1,
		"slowcc_sweep_cells_running":        0,
	}
	for name, want := range checks {
		fam := fams[name]
		if fam == nil || len(fam.Samples) != 1 || fam.Samples[0].Value != want {
			t.Errorf("%s = %+v, want single sample %v", name, fam, want)
		}
	}
}

// A live subscriber must receive events published after it connected.
func TestServerProgressSSELive(t *testing.T) {
	hub := export.NewProgress(export.NewCollector())
	srv := export.NewServer(hub)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + addr + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	go func() {
		time.Sleep(50 * time.Millisecond)
		hub.SweepEvent(obs.SweepEvent{Kind: obs.SweepQueued, Cell: 7, AtMS: 1})
	}()
	sc := bufio.NewScanner(resp.Body)
	deadline := time.After(5 * time.Second)
	done := make(chan obs.SweepEvent, 1)
	go func() {
		for sc.Scan() {
			if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
				var ev obs.SweepEvent
				if json.Unmarshal([]byte(data), &ev) == nil {
					done <- ev
					return
				}
			}
		}
	}()
	select {
	case ev := <-done:
		if ev.Kind != obs.SweepQueued || ev.Cell != 7 {
			t.Fatalf("live event %+v", ev)
		}
	case <-deadline:
		t.Fatal("no live SSE event within 5s")
	}
}

// Scrape-while-sweeping: hammer /metrics and /healthz while sweep
// events and cell stats pour in. Run under -race in ci; correctness
// here is "no race, no parse error".
func TestConcurrentScrapeWhileSweeping(t *testing.T) {
	col := export.NewCollector()
	hub := export.NewProgress(col)
	srv := export.NewServer(hub)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + addr

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				cell := w*1000 + i
				hub.SweepEvent(obs.SweepEvent{Kind: obs.SweepQueued, Cell: cell})
				hub.SweepEvent(obs.SweepEvent{Kind: obs.SweepRunning, Cell: cell})
				hub.CellStats(obs.CellStats{
					Counters: map[string]int64{"engine.fired": 1},
					Digest:   uint64(cell), DigestEvents: 1, Events: 1,
				})
				hub.SweepEvent(obs.SweepEvent{Kind: obs.SweepDone, Cell: cell, Outcome: "ok", DurMS: 1})
			}
		}(w)
	}
	for i := 0; i < 20; i++ {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if _, parseErr := export.ParseText(bytes.NewReader(buf.Bytes())); parseErr != nil {
			t.Fatalf("scrape %d invalid: %v", i, parseErr)
		}
		if resp, err = http.Get(base + "/healthz"); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	close(stop)
	wg.Wait()
}

// An oversized header block is refused before any handler runs: a
// client cannot make the server buffer an unbounded request head.
func TestServerRefusesOversizedHeaders(t *testing.T) {
	srv := export.NewServer(export.NewProgress(export.NewCollector()))
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	req, err := http.NewRequest(http.MethodGet, "http://"+addr+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Padding", strings.Repeat("a", 64<<10))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestHeaderFieldsTooLarge {
		t.Fatalf("64 KiB header: status %d, want 431", resp.StatusCode)
	}
}
