package export

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"slowcc/internal/obs"
)

// /progress holds at most maxSubscribers live streams: one more is
// refused with 503, and a closed stream gives its slot back.
func TestProgressStreamsAreCapped(t *testing.T) {
	srv := NewServer(NewProgress(NewCollector()))
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	url := "http://" + addr + "/progress"
	open := func() *http.Response {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	streams := make([]*http.Response, maxSubscribers)
	for i := range streams {
		if streams[i] = open(); streams[i].StatusCode != http.StatusOK {
			t.Fatalf("stream %d: status %d, want 200", i+1, streams[i].StatusCode)
		}
		defer streams[i].Body.Close()
	}
	resp := open()
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stream %d: status %d, want 503", maxSubscribers+1, resp.StatusCode)
	}

	// The server sees the client go asynchronously; its slot frees once
	// the handler returns.
	streams[0].Body.Close()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		resp := open()
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("a stream closed, yet a new one still gets %d after 5s", resp.StatusCode)
		}
	}
}

// Closing the server while /metrics and /healthz scrapes are in flight
// and a /progress stream is live: Close returns within its grace period
// plus a margin, the stream's handler exits and gives its subscription
// back, and every scrape either completes with a valid document or
// fails on the client side — none panics the server.
func TestCloseDuringScrapes(t *testing.T) {
	col := NewCollector()
	col.AddCellStats(obs.CellStats{Counters: map[string]int64{"link.lr.bytes": 1500, "sim.events": 42}, Events: 42})
	p := NewProgress(col)
	srv := NewServer(p)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr
	stream, err := http.Get(base + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		t.Fatalf("/progress: status %d, want 200", stream.StatusCode)
	}

	// Keep the stream busy and the scrapes coming until Close is done.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			p.SweepEvent(obs.SweepEvent{Kind: obs.SweepQueued, Cell: i})
			time.Sleep(time.Millisecond)
		}
	}()
	go io.Copy(io.Discard, stream.Body) //nolint:errcheck // ends when the server goes

	var served atomic.Int64
	// A scrape's client error means the server is going or gone.
	scrape := func(path string) error {
		resp, err := http.Get(base + path)
		if err != nil {
			return nil
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, body)
		}
		if path == "/metrics" {
			if _, _, err := Validate(bytes.NewReader(body)); err != nil {
				return fmt.Errorf("/metrics: %v", err)
			}
		} else if err := json.Unmarshal(body, new(Health)); err != nil {
			return fmt.Errorf("/healthz: %v", err)
		}
		served.Add(1)
		return nil
	}
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		path := []string{"/metrics", "/healthz"}[g%2]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := scrape(path); err != nil {
					errs <- err
					return
				}
			}
		}()
	}

	for deadline := time.Now().Add(5 * time.Second); served.Load() < 8; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d scrapes served before Close", served.Load())
		}
	}
	t0 := time.Now()
	srv.Close()
	if took := time.Since(t0); took > 3500*time.Millisecond {
		t.Errorf("Close took %v with a stream open, want its 2s grace plus a margin", took)
	}
	time.Sleep(20 * time.Millisecond) // let scrapes meet the closed server
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The stream's handler exits once its connection is gone and gives
	// its slot back: the hub takes maxSubscribers new subscribers.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		var cancels []func()
		for i := 0; i < maxSubscribers; i++ {
			if _, _, cancel, ok := p.Subscribe(); ok {
				cancels = append(cancels, cancel)
			}
		}
		for _, cancel := range cancels {
			cancel()
		}
		if len(cancels) == maxSubscribers {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("5s after Close only %d of %d subscriptions are free: the stream kept its slot", len(cancels), maxSubscribers)
		}
	}
}

// Close ends a live /progress stream rather than waiting out its grace
// period for it: it returns within 500 ms, and the stream's subscriber
// slot is free by then.
func TestCloseEndsProgressStreams(t *testing.T) {
	p := NewProgress(NewCollector())
	srv := NewServer(p)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stream, err := http.Get("http://" + addr + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		t.Fatalf("/progress: status %d, want 200", stream.StatusCode)
	}
	subscribers := func() int {
		p.mu.Lock()
		defer p.mu.Unlock()
		return len(p.subs)
	}
	if n := subscribers(); n != 1 {
		t.Fatalf("%d subscribers with one stream open, want 1", n)
	}
	t0 := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(t0); took > 500*time.Millisecond {
		t.Errorf("Close took %v with a stream open, want under 500ms", took)
	}
	if n := subscribers(); n != 0 {
		t.Errorf("%d subscribers after Close, want the stream's slot freed", n)
	}
	if _, err := io.Copy(io.Discard, stream.Body); err != nil {
		t.Logf("stream ended with %v", err)
	}
}
