package export

import (
	"net/http"
	"testing"
	"time"
)

// /progress holds at most maxSubscribers live streams: one more is
// refused with 503, and a closed stream gives its slot back.
func TestProgressStreamsAreCapped(t *testing.T) {
	srv := NewServer(nil, NewProgress(nil))
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
