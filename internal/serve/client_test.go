package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestResultWaitOutlivesTheClientBound: the client bounds each request, not
// the wait. A job that takes longer than three of those bounds is still
// fetched — every poll the client itself cut short is simply asked again —
// and the bytes are the daemon's. (The bound used to be the http.Client's
// Timeout, so -wait failed a sweep that was still running.)
func TestResultWaitOutlivesTheClientBound(t *testing.T) {
	defer func(d time.Duration) { requestBound = d }(requestBound)
	requestBound = 50 * time.Millisecond

	want := []byte(`{"id":"slow-job","rows":[]}` + "\n")
	finished := make(chan struct{})
	var polls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/sweeps/slow-job/result" || r.URL.Query().Get("wait") != "1" {
			t.Errorf("unexpected request %s", r.URL)
		}
		polls.Add(1)
		select {
		case <-finished:
			w.Write(want)
		case <-r.Context().Done():
		}
	}))
	defer ts.Close()
	time.AfterFunc(7*requestBound/2, func() { close(finished) })

	got, err := NewClient(strings.TrimPrefix(ts.URL, "http://")).Result("slow-job", true)
	if err != nil {
		t.Fatalf("Result(wait) across %d polls: %v", polls.Load(), err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("result %q, want %q", got, want)
	}
	if n := polls.Load(); n < 4 {
		t.Errorf("%d poll(s): the job outlived three client bounds, so at least four", n)
	}
}

// TestResultAnswersEndTheWait: what the daemon says is final — a failed
// sweep's 500 is not polled again, and without wait neither is a 202.
func TestResultAnswersEndTheWait(t *testing.T) {
	var polls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		polls.Add(1)
		if strings.Contains(r.URL.Path, "failed-job") {
			w.WriteHeader(http.StatusInternalServerError)
			w.Write([]byte(`{"error":"sweep failed: boom"}` + "\n"))
			return
		}
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"id":"queued-job","state":"queued"}` + "\n"))
	}))
	defer ts.Close()
	c := NewClient(strings.TrimPrefix(ts.URL, "http://"))

	if _, err := c.Result("failed-job", true); err == nil || !strings.Contains(err.Error(), "sweep failed: boom") {
		t.Errorf("failed job: %v, want the daemon's message", err)
	}
	if b, err := c.Result("queued-job", false); err == nil || b != nil || !strings.Contains(err.Error(), "not finished (use -wait)") {
		t.Errorf("unfinished job without wait: %q, %v", b, err)
	}
	if n := polls.Load(); n != 2 {
		t.Errorf("%d requests, want one per call", n)
	}
}
