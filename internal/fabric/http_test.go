package fabric

// White-box tests of the coordinator's HTTP surface: what it writes, when,
// and what it makes of bytes it did not write itself.

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/boom"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/wire"
	"repro/internal/workloads"
)

// TestEncodeErrorsCountedAndLoggedOnce: the response-encode failure
// accounting. A value the JSON encoder rejects must increment
// fabric.http_encode_errors on every occurrence but log only once (the
// counter carries the rate, the first log line the cause). Before the fix
// these failures were discarded (`_ = json.NewEncoder(w).Encode(v)`),
// leaving a half-written coordinator response indistinguishable from a
// healthy one. Every answer the coordinator gives goes through reply, so
// that is what is driven.
func TestEncodeErrorsCountedAndLoggedOnce(t *testing.T) {
	reg := metrics.NewRegistry()
	var logged atomic.Int32
	c := NewCoordinator(Config{
		Registry: reg,
		Log: func(format string, args ...interface{}) {
			if strings.Contains(format, "encode") {
				logged.Add(1)
			}
		},
	})

	ctr := reg.Counter("fabric.http_encode_errors")
	for i := 1; i <= 3; i++ {
		c.reply(httptest.NewRecorder(), math.NaN(), nil) // json: unsupported value
		if got := ctr.Value(); got != int64(i) {
			t.Fatalf("after %d failures counter = %d", i, got)
		}
	}
	c.reply(failingWriter{httptest.NewRecorder()}, nil, &wire.Error{Status: 500, Msg: "boom"})
	if got := ctr.Value(); got != 4 {
		t.Fatalf("error-reply encode failure not counted: %d", got)
	}
	if got := logged.Load(); got != 1 {
		t.Fatalf("encode failure logged %d times, want exactly once", got)
	}

	// A healthy encode must not count.
	c.reply(httptest.NewRecorder(), map[string]string{"ok": "yes"}, nil)
	if got := ctr.Value(); got != 4 {
		t.Fatalf("successful encode bumped the counter: %d", got)
	}
}

// failingWriter simulates the peer hanging up mid-write: every body write
// fails, which is the realistic shape of an encode error (as opposed to
// the unencodable-value shape above).
type failingWriter struct{ *httptest.ResponseRecorder }

func (failingWriter) Write([]byte) (int, error) {
	return 0, errBrokenPipe
}

var errBrokenPipe = &brokenPipeError{}

type brokenPipeError struct{}

func (*brokenPipeError) Error() string { return "write: broken pipe" }

const wireTestCampaign = "wire-test-campaign"

// admitted returns a coordinator holding one admitted campaign — two
// workloads on one design point: two profile cells and two measure cells.
func admitted(t testing.TB) (*Coordinator, *run) {
	t.Helper()
	c := NewCoordinator(Config{})
	r, err := c.admit(wireTestCampaign, core.NewCampaign([]string{"sha", "qsort"}, []boom.Config{boom.MediumBOOM()}, workloads.ScaleTiny))
	if err != nil {
		t.Fatal(err)
	}
	return c, r
}

func postTo(c *Coordinator, w http.ResponseWriter, route, body string) {
	c.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/fabric/"+route, strings.NewReader(body)))
}

// stalledWriter is a peer that stops reading: the first body write blocks
// until release closes, having announced itself on writing.
type stalledWriter struct {
	*httptest.ResponseRecorder
	writing chan struct{}
	release chan struct{}
}

func (s *stalledWriter) Write(b []byte) (int, error) {
	close(s.writing)
	<-s.release
	return s.ResponseRecorder.Write(b)
}

// TestNoWriteUnderCoordinatorLock: handlers return values and the adapter
// writes them after the handler — and its c.mu critical section — has
// returned, so a heartbeat or a done report whose peer stalls mid-response
// cannot hold up anyone else's poll. (Both handlers used to write under a
// deferred Unlock: one stalled worker froze the scheduler.)
func TestNoWriteUnderCoordinatorLock(t *testing.T) {
	c, r := admitted(t)
	defer c.retire(r)
	rec := httptest.NewRecorder()
	postTo(c, rec, "poll", `{"worker":"w1"}`)
	var granted pollResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &granted); err != nil || granted.Task == nil {
		t.Fatalf("poll granted nothing: %s (%v)", rec.Body, err)
	}
	task, _ := json.Marshal(granted.Task)

	for _, tc := range []struct{ route, body string }{
		{"heartbeat", `{"worker":"w1","task":` + string(task) + `}`},
		{"done", `{"worker":"w1","task":` + string(task) + `,"ok":true}`},
	} {
		stalled := &stalledWriter{httptest.NewRecorder(), make(chan struct{}), make(chan struct{})}
		answered := make(chan struct{})
		go func() {
			defer close(answered)
			postTo(c, stalled, tc.route, tc.body)
		}()
		<-stalled.writing

		polled := make(chan *httptest.ResponseRecorder, 1)
		go func() {
			rec := httptest.NewRecorder()
			postTo(c, rec, "poll", `{"worker":"w2"}`)
			polled <- rec
		}()
		select {
		case rec := <-polled:
			if rec.Code != http.StatusOK {
				t.Errorf("poll during a stalled %s reply: %d %s", tc.route, rec.Code, rec.Body)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("a %s reply stalled on its peer is holding Coordinator.mu: a concurrent poll got no answer in 5s", tc.route)
		}
		close(stalled.release)
		<-answered
		if stalled.Code != http.StatusOK {
			t.Errorf("%s: %d %s", tc.route, stalled.Code, stalled.Body)
		}
	}
}

// FuzzFabricBodies sends arbitrary bytes to each of the four worker-facing
// routes of a coordinator holding one admitted campaign. Nothing a peer can
// send may panic the coordinator or make it answer 5xx, enter a worker row
// without an id (one would count as live and keep RunCampaign from falling
// back when the real workers are gone), or break the run's accounting:
// remaining is always the number of cells not yet terminal.
func FuzzFabricBodies(f *testing.F) {
	cell := func(kind, config string) string {
		return `{"campaign":"` + wireTestCampaign + `","kind":"` + kind + `","workload":"sha","config":"` + config + `","seq":1}`
	}
	for _, seed := range []string{
		`{"worker":"w1"}`,
		`{"worker":""}`,
		`{}`,
		`{"task":` + cell("profile", "") + `}`,
		`{"task":` + cell("profile", "") + `,"ok":true}`,
		`{"worker":"","task":` + cell("measure", "MediumBOOM") + `,"ok":true,"payload":"AAAA"}`,
		`{"worker":"w1","task":` + cell("profile", "") + `,"ok":true}`,
		`{"worker":"w1","task":` + cell("measure", "MediumBOOM") + `,"ok":true,"payload":"AAAA"}`,
		`{"worker":"w1","task":` + cell("measure", "MediumBOOM") + `,"ok":false,"error":"boom"}`,
		`{"worker":"w1","task":` + cell("measure", "GigaBOOM") + `,"ok":true}`,
		`{"worker":"w1","task":{"campaign":"another","kind":"profile","workload":"sha"}}`,
		`{"worker":"w1"} trailing`,
		`{"worker":`,
		`null`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		c, r := admitted(t)
		defer c.retire(r)
		for _, route := range []string{"workers", "poll", "heartbeat", "done"} {
			rec := httptest.NewRecorder()
			postTo(c, rec, route, string(body))
			if rec.Code >= 500 {
				t.Fatalf("POST %s %q: %d %s", route, body, rec.Code, rec.Body)
			}
			c.mu.Lock()
			_, phantom := c.workers[""]
			open := 0
			for _, cl := range r.cells {
				if cl.state != cellDone && cl.state != cellFailed {
					open++
				}
			}
			remaining := r.remaining
			c.mu.Unlock()
			if phantom {
				t.Fatalf("POST %s %q (%d) entered a worker row with an empty id", route, body, rec.Code)
			}
			if remaining != open {
				t.Fatalf("POST %s %q: remaining = %d with %d cell(s) not terminal", route, body, remaining, open)
			}
		}
	})
}
