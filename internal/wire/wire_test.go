package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/backoff"
)

// answer is a canned server reply.
type answer struct {
	status     int
	retryAfter string
	body       string
	hang       bool // never answer: the attempt's deadline must cut it
}

func (a answer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if a.hang {
		<-r.Context().Done()
		return
	}
	if a.retryAfter != "" {
		w.Header().Set("Retry-After", a.retryAfter)
	}
	w.WriteHeader(a.status)
	io.WriteString(w, a.body)
}

// TestClassification is the contract every hop shares: what one attempt's
// outcome means to the retry loop. Each row is answered by a real server
// (or none), fetched with Do, and run through Retry to count attempts.
func TestClassification(t *testing.T) {
	const limit = 64
	slow := backoff.Policy{Base: 500 * time.Millisecond, Max: 15 * time.Second, Jitter: -1}
	fast := backoff.Policy{Attempts: 3, Base: time.Millisecond, Max: 2 * time.Millisecond, Jitter: -1, AttemptTimeout: 50 * time.Millisecond}
	for _, tc := range []struct {
		name      string
		answer    answer
		dead      bool          // no server at all: a transport error
		permanent bool          // one attempt, no more
		wait      time.Duration // under slow, before the second attempt
		status    int           // the *Error's status; 0 = not an *Error
	}{
		{name: "transport error", dead: true, wait: 500 * time.Millisecond},
		{name: "attempt deadline", answer: answer{hang: true}, wait: 500 * time.Millisecond},
		{name: "500", answer: answer{status: 500, body: "oops"}, wait: 500 * time.Millisecond, status: 500},
		{name: "503", answer: answer{status: 503, body: `{"error":"busy"}`}, wait: 500 * time.Millisecond, status: 503},
		{name: "503 + Retry-After: 2", answer: answer{status: 503, retryAfter: "2"}, wait: 2 * time.Second, status: 503},
		{name: "429 + Retry-After: 86400", answer: answer{status: 429, retryAfter: "86400"}, wait: 15 * time.Second, status: 429},
		{name: "400", answer: answer{status: 400, body: `{"error":"no"}`}, permanent: true, status: 400},
		{name: "400 + Retry-After", answer: answer{status: 400, retryAfter: "2"}, permanent: true, status: 400},
		{name: "404", answer: answer{status: 404, body: "404 page not found\n"}, permanent: true, status: 404},
		{name: "200 over the limit", answer: answer{status: 200, body: strings.Repeat("x", limit+1)}, permanent: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(tc.answer)
			defer ts.Close()
			if tc.dead {
				ts.Close()
			}
			calls := 0
			var got []byte
			err := Retry(context.Background(), fast, func(ctx context.Context) error {
				calls++
				_, err := Do(ctx, ts.Client(), http.MethodGet, ts.URL, nil, &got, limit)
				return err
			})
			if err == nil {
				t.Fatalf("no error (reply %q)", got)
			}
			if backoff.IsPermanent(err) {
				t.Errorf("Retry returned %v still carrying a backoff marker", err)
			}
			if want := map[bool]int{true: 1, false: fast.Attempts}[tc.permanent]; calls != want {
				t.Errorf("%d attempt(s), want %d", calls, want)
			}
			if Retryable(err) == tc.permanent {
				t.Errorf("Retryable(%v) = %v", err, !tc.permanent)
			}
			var e *Error
			if errors.As(err, &e) != (tc.status != 0) || e != nil && e.Status != tc.status {
				t.Errorf("error %v (%T), want an *Error with status %d (0 = none)", err, err, tc.status)
			}
			c := classify(err)
			if backoff.IsPermanent(c) != tc.permanent {
				t.Errorf("classify(%v): permanent = %v, want %v", err, !tc.permanent, tc.permanent)
			}
			if !tc.permanent {
				if w := slow.WaitAfter(0, c); w != tc.wait {
					t.Errorf("wait before the retry = %s, want %s", w, tc.wait)
				}
			}
		})
	}
}

// TestRetryDelay pins the wait arithmetic (moved, cases unchanged, from
// cmd/boomctl, whose read loop this replaced): a 503's Retry-After wins but
// is capped at the policy's Max, and without a parseable one the wait is
// the policy's own doubling from Base up to the same ceiling.
func TestRetryDelay(t *testing.T) {
	pol := backoff.Policy{Base: 500 * time.Millisecond, Max: 15 * time.Second, Jitter: -1}
	cases := []struct {
		attempt    int
		retryAfter string
		want       time.Duration
	}{
		{0, "5", 5 * time.Second},
		{3, "0", 0},
		{0, "86400", 15 * time.Second}, // confused server: capped
		{0, "soon", 500 * time.Millisecond},
		{1, "", time.Second},
		{2, "", 2 * time.Second},
		{10, "", 15 * time.Second},
		{0, "-1", 500 * time.Millisecond},
	}
	for _, c := range cases {
		err := classify(&Error{Status: http.StatusServiceUnavailable, RetryAfter: c.retryAfter})
		if got := pol.WaitAfter(c.attempt, err); got != c.want {
			t.Errorf("wait(%d, %q) = %s, want %s", c.attempt, c.retryAfter, got, c.want)
		}
	}
}

// TestErrorCarriesTheServersWords: the message is the {"error": …} field
// when the body has that shape and the trimmed body otherwise, and the
// Retry-After hint is part of the text an operator reads.
func TestErrorCarriesTheServersWords(t *testing.T) {
	for _, tc := range []struct {
		answer answer
		want   string
	}{
		{answer{status: 503, retryAfter: "0", body: `{"error":"coordinator is draining; retry later"}` + "\n"},
			"503 Service Unavailable: coordinator is draining; retry later (retry after 0s)"},
		{answer{status: 400, body: "corrupt entry: bad magic\n"}, "400 Bad Request: corrupt entry: bad magic"},
		{answer{status: 500, body: `{"unrelated":1}`}, `500 Internal Server Error: {"unrelated":1}`},
	} {
		ts := httptest.NewServer(tc.answer)
		_, err := Do(context.Background(), ts.Client(), http.MethodGet, ts.URL, nil, nil, 1<<10)
		ts.Close()
		if err == nil || err.Error() != tc.want {
			t.Errorf("error %q, want %q", err, tc.want)
		}
	}
}

// TestDoBodiesAndReplies: bytes travel as they are, anything else as JSON,
// in both directions, and a request without a body carries no Content-Type.
func TestDoBodiesAndReplies(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		fmt.Fprintf(w, `{"method":%q,"ctype":%q,"body":%q}`, r.Method, r.Header.Get("Content-Type"), b)
	}))
	defer ts.Close()
	type echo struct{ Method, Ctype, Body string }
	for _, tc := range []struct {
		method string
		body   any
		want   echo
	}{
		{http.MethodGet, nil, echo{"GET", "", ""}},
		{http.MethodPut, []byte("entry bytes"), echo{"PUT", "application/octet-stream", "entry bytes"}},
		{http.MethodPost, map[string]int{"a": 1}, echo{"POST", "application/json", `{"a":1}`}},
	} {
		var got echo
		status, err := Do(context.Background(), ts.Client(), tc.method, ts.URL, tc.body, &got, 1<<10)
		if err != nil || status != http.StatusOK || got != tc.want {
			t.Errorf("%s %v: %d, %v, echo %+v, want %+v", tc.method, tc.body, status, err, got, tc.want)
		}
	}
	var raw []byte
	if _, err := Do(context.Background(), ts.Client(), http.MethodGet, ts.URL, nil, &raw, 1<<10); err != nil || !bytes.HasPrefix(raw, []byte(`{"method":"GET"`)) {
		t.Errorf("raw reply %q, %v", raw, err)
	}
	var n int
	if _, err := Do(context.Background(), ts.Client(), http.MethodGet, ts.URL, nil, &n, 1<<10); err == nil || !Retryable(err) {
		t.Errorf("an undecodable reply must be a retryable error, got %v", err)
	}
}

// TestServerSide: ReadJSON takes exactly one JSON value within the limit
// (strictness on request) and its refusal is a 400 WriteError writes in the
// shared {"error": …} shape; WriteError carries Retry-After and turns a
// foreign error into a 500; WriteJSON hands back the encode error.
func TestServerSide(t *testing.T) {
	type req struct {
		Name string `json:"name"`
	}
	for _, tc := range []struct {
		body   string
		strict bool
		ok     bool
	}{
		{`{"name":"a"}`, true, true},
		{`{"name":"a"}` + "\n ", true, true},
		{`{"name":"a","extra":1}`, false, true},
		{`{"name":"a","extra":1}`, true, false},
		{`{"name":"a"} garbage`, false, false},
		{`{"name":"a"}{"name":"b"}`, false, false},
		{`{"name":"a"}}`, false, false},
		{`{"name":`, false, false},
		{``, false, false},
		{`{"name":"` + strings.Repeat("a", 64) + `"}`, false, false}, // over the limit
	} {
		rec := httptest.NewRecorder()
		var v req
		err := ReadJSON(rec, httptest.NewRequest(http.MethodPost, "/", strings.NewReader(tc.body)), 32, tc.strict, &v)
		if (err == nil) != tc.ok {
			t.Errorf("ReadJSON(%q, strict=%v) = %v, want ok=%v", tc.body, tc.strict, err, tc.ok)
		}
		if err == nil {
			continue
		}
		if werr := WriteError(rec, err); werr != nil {
			t.Fatal(werr)
		}
		var eb errorBody
		if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &eb) != nil ||
			!strings.HasPrefix(eb.Error, "bad request body: ") || rec.Header().Get("Content-Type") != "application/json" {
			t.Errorf("refusal of %q written as %d %q", tc.body, rec.Code, rec.Body)
		}
	}

	rec := httptest.NewRecorder()
	WriteError(rec, fmt.Errorf("admission: %w", &Error{Status: http.StatusTooManyRequests, Msg: "queue full", RetryAfter: RetryHint}))
	if rec.Code != 429 || rec.Header().Get("Retry-After") != "2" || rec.Body.String() != `{"error":"queue full"}`+"\n" {
		t.Errorf("429 written as %d %v %q", rec.Code, rec.Header(), rec.Body)
	}
	rec = httptest.NewRecorder()
	WriteError(rec, errors.New("disk on fire"))
	if rec.Code != 500 || rec.Header().Get("Retry-After") != "" || rec.Body.String() != `{"error":"disk on fire"}`+"\n" {
		t.Errorf("foreign error written as %d %q", rec.Code, rec.Body)
	}
	if err := WriteJSON(httptest.NewRecorder(), http.StatusOK, math.NaN()); err == nil {
		t.Error("WriteJSON swallowed an encode error")
	}
}

// cannedTransport answers every request with the same 200 and body, with no
// network underneath, so allocation counts are the client code's own.
type cannedTransport struct{ body []byte }

func (c cannedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		io.Copy(io.Discard, req.Body)
		req.Body.Close()
	}
	return &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(bytes.NewReader(c.body)), Request: req}, nil
}

// rpcBeforeWire is fabric.Worker.rpc as it stood before this package
// replaced it — the reference Do's allocation count is held to.
func rpcBeforeWire(ctx context.Context, hc *http.Client, method, url string, body, reply interface{}) error {
	var payload io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		payload = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, payload)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<26))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(raw)))
	}
	if reply != nil {
		return json.Unmarshal(raw, reply)
	}
	return nil
}

// TestDoAllocatesNoMoreThanTheRPCItReplaced: a worker RPC through Do is
// marshal, request, read, unmarshal — nothing buffered twice — so it costs
// no more allocations than the hand-built round trip did. The body is the
// size of a done report's payload.
func TestDoAllocatesNoMoreThanTheRPCItReplaced(t *testing.T) {
	type report struct {
		Worker  string `json:"worker"`
		Payload []byte `json:"payload"`
	}
	type ack struct {
		OK bool `json:"ok"`
	}
	body := report{Worker: "worker-0", Payload: bytes.Repeat([]byte{7}, 4<<10)}
	hc := &http.Client{Transport: cannedTransport{[]byte(`{"ok":true}` + "\n")}}
	ctx := context.Background()
	before := testing.AllocsPerRun(200, func() {
		var a ack
		if err := rpcBeforeWire(ctx, hc, http.MethodPost, "http://coordinator/v1/fabric/done", body, &a); err != nil || !a.OK {
			t.Fatal(err)
		}
	})
	after := testing.AllocsPerRun(200, func() {
		var a ack
		if _, err := Do(ctx, hc, http.MethodPost, "http://coordinator/v1/fabric/done", body, &a, 1<<26); err != nil || !a.OK {
			t.Fatal(err)
		}
	})
	if after > before {
		t.Errorf("Do allocates %.0f per round trip, the RPC it replaced %.0f", after, before)
	}
	t.Logf("allocs per round trip: before %.0f, Do %.0f", before, after)
}
