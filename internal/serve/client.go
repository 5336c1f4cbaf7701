package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"time"

	"repro/internal/backoff"
	"repro/internal/dse"
	"repro/internal/wire"
)

// Client is the boomd HTTP client cmd/boomctl and cmd/dse -addr share.
type Client struct {
	Base string // "http://host:port"
	HTTP *http.Client
}

// NewClient returns a client for the daemon at addr (host:port).
func NewClient(addr string) *Client {
	return &Client{Base: "http://" + addr, HTTP: &http.Client{}}
}

// requestBound caps one request — not a wait: Result asks again when a long
// poll outlives it (a variable so tests can shrink it). maxReply caps one
// reply: a 4096-point result is ~15 MB.
var requestBound = 10 * time.Minute

const maxReply = 1 << 28

// Do makes one bounded round trip to the daemon (see wire.Do).
func (c *Client) Do(ctx context.Context, method, path string, body, reply any) (int, error) {
	ctx, cancel := context.WithTimeout(ctx, requestBound)
	defer cancel()
	return wire.Do(ctx, c.HTTP, method, c.Base+path, body, reply, maxReply)
}

// RequestFromSpec starts a parametric (v2) request from a design-space
// spec: base, fixed overrides and sweep axes, values in their canonical
// string form. Empty parts stay absent from the body; the caller fills in
// workloads, scale and sampling.
func RequestFromSpec(spec dse.Spec) SweepRequest {
	req := SweepRequest{Base: spec.Base}
	if len(spec.Overrides) > 0 {
		req.ConfigOverrides = map[string]AxisValue{}
		for _, s := range spec.Overrides {
			req.ConfigOverrides[s.Param] = AxisValue(s.Value)
		}
	}
	if len(spec.Axes) > 0 {
		req.Axes = map[string][]AxisValue{}
		for _, a := range spec.Axes {
			vals := make([]AxisValue, len(a.Values))
			for i, v := range a.Values {
				vals[i] = AxisValue(v)
			}
			req.Axes[a.Param] = vals
		}
	}
	return req
}

// SamplingBlock returns the request block for the five CLI sampling
// spellings, nil when none is set — so a flagless submission stays
// byte-identical to a pre-sampling client's and runs under the daemon's
// default spec.
func SamplingBlock(interval int64, features string, dims, maxK int, warmup string) *SamplingRequest {
	sr := SamplingRequest{Interval: interval, Features: features, Dims: dims, MaxK: maxK, Warmup: warmup}
	if sr == (SamplingRequest{}) {
		return nil
	}
	return &sr
}

// Submit POSTs a campaign and returns the job status; Status.ID is the
// campaign fingerprint to ask for the result under.
func (c *Client) Submit(req SweepRequest) (Status, error) {
	var st Status
	_, err := c.Do(context.Background(), http.MethodPost, "/v1/sweeps", req, &st)
	return st, err
}

// Result fetches a job's canonical result JSON. With wait it long-polls
// until the job is terminal, however long that takes: a poll that comes back
// 202, or that outlives the client's own requestBound, is asked again — only
// the daemon's answer (200 the result, 500 the sweep failed) or a transport
// failure ends the wait. Without wait an unfinished job is an error.
func (c *Client) Result(id string, wait bool) ([]byte, error) {
	path := "/v1/sweeps/" + id + "/result"
	poll := backoff.Policy{Attempts: 1}
	if wait {
		path += "?wait=1"
		poll = backoff.Policy{Attempts: math.MaxInt, Base: 200 * time.Millisecond, Max: 200 * time.Millisecond, Jitter: -1}
	}
	var b []byte
	err := backoff.Retry(context.Background(), poll, func(ctx context.Context) error {
		status, err := c.Do(ctx, http.MethodGet, path, nil, &b)
		switch {
		case status == http.StatusAccepted:
			return fmt.Errorf("sweep %s not finished (use -wait)", id)
		case errors.Is(err, context.DeadlineExceeded):
			return backoff.After(err, 0) // our own bound cut the poll: ask again now
		}
		return backoff.Permanent(err)
	})
	if err != nil {
		return nil, err
	}
	return b, nil
}

// SplitList splits a comma-separated flag value, trimming blanks and
// dropping empty items.
func SplitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
