package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/dse"
)

// Client is the boomd HTTP client cmd/boomctl and cmd/dse -addr share.
type Client struct {
	Base string // "http://host:port"
	HTTP *http.Client
}

// NewClient returns a client for the daemon at addr (host:port) whose
// every request, long polls included, is capped at timeout.
func NewClient(addr string, timeout time.Duration) *Client {
	return &Client{Base: "http://" + addr, HTTP: &http.Client{Timeout: timeout}}
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
	body, err := json.Marshal(req)
	if err != nil {
		return st, err
	}
	resp, err := c.HTTP.Post(c.Base+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		return st, err
	}
	b, err := ReadBody(resp)
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(b, &st); err != nil {
		return st, fmt.Errorf("decoding submit response: %w", err)
	}
	return st, nil
}

// Result fetches a job's canonical result JSON. With wait it long-polls
// until the job is terminal, re-polling if a proxy cuts the poll short;
// without, an unfinished job is an error.
func (c *Client) Result(id string, wait bool) ([]byte, error) {
	url := c.Base + "/v1/sweeps/" + id + "/result"
	if wait {
		url += "?wait=1"
	}
	for {
		resp, err := c.HTTP.Get(url)
		if err != nil {
			return nil, err
		}
		b, err := ReadBody(resp)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusAccepted {
			return b, nil
		}
		if !wait {
			return nil, fmt.Errorf("sweep %s not finished (use -wait)", id)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// ReadBody drains the response and turns non-2xx (other than 202, which
// callers branch on) into an error carrying the server's message — plus
// the Retry-After hint when the server sent one, so a draining node reads
// as "retry after Ns", not a bare failure.
func ReadBody(resp *http.Response) ([]byte, error) {
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 400 {
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			return nil, fmt.Errorf("%s: %s (retry after %ss)", resp.Status, bytes.TrimSpace(b), ra)
		}
		return nil, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(b))
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
