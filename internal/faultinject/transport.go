package faultinject

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Transport is a fault-injecting http.RoundTripper: the network-boundary
// half of the chaos harness. Wrapped around any client the fabric or the
// remote artifact store uses, it evaluates the injector's rules at sites
// derived from the request —
//
//	fabric.poll           POST /v1/fabric/poll
//	fabric.heartbeat      POST /v1/fabric/heartbeat
//	fabric.report         POST /v1/fabric/done
//	fabric.campaign       GET  /v1/fabric/campaigns/…
//	artifact.remote.get   GET  /v1/artifacts/…
//	artifact.remote.put   PUT  /v1/artifacts/…
//	artifact.remote.evict DELETE /v1/artifacts/…
//
// with Peer (the worker's cluster identity) appended as a second site
// segment, so one worker's RPCs are targetable deterministically
// ("fabric.report/worker-2=errorx3").
//
// Rule modes map onto the failure shapes a hostile network produces:
//
//   - error       → a synthetic 503 response (the server-5xx shape;
//     retry layers must absorb it)
//   - error-perm  → a transport-level error (connection refused/reset)
//   - delay       → a stall before the request leaves (per-attempt
//     deadlines must cut it short)
//   - corrupt     → seed-deterministic bit flips in the response body
//     (checksum verification must catch it)
//   - truncate    → the response body cut short (length checks must
//     catch it)
//   - panic       → propagates (exercises worker panic isolation)
//
// A Transport with a nil Injector is a transparent pass-through.
type Transport struct {
	// Injector supplies the rule plan. Nil disables every site.
	Injector *Injector
	// Base performs the real round trips (nil = http.DefaultTransport).
	Base http.RoundTripper
	// Peer, when set, is appended to every site path — conventionally
	// the worker ID, making per-worker chaos rules addressable.
	Peer string
}

// rpcSite maps a request to its chaos-site path.
func rpcSite(req *http.Request) string {
	p := req.URL.Path
	switch {
	case strings.HasPrefix(p, "/v1/artifacts/"):
		switch req.Method {
		case http.MethodPut:
			return "artifact.remote.put"
		case http.MethodDelete:
			return "artifact.remote.evict"
		default:
			return "artifact.remote.get"
		}
	case strings.HasPrefix(p, "/v1/fabric/poll"):
		return "fabric.poll"
	case strings.HasPrefix(p, "/v1/fabric/heartbeat"):
		return "fabric.heartbeat"
	case strings.HasPrefix(p, "/v1/fabric/done"):
		return "fabric.report"
	case strings.HasPrefix(p, "/v1/fabric/campaigns"):
		return "fabric.campaign"
	}
	return "net.rpc"
}

// RoundTrip evaluates the site's rules, then (unless a fault replaced the
// round trip) forwards to the base transport and applies any response-body
// transforms.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	base := t.Base
	if base == nil {
		base = http.DefaultTransport
	}
	if t.Injector == nil {
		return base.RoundTrip(req)
	}
	parts := []string{rpcSite(req)}
	if t.Peer != "" {
		parts = append(parts, t.Peer)
	}
	if err := t.Injector.Hit(parts...); err != nil {
		f := err.(*Fault)
		if f.Mode == ModeErrorPerm {
			// The connection-level shape: the dial failed, the peer reset.
			return nil, fmt.Errorf("faultinject: injected transport error at %s (rule %q)", f.Site, f.Rule)
		}
		// The server-5xx shape: a well-formed refusal the retry/backoff
		// layers are expected to absorb.
		body := io.NopCloser(strings.NewReader(f.Error() + "\n"))
		return &http.Response{
			Status:     "503 Service Unavailable",
			StatusCode: http.StatusServiceUnavailable,
			Proto:      req.Proto,
			ProtoMajor: req.ProtoMajor,
			ProtoMinor: req.ProtoMinor,
			Header:     http.Header{"Content-Type": []string{"text/plain; charset=utf-8"}},
			Body:       body,
			Request:    req,
		}, nil
	}
	resp, err := base.RoundTrip(req)
	if err != nil || resp.Body == nil || !t.Injector.Transforms(parts...) {
		return resp, err
	}
	// A transform rule targets this site: buffer the body so corrupt /
	// truncate can mangle it deterministically. Payloads here are bounded
	// (entries and RPC bodies are length-capped upstream), so the copy is
	// acceptable for a chaos path.
	raw, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr != nil {
		return nil, rerr
	}
	raw = t.Injector.Corrupt(raw, parts...)
	raw = t.Injector.Truncate(raw, parts...)
	resp.Body = io.NopCloser(bytes.NewReader(raw))
	resp.ContentLength = int64(len(raw))
	resp.Header.Del("Content-Length")
	return resp, nil
}
