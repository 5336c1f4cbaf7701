// Remote artifact store: the HTTP tier that lets the distributed sweep
// fabric share one content-addressed cache across nodes. The coordinator
// mounts NewServer over its local Cache; workers attach a Remote client
// to theirs (Cache.SetRemote), turning every local miss into a verified
// fetch and every Put into a write-through Push. Because entries are
// content-addressed and self-checksummed, the protocol needs no
// conditional requests: a GET either returns a complete verified entry or
// 404, and concurrent PUTs of one key converge on identical bytes.
//
// Wire layout (entry bytes exactly as Cache stores them on disk):
//
//	GET    /v1/artifacts/{stage}/v{version}/{hex}  200 entry | 404
//	PUT    /v1/artifacts/{stage}/v{version}/{hex}  204 | 400 corrupt entry
//	DELETE /v1/artifacts/{stage}/v{version}/{hex}  204 (idempotent)
package artifact

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"regexp"
	"strconv"
	"strings"
	"time"

	"repro/internal/backoff"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// ErrNotFound reports a key absent from the remote store.
var ErrNotFound = fmt.Errorf("artifact: not found in remote store")

// NewHTTPClient returns an http.Client with the connection and response
// phases bounded separately: connect caps dialing (a dead or partitioned
// host fails fast) and response caps the wait for response headers (a
// server that accepts and then hangs is cut off). There is deliberately
// no overall Client.Timeout — that would also bound the body transfer and
// any long-poll the fabric layers on the same client. Zero durations
// leave that phase unbounded.
func NewHTTPClient(connect, response time.Duration) *http.Client {
	d := &net.Dialer{Timeout: connect, KeepAlive: 30 * time.Second}
	return &http.Client{Transport: &http.Transport{
		DialContext:           d.DialContext,
		ResponseHeaderTimeout: response,
		MaxIdleConnsPerHost:   16,
		IdleConnTimeout:       90 * time.Second,
	}}
}

// Remote is the client half of the remote artifact store. A nil *Remote
// is inert. Safe for concurrent use.
//
// Every operation runs under a jittered-backoff retry policy with
// per-attempt deadlines, behind a consecutive-failure circuit breaker:
// transient store hiccups cost bounded latency, and a dead store trips
// the breaker so subsequent operations short-circuit with ErrBreakerOpen
// (callers degrade to local recompute) until a half-open probe finds the
// store healthy again. Breaker transitions surface as
// artifact.breaker_open / _close / _probe / _short_circuit counters.
type Remote struct {
	base string
	hc   *http.Client
	pol  backoff.Policy
	br   *breaker
	reg  *metrics.Registry
}

// NewRemote returns a client for the store at base (e.g.
// "http://coordinator:8080"). hc nil uses NewHTTPClient(5s, 60s) — a 5s
// connect bound and a 60s response-header bound, with the transfer itself
// unbounded.
func NewRemote(base string, hc *http.Client) *Remote {
	if hc == nil {
		hc = NewHTTPClient(5*time.Second, 60*time.Second)
	}
	r := &Remote{
		base: strings.TrimRight(base, "/"),
		hc:   hc,
		pol: backoff.Policy{
			Attempts:       3,
			Base:           100 * time.Millisecond,
			Max:            2 * time.Second,
			AttemptTimeout: 60 * time.Second,
		},
	}
	r.br = newBreaker(5, 5*time.Second, func(name string) { r.reg.Counter(name).Inc() })
	return r
}

// SetMetrics attaches a registry for breaker and retry counters.
func (r *Remote) SetMetrics(reg *metrics.Registry) { r.reg = reg }

// SetRetry replaces the retry policy (tests tighten it; operators with
// flappy links widen it).
func (r *Remote) SetRetry(p backoff.Policy) { r.pol = p }

// SetBreaker re-tunes the circuit breaker: trip after threshold
// consecutive failed operations, short-circuit for cooldown before
// probing. Zero values keep the defaults (5 failures, 5s).
func (r *Remote) SetBreaker(threshold int, cooldown time.Duration) {
	r.br = newBreaker(threshold, cooldown, r.br.count)
}

// status returns the HTTP status err carries, 0 when the store never
// answered (or err is nil).
func status(err error) int {
	var e *wire.Error
	if errors.As(err, &e) {
		return e.Status
	}
	return 0
}

// breakerNeutral reports errors that prove the store is reachable even
// though the operation failed — a 404 or any other 4xx is the server
// answering, which must not trip the breaker.
func breakerNeutral(err error) bool {
	s := status(err)
	return 0 < s && s < 500
}

// do runs one logical store operation — method on k's URL — through the
// breaker and the retry policy (internal/wire says what is retried). One
// allow() per operation: the retries inside count as a single breaker
// verdict, so the trip threshold measures operations, not attempts.
func (r *Remote) do(method string, k Key, body, reply any) error {
	if !r.br.allow() {
		return ErrBreakerOpen
	}
	err := wire.Retry(context.Background(), r.pol, func(ctx context.Context) error {
		_, err := wire.Do(ctx, r.hc, method, r.url(k), body, reply, maxPayload+headerSize)
		return err
	})
	if err == nil || breakerNeutral(err) {
		r.br.success()
	} else {
		r.br.failure()
	}
	return err
}

func (r *Remote) url(k Key) string {
	return fmt.Sprintf("%s/v1/artifacts/%s/v%d/%s", r.base, k.Stage, k.Version, k.Hex())
}

// Fetch retrieves the raw entry bytes for k. The caller (Cache.Get)
// verifies the entry checksum before using or persisting it — Fetch
// itself only moves bytes. Returns ErrNotFound for an absent key and
// ErrBreakerOpen while the breaker is short-circuiting.
func (r *Remote) Fetch(k Key) ([]byte, error) {
	var out []byte
	err := r.do(http.MethodGet, k, nil, &out)
	if status(err) == http.StatusNotFound {
		return nil, ErrNotFound
	}
	return out, err
}

// Push uploads the raw entry bytes for k. Pushing the same key twice is
// idempotent: content addressing makes every writer's entry equivalent. A
// 4xx is the store rejecting these bytes (corrupt entry); resending them
// cannot change its mind.
func (r *Remote) Push(k Key, entry []byte) error {
	return r.do(http.MethodPut, k, entry, nil)
}

// Evict removes k from the store (best effort; absent keys succeed). Used
// when a fetched entry fails verification, so the slot heals on the next
// Push instead of serving the same corrupt bytes forever.
func (r *Remote) Evict(k Key) error {
	err := r.do(http.MethodDelete, k, nil, nil)
	if status(err) == http.StatusNotFound {
		return nil
	}
	return err
}

var hexSumRE = regexp.MustCompile(`^[0-9a-f]{64}$`)

// parseStoreKey reconstructs a Key from its three path components,
// rejecting anything that could escape the cache's directory layout.
func parseStoreKey(stage, version, sum string) (Key, error) {
	var k Key
	if stage == "" || strings.ContainsAny(stage, "/\\.") {
		return k, fmt.Errorf("bad stage %q", stage)
	}
	v, ok := strings.CutPrefix(version, "v")
	if !ok {
		return k, fmt.Errorf("bad version %q", version)
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return k, fmt.Errorf("bad version %q", version)
	}
	if !hexSumRE.MatchString(sum) {
		return k, fmt.Errorf("bad key %q", sum)
	}
	raw, err := hex.DecodeString(sum)
	if err != nil {
		return k, fmt.Errorf("bad key %q", sum)
	}
	k.Stage, k.Version = stage, n
	copy(k.Sum[:], raw)
	return k, nil
}

// NewServer returns the HTTP handler serving c as a remote artifact
// store. The handler upholds the store's one invariant — corrupt bytes
// are never served: every PUT is verified before it is persisted, and
// every GET re-verifies the entry read off disk, evicting (and 404ing)
// anything that rotted in place. Mount it wherever /v1/artifacts/
// resolves (the fabric coordinator mounts it next to its own API).
func NewServer(c *Cache) http.Handler {
	mux := http.NewServeMux()
	withKey := func(fn func(w http.ResponseWriter, r *http.Request, k Key)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			k, err := parseStoreKey(r.PathValue("stage"), r.PathValue("version"), r.PathValue("sum"))
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			fn(w, r, k)
		}
	}
	mux.HandleFunc("GET /v1/artifacts/{stage}/{version}/{sum}", withKey(
		func(w http.ResponseWriter, r *http.Request, k Key) {
			data, err := os.ReadFile(c.path(k))
			if err != nil {
				c.reg.Counter("artifact.store.get_miss").Inc()
				http.NotFound(w, r)
				return
			}
			if _, _, err := decodeEntry(data, k.Version); err != nil {
				// Rotted on the store's disk: evict rather than serve.
				os.Remove(c.path(k))
				c.reg.Counter("artifact.store.evict").Inc()
				http.NotFound(w, r)
				return
			}
			c.reg.Counter("artifact.store.get").Inc()
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Write(data)
		}))
	mux.HandleFunc("PUT /v1/artifacts/{stage}/{version}/{sum}", withKey(
		func(w http.ResponseWriter, r *http.Request, k Key) {
			entry, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxPayload+headerSize))
			if err != nil {
				http.Error(w, "reading entry: "+err.Error(), http.StatusBadRequest)
				return
			}
			if _, _, err := decodeEntry(entry, k.Version); err != nil {
				c.reg.Counter("artifact.store.put_rejected").Inc()
				http.Error(w, "corrupt entry: "+err.Error(), http.StatusBadRequest)
				return
			}
			if err := c.putRaw(k, entry); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			c.reg.Counter("artifact.store.put").Inc()
			w.WriteHeader(http.StatusNoContent)
		}))
	mux.HandleFunc("DELETE /v1/artifacts/{stage}/{version}/{sum}", withKey(
		func(w http.ResponseWriter, _ *http.Request, k Key) {
			os.Remove(c.path(k))
			c.reg.Counter("artifact.store.delete").Inc()
			w.WriteHeader(http.StatusNoContent)
		}))
	return mux
}
