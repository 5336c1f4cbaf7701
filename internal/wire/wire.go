// Package wire is the one place HTTP is spoken. All four hops — boomctl/dse
// → boomd, fabric worker → coordinator, worker → artifact store, boomd →
// -remote-store — make their round trips with Do, read a refusal as the one
// typed Error, and retry under Retry's one classification; the servers
// decode bodies with ReadJSON and answer with WriteJSON / WriteError. What
// each hop keeps is what differs: its backoff.Policy, its reply-size limit,
// and its routes.
package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/backoff"
)

// RetryHint is the Retry-After, in seconds, of every "ask again shortly"
// refusal (429 queue full, 503 draining): one daemon gives one hint.
const RetryHint = "2"

// Error is a non-2xx answer: what Do returns on the client side, and what a
// handler hands WriteError on the server side.
type Error struct {
	Status int
	// Msg is the server's {"error": …} message, or the trimmed body of an
	// answer that is not in that shape.
	Msg string
	// RetryAfter is the Retry-After header as sent ("" = none); Wait parses it.
	RetryAfter string
}

type errorBody struct {
	Error string `json:"error"`
}

func (e *Error) Error() string {
	s := fmt.Sprintf("%d %s: %s", e.Status, http.StatusText(e.Status), e.Msg)
	if e.RetryAfter != "" {
		s += " (retry after " + e.RetryAfter + "s)"
	}
	return s
}

// Wait reports whether the answer is a wait instruction — a 429 or 503
// whose Retry-After is a whole number of seconds — and for how long.
func (e *Error) Wait() (time.Duration, bool) {
	secs, err := strconv.Atoi(strings.TrimSpace(e.RetryAfter))
	busy := e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable
	return time.Duration(secs) * time.Second, busy && err == nil && secs >= 0
}

// errTooLarge is a reply longer than the caller's limit.
var errTooLarge = errors.New("reply exceeds the size limit")

// Do makes one round trip. A []byte body is sent as is, any other non-nil
// body as JSON. At most limit bytes of the reply are read: into *[]byte
// unchanged, into any other non-nil reply as JSON. It returns the status
// code, and a *Error for an answer outside 2xx.
func Do(ctx context.Context, hc *http.Client, method, url string, body, reply any, limit int64) (int, error) {
	var payload io.Reader
	ctype := "application/octet-stream"
	switch b := body.(type) {
	case nil:
	case []byte:
		payload = bytes.NewReader(b)
	default:
		buf, err := json.Marshal(b)
		if err != nil {
			return 0, err
		}
		payload, ctype = bytes.NewReader(buf), "application/json"
	}
	req, err := http.NewRequestWithContext(ctx, method, url, payload)
	if err != nil {
		return 0, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	switch {
	case err != nil:
		return resp.StatusCode, err
	case int64(len(raw)) > limit:
		return resp.StatusCode, fmt.Errorf("%s %s: %w (%d bytes)", method, url, errTooLarge, limit)
	case resp.StatusCode/100 != 2:
		e := &Error{Status: resp.StatusCode, Msg: strings.TrimSpace(string(raw)), RetryAfter: resp.Header.Get("Retry-After")}
		var eb errorBody
		if len(raw) > 0 && raw[0] == '{' && json.Unmarshal(raw, &eb) == nil && eb.Error != "" {
			e.Msg = eb.Error
		}
		return resp.StatusCode, e
	}
	switch out := reply.(type) {
	case nil:
	case *[]byte:
		*out = raw
	default:
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, fmt.Errorf("decoding %s %s reply: %w", method, url, err)
		}
	}
	return resp.StatusCode, nil
}

// classify states once what an attempt's error means to the retry loop. A
// transport error, a stalled attempt, an undecodable reply and a 5xx are
// worth another attempt; any other refusal is the server saying no
// (backoff.Permanent), as is a reply over the limit; and a 429/503 that says
// when to come back is a wait instruction (backoff.After, so Retry honours
// it only up to the policy's Max).
func classify(err error) error {
	var e *Error
	if errors.Is(err, errTooLarge) {
		return backoff.Permanent(err)
	}
	if !errors.As(err, &e) {
		return err
	}
	if d, ok := e.Wait(); ok {
		return backoff.After(err, d)
	}
	if e.Status/100 == 4 {
		return backoff.Permanent(err)
	}
	return err
}

// Retry is backoff.Retry over classify: op — usually one Do under the
// attempt's context — runs under the caller's policy.
func Retry(ctx context.Context, p backoff.Policy, op func(ctx context.Context) error) error {
	return backoff.Retry(ctx, p, func(ctx context.Context) error { return classify(op(ctx)) })
}

// Retryable reports whether Retry would make another attempt after err.
func Retryable(err error) bool { return err != nil && !backoff.IsPermanent(classify(err)) }

// ReadJSON decodes a request body of at most limit bytes, exactly one JSON
// value, into v; strict also rejects fields v does not have. A failure is a
// 400 *Error for WriteError.
func ReadJSON(w http.ResponseWriter, r *http.Request, limit int64, strict bool, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	if strict {
		dec.DisallowUnknownFields()
	}
	err := dec.Decode(v)
	if err == nil {
		if _, more := dec.Token(); more != io.EOF {
			err = errors.New("trailing data after the JSON value")
		}
	}
	if err != nil {
		return &Error{Status: http.StatusBadRequest, Msg: "bad request body: " + err.Error()}
	}
	return nil
}

// SetRetryAfter sets the Retry-After header, in seconds.
func SetRetryAfter(w http.ResponseWriter, secs string) { w.Header().Set("Retry-After", secs) }

// WriteJSON answers status with v as the JSON body. The encode error — an
// unencodable value, a peer that hung up — is the caller's to count.
func WriteJSON(w http.ResponseWriter, status int, v any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	return json.NewEncoder(w).Encode(v)
}

// WriteError answers with err's status, its Retry-After when it carries
// one, and the body {"error": msg}. An err that is no *Error is a 500.
func WriteError(w http.ResponseWriter, err error) error {
	e := &Error{Status: http.StatusInternalServerError, Msg: err.Error()}
	errors.As(err, &e)
	if e.RetryAfter != "" {
		SetRetryAfter(w, e.RetryAfter)
	}
	return WriteJSON(w, e.Status, errorBody{e.Msg})
}
