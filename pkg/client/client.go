// Package client is the typed Go SDK for the mediatord session farm's
// /v1 API (package api): session lifecycle, experiment sweeps, stats,
// and the event stream, with context-aware retry/backoff, long-poll
// helpers, and SSE subscriptions. Every request and response body is an
// api type; every failure maps the server's stable error code back to a
// sentinel error this package exports, so callers switch with errors.Is
// rather than string-matching messages — the client-side half of the
// wire contract.
package client

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"

	"asyncmediator/api"
)

// The sentinel errors api error codes map onto. Use errors.Is; the full
// server message travels in the wrapping *Error.
var (
	// ErrNotFound: no session, job, or experiment with that id or name.
	ErrNotFound = errors.New("client: not found")
	// ErrInvalidArgument: the server rejected the request as malformed.
	ErrInvalidArgument = errors.New("client: invalid argument")
	// ErrConflict: the request is illegal in the subject's lifecycle state.
	ErrConflict = errors.New("client: lifecycle conflict")
	// ErrPoolSaturated: farm backpressure; the request had no effect.
	ErrPoolSaturated = errors.New("client: pool saturated")
	// ErrNotReady: the daemon is booting or draining.
	ErrNotReady = errors.New("client: daemon not ready")
	// ErrPlacementInfeasible: the placement request is unplaceable on
	// any fleet (unknown strategy or contradictory pinned peers).
	ErrPlacementInfeasible = errors.New("client: placement infeasible")
	// ErrFleetUnderFloor: the fleet is currently too small or unhealthy
	// for the requested placement; retry after it recovers.
	ErrFleetUnderFloor = errors.New("client: fleet under placement floor")
	// ErrInternal: the server faulted (or answered with an unknown code).
	ErrInternal = errors.New("client: internal server error")
)

// sentinel maps a contract code to its package-level error.
func sentinel(code api.ErrorCode) error {
	switch code {
	case api.CodeNotFound:
		return ErrNotFound
	case api.CodeInvalidArgument:
		return ErrInvalidArgument
	case api.CodeConflict:
		return ErrConflict
	case api.CodePoolSaturated:
		return ErrPoolSaturated
	case api.CodeNotReady:
		return ErrNotReady
	case api.CodePlacementInfeasible:
		return ErrPlacementInfeasible
	case api.CodeFleetUnderFloor:
		return ErrFleetUnderFloor
	default:
		return ErrInternal
	}
}

// Error is a failed API call: the server's structured error plus the
// HTTP status it arrived with. It unwraps to the sentinel its code maps
// to, so errors.Is(err, client.ErrNotFound) works on any wrapped form.
type Error struct {
	Status int
	Err    api.Error
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("client: %s (%s, http %d)", e.Err.Message, e.Err.Code, e.Status)
}

// Unwrap maps the stable code onto this package's sentinels.
func (e *Error) Unwrap() error { return sentinel(e.Err.Code) }

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient swaps the underlying *http.Client (connection pooling,
// TLS, proxies). The default has no global timeout: per-call deadlines
// belong to the caller's context (SSE streams and long-polls are
// long-lived by design).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetries sets how many times a retryable failure is retried
// (default 3; 0 disables).
func WithRetries(n int) Option { return func(c *Client) { c.retries = n } }

// WithBackoff sets the base and cap of the exponential retry backoff
// (defaults 100ms and 2s). The wait doubles per attempt and respects the
// call's context.
func WithBackoff(base, max time.Duration) Option {
	return func(c *Client) { c.backoffBase, c.backoffMax = base, max }
}

// WithRequestIDPrefix sets the prefix of generated request ids (default
// "ctl"); ids are injected on every call and echoed by the daemon, so
// one id ties client call, server log line, and response together.
func WithRequestIDPrefix(p string) Option { return func(c *Client) { c.idPrefix = p } }

// Client is a typed handle on one mediatord daemon.
type Client struct {
	base        *url.URL
	hc          *http.Client
	retries     int
	backoffBase time.Duration
	backoffMax  time.Duration
	idPrefix    string
	nonce       string
	reqSeq      atomic.Int64
	idemSeq     atomic.Int64
}

// New builds a client for the daemon at baseURL (e.g.
// "http://127.0.0.1:8080"). The /v1 prefix is appended per call — pass
// the bare host URL.
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(strings.TrimSuffix(baseURL, "/"))
	if err != nil {
		return nil, fmt.Errorf("client: bad base URL %q: %w", baseURL, err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("client: base URL %q needs a scheme and host", baseURL)
	}
	var nonce [6]byte
	_, _ = rand.Read(nonce[:])
	c := &Client{
		base:        u,
		hc:          &http.Client{},
		retries:     3,
		backoffBase: 100 * time.Millisecond,
		backoffMax:  2 * time.Second,
		idPrefix:    "ctl",
		nonce:       hex.EncodeToString(nonce[:]),
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// BaseURL returns the daemon address this client talks to.
func (c *Client) BaseURL() string { return c.base.String() }

// endpoint joins the base URL, the /v1 prefix (unless the path is
// unversioned infrastructure), and the query.
func (c *Client) endpoint(path string, query url.Values) string {
	u := *c.base
	u.Path = strings.TrimSuffix(u.Path, "/") + path
	if query != nil {
		u.RawQuery = query.Encode()
	}
	return u.String()
}

// retryable reports whether err is worth retrying: the server's
// transient codes always are; transport-level failures for GETs and for
// POSTs that carried an Idempotency-Key (the server caches the first
// completed response under the key, so a retried create either executes
// once or replays — never doubles).
func retryable(method string, idemKey string, err error) bool {
	var ae *Error
	if errors.As(err, &ae) {
		return ae.Err.Code.Retryable()
	}
	return method == http.MethodGet || idemKey != ""
}

// do performs one JSON round trip with retry/backoff: body (when
// non-nil) is marshaled per attempt, out (when non-nil) receives the
// decoded 2xx response. Every POST is stamped with a fresh
// Idempotency-Key that stays fixed across its retries.
func (c *Client) do(ctx context.Context, method, path string, query url.Values, body, out any) error {
	idemKey := ""
	if method == http.MethodPost {
		idemKey = c.nextIdempotencyKey()
	}
	return c.doKeyed(ctx, method, path, query, idemKey, body, out)
}

// doKeyed is do with a caller-chosen Idempotency-Key (empty: unkeyed).
// Deterministic keys — derived from the resource rather than minted —
// make a retry replay server-side even across a new client instance: the
// cluster calls derive theirs from the cluster id for exactly that.
func (c *Client) doKeyed(ctx context.Context, method, path string, query url.Values, idemKey string, body, out any) error {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return fmt.Errorf("client: encode request: %w", err)
		}
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		lastErr = c.once(ctx, method, path, query, payload, idemKey, out)
		if lastErr == nil || attempt >= c.retries || !retryable(method, idemKey, lastErr) {
			return lastErr
		}
		if err := c.sleep(ctx, attempt); err != nil {
			return lastErr
		}
	}
}

// sleep waits out the exponential backoff of `attempt`, honouring ctx.
func (c *Client) sleep(ctx context.Context, attempt int) error {
	d := c.backoffBase << attempt
	if d > c.backoffMax || d <= 0 {
		d = c.backoffMax
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// once is a single request/response exchange.
func (c *Client) once(ctx context.Context, method, path string, query url.Values, payload []byte, idemKey string, out any) error {
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.endpoint(path, query), rd)
	if err != nil {
		return fmt.Errorf("client: build request: %w", err)
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if idemKey != "" {
		req.Header.Set(api.IdempotencyKeyHeader, idemKey)
	}
	req.Header.Set(api.RequestIDHeader, c.nextRequestID())
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return decodeError(resp)
	}
	if out == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decode %s %s response: %w", method, path, err)
	}
	return nil
}

// nextRequestID mints a client-side request id.
func (c *Client) nextRequestID() string {
	return fmt.Sprintf("%s-%06d", c.idPrefix, c.reqSeq.Add(1))
}

// nextIdempotencyKey mints a key unique across client instances (the
// per-client random nonce) and calls (the sequence).
func (c *Client) nextIdempotencyKey() string {
	return fmt.Sprintf("%s-%s-%06d", c.idPrefix, c.nonce, c.idemSeq.Add(1))
}

// decodeError turns a non-2xx response into *Error. A body that is not
// the contract's envelope (a misbehaving proxy, a pre-/v1 server)
// degrades to a code inferred from the HTTP status, so errors.Is keeps
// working.
func decodeError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	var env api.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err == nil && env.Error != nil && env.Error.Code != "" {
		return &Error{Status: resp.StatusCode, Err: *env.Error}
	}
	code := api.CodeInternal
	switch resp.StatusCode {
	case http.StatusBadRequest:
		code = api.CodeInvalidArgument
	case http.StatusNotFound:
		code = api.CodeNotFound
	case http.StatusConflict:
		code = api.CodeConflict
	case http.StatusServiceUnavailable:
		code = api.CodePoolSaturated
	}
	msg := strings.TrimSpace(string(body))
	if msg == "" {
		msg = resp.Status
	}
	return &Error{Status: resp.StatusCode, Err: api.Error{Code: code, Message: msg}}
}

// Healthy probes GET /healthz.
func (c *Client) Healthy(ctx context.Context) error {
	var h api.Health
	return c.doUnversioned(ctx, "/healthz", &h)
}

// Ready probes GET /readyz; a not-ready daemon yields ErrNotReady with
// the server's reason.
func (c *Client) Ready(ctx context.Context) error {
	var rd api.Readiness
	return c.doUnversioned(ctx, "/readyz", &rd)
}

// doUnversioned GETs an infrastructure path (no /v1 prefix, no retry —
// probes should report the instant truth). A 503 readiness body is
// surfaced as ErrNotReady.
func (c *Client) doUnversioned(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.endpoint(path, nil), nil)
	if err != nil {
		return err
	}
	req.Header.Set(api.RequestIDHeader, c.nextRequestID())
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("client: GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusServiceUnavailable {
		var rd api.Readiness
		if json.NewDecoder(resp.Body).Decode(&rd) == nil && rd.Reason != "" {
			return &Error{Status: resp.StatusCode, Err: api.Error{Code: api.CodeNotReady, Message: rd.Reason}}
		}
		return &Error{Status: resp.StatusCode, Err: api.Error{Code: api.CodeNotReady, Message: "not ready"}}
	}
	if resp.StatusCode >= 300 {
		return decodeError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
