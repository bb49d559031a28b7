// Package client is the Go SDK for the stochsched policy service: typed,
// context-aware access to every endpoint a stochschedd daemon serves,
// speaking the wire contract defined in pkg/api.
//
// # Retries and idempotency
//
// Every computation the service performs is memoized by the request's
// canonical spec hash, so every call is idempotent: retrying a request can
// at worst hit the cache of the attempt that actually landed. The client
// exploits this by automatically retrying 429 (overload-shed) responses
// with exponential backoff — see WithRetry. Typed Simulate calls
// additionally verify that the spec_hash echoed by the server matches the
// hash computed locally from the request, catching transport-level
// corruption and contract drift.
//
// # Transports
//
// New dials a real daemon over HTTP. NewInProcess mounts the client
// directly on an http.Handler (such as service.New(cfg).Handler()) with no
// sockets involved — the transport the bundled CLIs use, byte-identical to
// the daemon's responses. Batcher coalesces concurrent single calls into
// POST /v1/batch round trips.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"stochsched/pkg/api"
)

// Doer issues HTTP requests: *http.Client, or the in-process handler
// transport (see NewInProcess).
type Doer interface {
	Do(*http.Request) (*http.Response, error)
}

// Client talks to one policy service. Construct with New or NewInProcess;
// it is safe for concurrent use.
type Client struct {
	base    string
	doer    Doer
	headers http.Header   // default headers stamped on every request
	retries int           // max retry attempts after a 429 (0 = no retries)
	backoff time.Duration // first retry delay; doubles per attempt
	sleep   func(ctx context.Context, d time.Duration) error
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient replaces the transport (e.g. an *http.Client with a
// custom timeout, or a test double).
func WithHTTPClient(d Doer) Option { return func(c *Client) { c.doer = d } }

// WithRetry tunes the retry-on-429 policy: up to retries additional
// attempts, sleeping backoff, 2·backoff, 4·backoff, … between them.
// retries 0 disables retrying. The defaults are 3 retries from 50ms.
func WithRetry(retries int, backoff time.Duration) Option {
	return func(c *Client) {
		c.retries = retries
		c.backoff = backoff
	}
}

// WithHeader stamps a default header on every request the client issues —
// how the cluster layer marks forwarded requests (the forwarding-depth
// header) without threading headers through every call site.
func WithHeader(key, value string) Option {
	return func(c *Client) {
		if c.headers == nil {
			c.headers = make(http.Header)
		}
		c.headers.Set(key, value)
	}
}

// New returns a client for the service at baseURL (e.g.
// "http://localhost:8080").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:    strings.TrimRight(baseURL, "/"),
		doer:    http.DefaultClient,
		retries: 3,
		backoff: 50 * time.Millisecond,
		sleep:   sleepCtx,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// NewInProcess returns a client mounted directly on h — typically
// service.New(cfg).Handler() — with no network between them. Responses are
// byte-identical to what the daemon would serve, which is how the bundled
// CLIs guarantee CLI output ≡ HTTP output.
func NewInProcess(h http.Handler, opts ...Option) *Client {
	return New("http://in-process", append([]Option{WithHTTPClient(handlerTransport{h})}, opts...)...)
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// APIError is a non-2xx response decoded from the service's error
// envelope. Code is empty when the body was not an envelope; Message then
// holds the raw body.
type APIError struct {
	Status  int    // HTTP status
	Code    string // machine-readable code (api.ErrCode…)
	Message string
}

func (e *APIError) Error() string {
	if e.Code == "" {
		return fmt.Sprintf("service: %d: %s", e.Status, e.Message)
	}
	return fmt.Sprintf("service: %d %s: %s", e.Status, e.Code, e.Message)
}

// do issues one request with the retry loop. body may be nil for GETs.
// Every attempt resends the same bytes; 429s are retried with exponential
// backoff (safe: the service is memoized by spec hash, so duplicates are
// cache hits), everything else surfaces immediately.
func (c *Client) do(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	return c.withRetry(ctx, func() ([]byte, error) {
		return c.attempt(ctx, method, path, body)
	})
}

// doHeader is do, additionally returning the response headers of the
// attempt that succeeded — how callers obtain the X-Request-Id the server
// assigned (the handle for GET /v1/trace/{id}).
func (c *Client) doHeader(ctx context.Context, method, path string, body []byte) ([]byte, http.Header, error) {
	var hdr http.Header
	data, err := c.withRetry(ctx, func() ([]byte, error) {
		b, h, err := c.attemptHeader(ctx, method, path, body)
		hdr = h
		return b, err
	})
	return data, hdr, err
}

// withRetry runs attempt under the client's single retry policy: up to
// retries additional tries after a 429, sleeping backoff, 2·backoff, …
// between them. It is the ONE place the policy lives — the per-request
// path (do) and the batching transport's per-call path (Batcher.Do) both
// go through it, so they can never drift and a call is retried at exactly
// one level.
func (c *Client) withRetry(ctx context.Context, attempt func() ([]byte, error)) ([]byte, error) {
	for n := 0; ; n++ {
		resp, err := attempt()
		if err == nil {
			return resp, nil
		}
		var apiErr *APIError
		if !asAPIError(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests || n >= c.retries {
			return nil, err
		}
		if serr := c.sleep(ctx, c.backoff<<n); serr != nil {
			return nil, serr
		}
	}
}

func asAPIError(err error, dst **APIError) bool {
	if e, ok := err.(*APIError); ok {
		*dst = e
		return true
	}
	return false
}

// attempt issues exactly one request.
func (c *Client) attempt(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	data, _, err := c.attemptHeader(ctx, method, path, body)
	return data, err
}

// attemptHeader issues exactly one request and returns the response
// headers alongside the body (headers are returned even on a non-2xx).
func (c *Client) attemptHeader(ctx context.Context, method, path string, body []byte) ([]byte, http.Header, error) {
	var r io.Reader
	if body != nil {
		r = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, r)
	if err != nil {
		return nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for key, vals := range c.headers {
		req.Header[key] = vals
	}
	resp, err := c.doer.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.Header, fmt.Errorf("client: reading response body: %w", err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, resp.Header, decodeError(resp.StatusCode, data)
	}
	return data, resp.Header, nil
}

// decodeError turns a non-2xx body into an *APIError: the envelope's code
// and message, or the raw text when the body is not an envelope.
func decodeError(status int, body []byte) *APIError {
	var env api.ErrorResponse
	if err := json.Unmarshal(body, &env); err != nil || env.Err.Message == "" {
		return &APIError{Status: status, Message: strings.TrimSpace(string(body))}
	}
	return &APIError{Status: status, Code: env.Err.Code, Message: env.Err.Message}
}

// requestJSON issues one request with raw bytes (nil for GETs) and
// decodes the response into *T.
func requestJSON[T any](ctx context.Context, c *Client, method, path string, body []byte) (*T, error) {
	raw, err := c.do(ctx, method, path, body)
	if err != nil {
		return nil, err
	}
	var out T
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("client: decoding %s response: %w", path, err)
	}
	return &out, nil
}

// postJSON marshals req, POSTs it, and decodes the response into *T.
func postJSON[T any](ctx context.Context, c *Client, path string, req any) (*T, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("client: encoding request: %w", err)
	}
	return requestJSON[T](ctx, c, http.MethodPost, path, body)
}
