package client

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"stochsched/pkg/api"
)

// ---------------------------------------------------------------------------
// Index endpoint. The typed calls speak POST /v1/index; IndexRaw passes
// any index body through untouched.

// Gittins computes the Gittins indices of one bandit project
// (kind "bandit" on /v1/index).
func (c *Client) Gittins(ctx context.Context, spec *api.Bandit) (*api.GittinsResponse, error) {
	return postJSON[api.GittinsResponse](ctx, c, "/v1/index",
		&api.IndexRequest{Kind: "bandit", Bandit: spec})
}

// Whittle computes the Whittle indices of one restless project
// (kind "restless" on /v1/index).
func (c *Client) Whittle(ctx context.Context, req *api.WhittleRequest) (*api.WhittleResponse, error) {
	return postJSON[api.WhittleResponse](ctx, c, "/v1/index",
		&api.IndexRequest{Kind: "restless", Restless: req})
}

// Priority computes an index-rule priority order (kinds "mg1" and "batch"
// on /v1/index). A PriorityRequest is already a valid /v1/index envelope,
// so it is sent as-is.
func (c *Client) Priority(ctx context.Context, req *api.PriorityRequest) (*api.PriorityResponse, error) {
	return postJSON[api.PriorityResponse](ctx, c, "/v1/index", req)
}

// IndexRaw POSTs a raw /v1/index body and returns the raw response bytes —
// the escape hatch for kinds this SDK has no typed shape for.
func (c *Client) IndexRaw(ctx context.Context, body []byte) ([]byte, error) {
	return c.do(ctx, http.MethodPost, "/v1/index", body)
}

// ---------------------------------------------------------------------------
// Simulate.

// Simulate runs one Monte Carlo evaluation through POST /v1/simulate and
// verifies the response's spec_hash against the hash computed locally from
// the request — the client-side half of the service's idempotency
// contract. The response is byte-stable across the request's parallel knob
// and across retries.
func (c *Client) Simulate(ctx context.Context, req *api.SimulateRequest) (*api.SimulateResponse, error) {
	return verifySimulate(req, func(r *api.SimulateRequest) (*api.SimulateResponse, error) {
		return postJSON[api.SimulateResponse](ctx, c, "/v1/simulate", r)
	})
}

// verifySimulate wraps a simulate transport (single-call or batched) with
// the shared spec-hash integrity check, so the two paths can never
// diverge on the idempotency contract.
func verifySimulate(req *api.SimulateRequest, send func(*api.SimulateRequest) (*api.SimulateResponse, error)) (*api.SimulateResponse, error) {
	want, err := req.SpecHash()
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	resp, err := send(req)
	if err != nil {
		return nil, err
	}
	if resp.SpecHash != want {
		return nil, fmt.Errorf("client: simulate response spec_hash %.12s… does not match request hash %.12s…", resp.SpecHash, want)
	}
	return resp, nil
}

// SimulateRaw POSTs a raw /v1/simulate body and returns the raw response
// bytes, preserving them exactly (the CLI's passthrough path).
func (c *Client) SimulateRaw(ctx context.Context, body []byte) ([]byte, error) {
	return c.do(ctx, http.MethodPost, "/v1/simulate", body)
}

// SimulateRawTraced is SimulateRaw, additionally returning the
// X-Request-Id the server stamped on the response — the handle Trace
// resolves into the request's span tree.
func (c *Client) SimulateRawTraced(ctx context.Context, body []byte) ([]byte, string, error) {
	data, hdr, err := c.doHeader(ctx, http.MethodPost, "/v1/simulate", body)
	if err != nil {
		return nil, "", err
	}
	return data, hdr.Get("X-Request-Id"), nil
}

// ---------------------------------------------------------------------------
// Batch.

// Batch multiplexes up to the server's item limit of index/simulate calls
// into one POST /v1/batch round trip. Items execute concurrently server-side
// and come back in item order with per-item status (see api.BatchResponse).
// Batcher layers automatic coalescing on top of this call.
func (c *Client) Batch(ctx context.Context, req *api.BatchRequest) (*api.BatchResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("client: encoding request: %w", err)
	}
	raw, err := c.do(ctx, http.MethodPost, "/v1/batch", body)
	if err != nil {
		return nil, err
	}
	return decodeBatchResponse(raw, len(req.Items))
}

// batchAttempt is Batch without the transport-level retry loop — the
// batching transport's flush path, whose calls carry their own per-call
// retry budgets.
func (c *Client) batchAttempt(ctx context.Context, req *api.BatchRequest) (*api.BatchResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("client: encoding request: %w", err)
	}
	raw, err := c.attempt(ctx, http.MethodPost, "/v1/batch", body)
	if err != nil {
		return nil, err
	}
	return decodeBatchResponse(raw, len(req.Items))
}

func decodeBatchResponse(raw []byte, items int) (*api.BatchResponse, error) {
	var resp api.BatchResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, fmt.Errorf("client: decoding /v1/batch response: %w", err)
	}
	if len(resp.Items) != items {
		return nil, fmt.Errorf("client: batch answered %d results for %d items", len(resp.Items), items)
	}
	return &resp, nil
}

// ---------------------------------------------------------------------------
// Sweeps.

// SweepSubmit submits an asynchronous parameter sweep (POST /v1/sweep) and
// returns the accepted job status (202).
func (c *Client) SweepSubmit(ctx context.Context, req *api.SweepRequest) (*api.SweepStatus, error) {
	return postJSON[api.SweepStatus](ctx, c, "/v1/sweep", req)
}

// SweepSubmitRaw submits a raw sweep body, preserving it exactly.
func (c *Client) SweepSubmitRaw(ctx context.Context, body []byte) (*api.SweepStatus, error) {
	return requestJSON[api.SweepStatus](ctx, c, http.MethodPost, "/v1/sweep", body)
}

// SweepStatus fetches a job's status (GET /v1/sweep/{id}).
func (c *Client) SweepStatus(ctx context.Context, id string) (*api.SweepStatus, error) {
	return requestJSON[api.SweepStatus](ctx, c, http.MethodGet, "/v1/sweep/"+id, nil)
}

// SweepWait polls the status endpoint every poll (default 20ms) until the
// job leaves the running state or ctx is done.
func (c *Client) SweepWait(ctx context.Context, id string, poll time.Duration) (*api.SweepStatus, error) {
	if poll <= 0 {
		poll = 20 * time.Millisecond
	}
	for {
		st, err := c.SweepStatus(ctx, id)
		if err != nil {
			return nil, err
		}
		if st.State != api.SweepRunning {
			return st, nil
		}
		if err := c.sleep(ctx, poll); err != nil {
			return nil, err
		}
	}
}

// SweepResults streams a job's NDJSON comparison rows
// (GET /v1/sweep/{id}/results) and returns the raw stream — byte-identical
// across sweep and simulate parallelism. On a running job the call blocks
// until the stream completes (long-poll); cancel ctx to stop early.
func (c *Client) SweepResults(ctx context.Context, id string) ([]byte, error) {
	return c.do(ctx, http.MethodGet, "/v1/sweep/"+id+"/results", nil)
}

// SweepRows fetches and decodes the results stream into typed rows, in
// grid order. Callers that already hold the raw stream should decode it
// locally with api.DecodeSweepRows instead of fetching twice.
func (c *Client) SweepRows(ctx context.Context, id string) ([]api.SweepRow, error) {
	raw, err := c.SweepResults(ctx, id)
	if err != nil {
		return nil, err
	}
	return api.DecodeSweepRows(raw)
}

// SweepCancel requests cancellation (DELETE /v1/sweep/{id}) and returns
// the status at cancel time; the job settles asynchronously.
func (c *Client) SweepCancel(ctx context.Context, id string) (*api.SweepStatus, error) {
	return requestJSON[api.SweepStatus](ctx, c, http.MethodDelete, "/v1/sweep/"+id, nil)
}

// ---------------------------------------------------------------------------
// Stats and liveness.

// Stats fetches the service counters (GET /v1/stats).
func (c *Client) Stats(ctx context.Context) (*api.StatsResponse, error) {
	return requestJSON[api.StatsResponse](ctx, c, http.MethodGet, "/v1/stats", nil)
}

// Trace fetches the retained span tree of a recent request
// (GET /v1/trace/{id}); id is the X-Request-Id its response carried.
// Traces survive for the server's last trace-buffer requests — fetch
// promptly or receive a 404.
func (c *Client) Trace(ctx context.Context, id string) (*api.TraceResponse, error) {
	return requestJSON[api.TraceResponse](ctx, c, http.MethodGet, "/v1/trace/"+id, nil)
}

// Healthz reports whether the service answers its liveness probe.
func (c *Client) Healthz(ctx context.Context) error {
	_, err := c.do(ctx, http.MethodGet, "/healthz", nil)
	return err
}

// Readyz reports whether the service answers its readiness probe: a 503
// (admission saturated, or state restore in progress) surfaces as an
// *APIError. The cluster layer's peer health probes go through here.
func (c *Client) Readyz(ctx context.Context) error {
	_, err := c.attempt(ctx, http.MethodGet, "/readyz", nil)
	return err
}

// PostRaw POSTs a raw body to an arbitrary service path and returns the
// raw response bytes exactly as served — the path-generic passthrough the
// cluster layer forwards non-owned requests through (the per-endpoint raw
// methods above are fixed-path conveniences over the same machinery).
func (c *Client) PostRaw(ctx context.Context, path string, body []byte) ([]byte, error) {
	return c.do(ctx, http.MethodPost, path, body)
}
