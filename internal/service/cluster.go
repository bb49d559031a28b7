package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"stochsched/internal/cluster"
	"stochsched/internal/obs"
	"stochsched/internal/sweep"
	"stochsched/pkg/api"
	"stochsched/pkg/client"
)

// This file is the serving layer's cluster integration: relaying requests
// whose cache key another peer owns (with the depth-1 forwarded guard and
// degraded-mode local fallback), and the snapshot/restore surface the
// daemon persists through internal/cluster.Store. The ring itself, the
// per-peer clients, and the health probing live in internal/cluster.

// forward routes one parsed request on the ring and, when a healthy remote
// peer owns its cache key, relays body there under a "forward" span. It
// reports whether the request was handled remotely — false means "serve
// locally": single-node deployments, self-owned keys, and transport
// failures against an owner that just went down (Forward has marked it;
// this request falls back rather than erroring). When handled, either
// resp is the owner's response body or apiErr is the error the owner
// answered, already counted as shed or as an error. root, when non-nil,
// is annotated with the cluster=fallback and outcome=forward facts.
func (s *Server) forward(ctx context.Context, root *obs.Span, m *EndpointMetrics, path, key string, body []byte) (resp []byte, apiErr *client.APIError, handled bool) {
	if s.cluster == nil {
		return nil, nil, false
	}
	d := s.cluster.Route(key)
	if !d.Forward {
		if d.Fallback {
			root.Annotate("cluster", "fallback")
		}
		return nil, nil, false
	}
	fctx, fsp := obs.Start(ctx, "forward")
	fsp.Annotate("peer", d.Peer)
	resp, err := s.cluster.Forward(fctx, d.Peer, path, body)
	fsp.End()
	if err != nil {
		if !errors.As(err, &apiErr) {
			// Transport failure: the peer is marked down; serve locally.
			// The response is byte-identical either way — that is the
			// determinism contract degraded mode rests on.
			root.Annotate("cluster", "fallback")
			return nil, nil, false
		}
		if apiErr.Status == http.StatusTooManyRequests {
			m.shed.Add(1)
		} else {
			m.errors.Add(1)
		}
	}
	root.Annotate("outcome", "forward")
	return resp, apiErr, true
}

// maybeForward is forward for a single-call endpoint: unless the request
// is itself a forward (the depth-1 loop guard), it writes the owner's
// response, or relays its error envelope verbatim (writeError reproduces
// the identical envelope, so a forwarded rejection is byte-identical to a
// local one). It reports whether the response has been written.
func (s *Server) maybeForward(w http.ResponseWriter, r *http.Request, m *EndpointMetrics, path, key string, body []byte) bool {
	if r.Header.Get(cluster.ForwardHeader) != "" {
		return false
	}
	resp, apiErr, handled := s.forward(r.Context(), obs.RootSpan(r.Context()), m, path, key, body)
	switch {
	case !handled:
		return false
	case apiErr != nil:
		writeError(w, apiErr.Status, apiErr.Code, apiErr.Message)
	default:
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Cache", "forward")
		w.Write(resp)
	}
	return true
}

// forwardItem is forward for one /v1/batch item (the caller applies the
// loop guard to the whole batch), rendered as a per-item result. handled
// false means "serve the item locally".
func (s *Server) forwardItem(ctx context.Context, m *EndpointMetrics, path, key string, body []byte) (api.BatchItemResult, bool) {
	resp, apiErr, handled := s.forward(ctx, nil, m, path, key, body)
	switch {
	case !handled:
		return api.BatchItemResult{}, false
	case apiErr != nil:
		return batchItemError(apiErr.Status, apiErr.Code, apiErr.Message), true
	}
	return api.BatchItemResult{Status: http.StatusOK, Body: resp}, true
}

// ---------------------------------------------------------------------------
// Snapshot / restore

// serverState is the on-disk payload internal/cluster.Store wraps in its
// versioned, checksummed envelope: the response cache and the sweep job
// store, the two stores whose loss makes a restart cold.
type serverState struct {
	SavedUnixNs int64               `json:"saved_unix_ns"`
	Cache       CacheSnapshot       `json:"cache"`
	Sweeps      sweep.StoreSnapshot `json:"sweeps"`
}

// SnapshotState encodes the server's durable state. Callable at any time;
// each store is captured under its own locks (per-store consistent, not
// globally atomic — fine for caches of pure functions).
func (s *Server) SnapshotState() ([]byte, error) {
	return json.Marshal(serverState{
		SavedUnixNs: time.Now().UnixNano(),
		Cache:       s.cache.Snapshot(),
		Sweeps:      s.sweeps.SnapshotStore(),
	})
}

// RestoreState decodes data (a SnapshotState payload) and installs it:
// cached responses become warm hits, terminal sweep jobs become fetchable
// again, and the eviction/lifetime counters resume. Live entries win over
// restored ones, so restoring into a serving node is safe (the daemon
// restores at boot, before readiness).
func (s *Server) RestoreState(data []byte) error {
	var st serverState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("service: decoding state snapshot: %w", err)
	}
	s.cache.Restore(st.Cache)
	s.sweeps.RestoreStore(st.Sweeps)
	return nil
}

// SetRestoring flips the /readyz restore gate: while true, readiness
// answers 503 so load balancers and cluster peers do not route to a node
// still cold-loading its snapshot. The daemon sets it around its boot
// restore; /healthz is unaffected (the process is alive throughout).
func (s *Server) SetRestoring(v bool) { s.restoring.Store(v) }
