package scenario

import (
	"fmt"
	"sort"
	"strings"

	"stochsched/internal/spec"
	"stochsched/pkg/api"
)

// Indexer is the optional analytic capability of a Scenario: closed-form
// index/priority computation for the kind, served by POST /v1/index. A
// scenario that implements it becomes index-servable with no
// serving-layer edits — the same registry-resolution contract Simulate
// has.
//
// Unlike Simulate, index computation takes no seed, replications, or pool:
// it is deterministic linear algebra, so the result is a pure function of
// the payload alone. The payload is the kind's field of api.IndexRequest,
// whose shape is index-specific — e.g. the bandit kind simulates a
// BanditSim but indexes a bare Bandit project.
type Indexer interface {
	// IndexFamily returns the index family this kind belongs to —
	// "gittins", "whittle", "priority", or the kind's own name. It
	// prefixes the cache key, so its value is part of the key format that
	// ring ownership and state snapshots depend on.
	IndexFamily() string

	// IndexHash returns the canonical spec hash of a parsed payload — the
	// memoization key suffix and the spec_hash echoed in the response. The
	// encoding mirrors the pre-v2 endpoint bodies (e.g. the bandit hash
	// covers the bare project, the mg1/batch hash the {"kind":…,"mg1":…}
	// priority envelope), so golden response bodies and cache keys stay
	// stable.
	IndexHash(payload any) string

	// ComputeIndex fully validates the payload and computes the response
	// value (a pointer to one of pkg/api's index response types), echoing
	// hash — the caller's memoized IndexHash of the same payload — as the
	// response's spec_hash so it is computed exactly once per request.
	// Spec errors are wrapped in BadSpec.
	ComputeIndex(payload any, hash string) (any, error)
}

// IndexRequest is a parsed /v1/index request: the kind plus the resolved
// scenario, its index capability, and the typed payload.
type IndexRequest struct {
	Kind     string
	Scenario Scenario
	Indexer  Indexer
	Payload  any

	hash string // memoized Hash()
}

// Hash returns the canonical spec hash of the request (see
// Indexer.IndexHash).
func (r *IndexRequest) Hash() string {
	if r.hash == "" {
		r.hash = r.Indexer.IndexHash(r.Payload)
	}
	return r.hash
}

// Family returns the request's index family (see Indexer.IndexFamily).
func (r *IndexRequest) Family() string { return r.Indexer.IndexFamily() }

// Compute runs the index computation on the parsed payload.
func (r *IndexRequest) Compute() (any, error) { return r.Indexer.ComputeIndex(r.Payload, r.Hash()) }

// lookupIndexer resolves a kind that carries the index capability.
func lookupIndexer(kind string) (Scenario, Indexer, error) {
	sc, ok := Lookup(kind)
	if !ok {
		return nil, nil, fmt.Errorf("unknown index kind %q (want %s)", kind, strings.Join(IndexKinds(), ", "))
	}
	idx, ok := sc.(Indexer)
	if !ok {
		return nil, nil, fmt.Errorf("kind %q has no analytic index (want %s)", kind, strings.Join(IndexKinds(), ", "))
	}
	return sc, idx, nil
}

// ParseIndexRequest strictly decodes a /v1/index body into its wire type,
// api.IndexRequest: a kind field plus exactly one payload field named after
// the kind, dispatched through the scenario registry — the same envelope
// contract as /v1/simulate.
func ParseIndexRequest(body []byte) (*IndexRequest, error) {
	var w api.IndexRequest
	if err := spec.DecodeStrict(body, &w); err != nil {
		return nil, err
	}
	sc, idx, err := lookupIndexer(w.Kind)
	if err != nil {
		return nil, err
	}
	payload, err := w.Payload()
	if err != nil {
		return nil, err
	}
	return &IndexRequest{Kind: w.Kind, Scenario: sc, Indexer: idx, Payload: payload}, nil
}

// IndexKinds returns every registered kind that carries the index
// capability, sorted.
func IndexKinds() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for k, sc := range registry {
		if _, ok := sc.(Indexer); ok {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
