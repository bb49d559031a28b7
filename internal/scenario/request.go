package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"stochsched/internal/engine"
	"stochsched/internal/obs"
	"stochsched/internal/spec"
	"stochsched/pkg/api"
)

// Limits carries the serving layer's request-level budgets into envelope
// parsing. Zero or negative values disable the corresponding check (the
// serving layer always sets both; the in-process CLI disables them).
type Limits struct {
	// MaxReplications bounds the replication count of one request.
	MaxReplications int
	// MaxSimWork bounds ReplicationWork × replications.
	MaxSimWork float64
}

// Request is a parsed /v1/simulate request: the kind-independent envelope
// plus the resolved scenario and its typed payload.
type Request struct {
	Kind         string
	Seed         uint64
	Replications int
	Parallel     int
	Scenario     Scenario
	Payload      any
	// Precision, when non-nil, selects target-precision mode (mutually
	// exclusive with Replications; Replications is 0). Antithetic opts the
	// replications into antithetic pairing.
	Precision  *api.Precision
	Antithetic bool

	hash string // memoized Hash(); requests are not shared across goroutines until computed
}

// enginePrecision converts the wire precision block to the engine's
// stopping-rule parameters (nil in fixed-budget mode).
func (r *Request) enginePrecision() *engine.Precision {
	if r.Precision == nil {
		return nil
	}
	return &engine.Precision{
		TargetRelCI:     r.Precision.TargetCI95,
		Confidence:      r.Precision.Confidence,
		MaxReplications: r.Precision.MaxReplications,
	}
}

// BudgetReplications is the replication count the work budget multiplies:
// the fixed count, or the precision ceiling in target-precision mode.
func (r *Request) BudgetReplications() int {
	if r.Precision != nil {
		return r.Precision.MaxReplications
	}
	return r.Replications
}

// ParseRequest strictly decodes a /v1/simulate body into its wire type,
// api.SimulateRequest: the envelope fields (kind, seed, replications,
// precision, antithetic, parallel), exactly one payload field named after
// the kind, no unknown fields at any depth, no trailing data. Request-level
// invariants — replication and parallelism ranges, the work budget, the
// kind's cheap payload shape checks — are enforced here so every consumer
// (HTTP handler, sweep cell validation, the CLI) agrees on what a
// well-formed request is. Spec-level validation is NOT performed; call
// req.Scenario.Validate(req.Payload) for that.
func ParseRequest(body []byte, lim Limits) (*Request, error) {
	var w api.SimulateRequest
	if err := spec.DecodeStrict(body, &w); err != nil {
		return nil, err
	}
	req := Request{
		Kind:         w.Kind,
		Seed:         w.Seed,
		Replications: w.Replications,
		Parallel:     w.Parallel,
		Precision:    w.Precision,
		Antithetic:   w.Antithetic,
	}

	if req.Precision != nil {
		// Target-precision mode: the fixed budget must be absent (zero), and
		// the stopping-rule parameters must be well-formed. The budget
		// checks below run against the precision ceiling.
		if req.Replications != 0 {
			return nil, fmt.Errorf("replications and precision are mutually exclusive: set exactly one")
		}
		if err := req.enginePrecision().Validate(); err != nil {
			return nil, fmt.Errorf("field \"precision\": %w", err)
		}
	}
	// A budget needs two replications: every response reports a 95%
	// confidence interval, which one sample cannot give (its half-width is
	// +Inf, and JSON cannot encode that). The engine's precision
	// validation above holds the ceiling to the same floor.
	budgetReps := req.BudgetReplications()
	if lim.MaxReplications > 0 && budgetReps > lim.MaxReplications {
		return nil, fmt.Errorf("replications %d outside [2, %d]", budgetReps, lim.MaxReplications)
	}
	if budgetReps < 2 {
		return nil, fmt.Errorf("replications %d must be at least 2", budgetReps)
	}
	if req.Parallel < 0 || req.Parallel > 1024 {
		return nil, fmt.Errorf("parallel %d outside [0, 1024]", req.Parallel)
	}

	sc, ok := Lookup(req.Kind)
	if !ok {
		return nil, fmt.Errorf("unknown simulate kind %q (want %s)", req.Kind, strings.Join(Kinds(), ", "))
	}
	req.Scenario = sc

	payload, err := w.Payload()
	if err != nil {
		return nil, err
	}
	if err := sc.CheckPayload(payload); err != nil {
		return nil, err
	}
	req.Payload = payload

	if lim.MaxSimWork > 0 {
		// NaN-propagating comparison: a non-finite work estimate fails too.
		// In target-precision mode the budget is charged for the worst case
		// (the max_replications ceiling).
		if work := sc.ReplicationWork(payload) * float64(req.BudgetReplications()); !(work <= lim.MaxSimWork) {
			return nil, fmt.Errorf("work estimate per replication × replications = %g exceeds the work budget %g", work, lim.MaxSimWork)
		}
	}
	return &req, nil
}

// Hash returns the canonical content hash of the request with the
// parallelism knob excluded — the /v1/simulate memoization key and the
// spec_hash echoed in response bodies. The encoding is api.SimulateHash's
// fixed envelope ({"kind":…,"<kind>":…,"seed":…,"replications":…}), shared
// with the client SDK's SimulateRequest.SpecHash, so server keys, response
// hashes, and client-side idempotency tokens can never drift apart.
// Payload types are plain data (no maps), which keeps the encoding
// canonical.
func (r *Request) Hash() string {
	if r.hash != "" {
		return r.hash
	}
	h, err := api.SimulateHashOpts(r.Kind, r.Payload, r.Seed, r.Replications, r.Precision, r.Antithetic)
	if err != nil {
		// Payloads are plain data decoded from JSON; marshaling cannot
		// fail on anything ParseRequest accepts.
		panic(fmt.Sprintf("scenario: unhashable payload: %v", err))
	}
	r.hash = h
	return r.hash
}

// Run executes a parsed request on the pool and assembles the encoded
// response body: the kind-independent envelope (spec_hash, seed,
// replications) with the scenario's result fragment spliced in under the
// kind name, plus a trailing newline. The HTTP serving layer and the CLI
// both assemble through here, so they can never disagree about the
// response encoding — and neither needs a kind-specific response type.
func Run(ctx context.Context, req *Request, pool *engine.Pool) ([]byte, error) {
	// The "compute" span covers the Monte Carlo work, "encode" the response
	// assembly; both no-op when the context carries no trace (the CLI path).
	// Spans never feed back into the computation, so the body stays
	// byte-identical with tracing on or off.
	cctx, csp := obs.Start(ctx, "compute")
	opts := SimOpts{Precision: req.enginePrecision(), Antithetic: req.Antithetic}
	body, used, err := req.Scenario.Simulate(cctx, pool, req.Payload, req.Seed, req.Replications, opts)
	csp.End()
	if err != nil {
		return nil, err
	}
	// The replications member echoes the request's budget — the fixed count,
	// or the precision ceiling in target-precision mode, where the
	// additional replications_used member reports the stopping rule's spend.
	// Fixed-mode envelopes are byte-identical to the pre-precision encoding.
	var usedOut int64
	if req.Precision != nil {
		usedOut = int64(used)
	}
	_, esp := obs.Start(ctx, "encode")
	defer esp.End()
	env, err := json.Marshal(struct {
		SpecHash         string `json:"spec_hash"`
		Seed             uint64 `json:"seed"`
		Replications     int64  `json:"replications"`
		ReplicationsUsed int64  `json:"replications_used,omitempty"`
	}{req.Hash(), req.Seed, int64(req.BudgetReplications()), usedOut})
	if err != nil {
		return nil, err
	}
	frag, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	key, err := json.Marshal(req.Kind)
	if err != nil {
		return nil, err
	}
	out := append(env[:len(env)-1], ',')
	out = append(out, key...)
	out = append(out, ':')
	out = append(out, frag...)
	return append(out, '}', '\n'), nil
}
