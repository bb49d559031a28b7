package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"stochsched/internal/engine"
	"stochsched/internal/obs"
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

// fieldSet is a decoded JSON object whose fields are consumed one by one,
// so envelope parsers can name exactly the leftovers. Field lookup is
// exact-match first, then case-insensitive, mirroring encoding/json's
// struct-field matching so bodies the pre-registry strict decoder accepted
// keep parsing.
type fieldSet map[string]json.RawMessage

// parseFields strictly decodes body into a fieldSet (trailing data is an
// error).
func parseFields(body []byte) (fieldSet, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	var fields map[string]json.RawMessage
	if err := dec.Decode(&fields); err != nil {
		return nil, fmt.Errorf("parsing request: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("parsing request: trailing data after JSON value")
	}
	return fields, nil
}

// pop removes and returns the field named name.
func (f fieldSet) pop(name string) (json.RawMessage, bool) {
	if raw, ok := f[name]; ok {
		delete(f, name)
		return raw, true
	}
	for k, raw := range f {
		if strings.EqualFold(k, name) {
			delete(f, k)
			return raw, true
		}
	}
	return nil, false
}

// take pops and decodes one envelope field; an absent field leaves dst
// untouched.
func (f fieldSet) take(name string, dst any) error {
	raw, ok := f.pop(name)
	if !ok {
		return nil
	}
	if err := json.Unmarshal(raw, dst); err != nil {
		return fmt.Errorf("parsing request: field %q: %w", name, err)
	}
	return nil
}

// extras returns the remaining field names, quoted and sorted, for
// deterministic error messages.
func (f fieldSet) extras() string {
	extra := make([]string, 0, len(f))
	for name := range f {
		extra = append(extra, strconv.Quote(name))
	}
	sort.Strings(extra)
	return strings.Join(extra, ", ")
}

// popPayload pops the payload field named after kind and requires nothing
// else to remain: either the payload is missing or extra fields remain (a
// second kind's payload, or a field nothing knows).
func (f fieldSet) popPayload(kind string) (json.RawMessage, error) {
	raw, ok := f.pop(kind)
	if !ok || len(f) > 0 {
		if len(f) > 0 {
			return nil, fmt.Errorf("kind %s needs exactly the %s field (unexpected %s)", kind, kind, f.extras())
		}
		return nil, fmt.Errorf("kind %s needs exactly the %s field", kind, kind)
	}
	return raw, nil
}

// ParseRequest strictly decodes a /v1/simulate body: the envelope fields
// (kind, seed, replications, parallel), exactly one payload field named
// after the kind, no unknown fields, no trailing data. Request-level
// invariants — replication and parallelism ranges, the work budget — are
// enforced here so every consumer (HTTP handler, sweep cell validation, the
// CLI) agrees on what a well-formed request is. Spec-level validation is
// NOT performed; call req.Scenario.Validate(req.Payload) for that.
func ParseRequest(body []byte, lim Limits) (*Request, error) {
	fields, err := parseFields(body)
	if err != nil {
		return nil, err
	}

	var req Request
	if err := fields.take("kind", &req.Kind); err != nil {
		return nil, err
	}
	if err := fields.take("seed", &req.Seed); err != nil {
		return nil, err
	}
	repRaw, hasReps := fields.pop("replications")
	if hasReps {
		if err := json.Unmarshal(repRaw, &req.Replications); err != nil {
			return nil, fmt.Errorf("parsing request: field %q: %w", "replications", err)
		}
	}
	prRaw, hasPrecision := fields.pop("precision")
	if hasPrecision {
		var pr api.Precision
		if err := decodeStrictPayload(prRaw, &pr); err != nil {
			return nil, fmt.Errorf("field \"precision\": %w", err)
		}
		req.Precision = &pr
	}
	if err := fields.take("antithetic", &req.Antithetic); err != nil {
		return nil, err
	}
	if err := fields.take("parallel", &req.Parallel); err != nil {
		return nil, err
	}

	if hasPrecision {
		// Target-precision mode: the fixed budget must be absent, and the
		// stopping-rule parameters must be well-formed. The budget checks
		// below run against the precision ceiling.
		if hasReps {
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

	raw, err := fields.popPayload(req.Kind)
	if err != nil {
		return nil, err
	}
	payload, err := sc.ParsePayload(raw)
	if err != nil {
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
		// fail on anything ParsePayload accepts.
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

// decodeStrictPayload unmarshals raw into v, rejecting unknown fields and
// trailing garbage — the same strictness the envelope applies.
func decodeStrictPayload(raw json.RawMessage, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("parsing request: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("parsing request: trailing data after JSON value")
	}
	return nil
}
