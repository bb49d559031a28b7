// Package scenario is the pluggable model layer of the simulation service:
// one registered Scenario per simulate kind, resolved by every consumer —
// the HTTP service (internal/service), the sweep engine (internal/sweep),
// and the CLIs — through the same registry, so adding a simulate kind is a
// single file in this package plus its registration line instead of a
// parallel switch ladder in four layers.
//
// A Scenario owns everything kind-specific about POST /v1/simulate:
//
//   - the wire name (the request's "kind" value, which is also the name of
//     the payload field and of the result fragment in the response body);
//   - strict payload parsing and request-shape checks (cheap, run on every
//     request including cache hits);
//   - full spec validation (the expensive half, run once per computation
//     and eagerly at sweep submission);
//   - per-replication work accounting, so the serving layer can enforce one
//     work budget across all kinds;
//   - policy enumeration and the dot-path where sweeps substitute policy
//     values, so any kind is sweepable without the sweep layer knowing it;
//   - the simulation itself, run on an internal/engine pool so the result
//     is byte-identical at every parallelism level for a fixed seed; and
//   - metric extraction from an encoded response body, which is how sweep
//     rows compare policies without decoding kind-specific shapes.
//
// Scenarios register themselves in an init function; importing the package
// is enough to populate the registry.
package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"stochsched/internal/engine"
	"stochsched/internal/rng"
	"stochsched/internal/stats"
	"stochsched/pkg/api"
)

// Scenario is one pluggable simulate kind. Implementations are stateless
// values; the payload returned by ParsePayload is threaded back into the
// other methods, which type-assert it.
type Scenario interface {
	// Kind returns the wire name: the request's "kind" value, the name of
	// the payload field beside it, and the key of the result fragment in
	// the response body.
	Kind() string

	// ParsePayload strictly decodes the kind's payload field (unknown
	// fields are errors) and enforces the request-shape invariants that are
	// cheap enough to run on every request. Spec-level validation is
	// deferred to Validate so cache hits never pay for it.
	ParsePayload(raw json.RawMessage) (any, error)

	// Validate fully validates a parsed payload — spec consistency,
	// stability, policy membership — without executing it. Sweep submission
	// runs it eagerly on every expanded cell; the serving layer runs it
	// implicitly inside Simulate.
	Validate(payload any) error

	// ReplicationWork estimates the simulated work units of ONE
	// replication of the payload (a horizon, an episode scale, a job
	// count). The serving layer multiplies by the replication count and
	// enforces its work budget uniformly across kinds.
	ReplicationWork(payload any) float64

	// Policies enumerates the policy values the payload supports, in a
	// stable order, highest-fidelity first.
	Policies(payload any) []string

	// PolicyPath returns the dot-path inside the request body where sweeps
	// substitute Policies values (e.g. "mg1.policy").
	PolicyPath() string

	// Simulate runs the scenario on the pool and returns the kind-keyed
	// result fragment of the response body plus the replication count
	// actually spent (reps in fixed-budget mode; the sequential stopping
	// rule's count in target-precision mode). The fragment must be plain
	// data (no maps) so its encoding is canonical, and must be a pure
	// function of (payload, seed, reps, opts) — never of the pool size.
	// Spec errors discovered here are wrapped in BadSpec.
	//
	// When opts.Precision is set, reps is ignored and the implementation
	// runs batched rounds until the kind's primary metric meets the target
	// (or the budget is spent); rounds continue one substream sequence, so
	// the result is byte-identical to a fixed-budget run of the same total
	// count. When opts.Antithetic is set, implementations whose sampling
	// is entirely inverse-CDF-capable pair substreams antithetically;
	// others reject with BadSpec.
	Simulate(ctx context.Context, pool *engine.Pool, payload any, seed uint64, reps int, opts SimOpts) (any, int, error)

	// Outcome extracts the sweep comparison metric from an encoded
	// /v1/simulate response body of this kind. policy is the sweep's
	// substituted policy value ("" for a base-as-is cell; implementations
	// default it from the body).
	Outcome(policy string, resp []byte) (Outcome, error)
}

// SimOpts carries the request-envelope execution knobs into Simulate: the
// target-precision block and the antithetic toggle. The zero value is the
// legacy fixed-budget independent-replications mode.
type SimOpts struct {
	// Precision, when non-nil, switches to target-precision mode: reps is
	// ignored and replication rounds run until the primary metric's CI is
	// tight enough or Precision.MaxReplications is spent.
	Precision *engine.Precision
	// Antithetic pairs substreams antithetically (2k+1 mirrors 2k). Kinds
	// whose sampling is not entirely inverse-CDF-capable reject it.
	Antithetic bool
}

// stream builds the request's root substream source: rng.New(seed), with
// antithetic pairing armed when requested. Every Simulate implementation
// derives its replication substreams from exactly one call to this.
func (o SimOpts) stream(seed uint64) *rng.Stream {
	s := rng.New(seed)
	if o.Antithetic {
		s.Antithetic()
	}
	return s
}

// errAntithetic is the uniform rejection for kinds (or spec variants) whose
// sampling involves categorical or acceptance-based draws that antithetic
// mirroring cannot pair meaningfully.
func errAntithetic(kind, why string) error {
	return BadSpec{fmt.Errorf("kind %s does not support antithetic replications: %s", kind, why)}
}

// eventWork is the work estimate of one queueing (DES) replication: the
// events it fires over the horizon — an arrival and a service completion
// per job at the effective class rates, plus perTime further events per
// unit time (polling's switchovers). Kinds charge a spec whose rates
// cannot be derived nothing: rejecting it is Validate's job, not the
// budget's.
func eventWork(horizon float64, rates []float64, perTime float64) float64 {
	w := perTime
	for _, r := range rates {
		w += 2 * r
	}
	return horizon * w
}

// classRates returns the external arrival rates of a class list — the
// effective rates of a system without routing.
func classRates(classes []api.Class) []float64 {
	rates := make([]float64, len(classes))
	for i, c := range classes {
		rates[i] = c.Rate
	}
	return rates
}

// runReplications is the shared replication driver every Simulate
// implementation delegates its budget handling to. In fixed mode it runs one
// round of exactly reps replications. In target-precision mode it runs
// engine.AdaptiveRounds, re-checking the stopping rule on the primary
// accumulator after each round. round(ctx, n) must fold n FURTHER
// replications into the implementation's persistent accumulators, continuing
// the same substream source — which makes the adaptive result byte-identical
// to a fixed-budget run of the returned count.
func runReplications(ctx context.Context, opts SimOpts, reps int, round func(ctx context.Context, n int) error, primary func() *stats.Running) (int, error) {
	if opts.Precision == nil {
		if err := round(ctx, reps); err != nil {
			return 0, err
		}
		return reps, nil
	}
	pr := *opts.Precision
	return engine.AdaptiveRounds(ctx, pr,
		func(ctx context.Context, _, n int) error { return round(ctx, n) },
		func() bool { return pr.Met(primary()) })
}

// Outcome is one cell's contribution to a sweep comparison row: the named
// metric, its orientation, and the replication estimate.
type Outcome struct {
	// Policy labels the cell in comparison rows.
	Policy string
	// SpecHash is the cell's canonical request hash, echoed from the body.
	SpecHash string
	// Metric names the compared quantity ("cost_rate", "reward",
	// "makespan", …).
	Metric string
	// HigherIsBetter orients the comparison: regret is mean − best for
	// cost-like metrics and best − mean for reward-like ones.
	HigherIsBetter bool
	// Mean and CI95 are the replication mean and 95% CI half-width.
	Mean, CI95 float64
	// ReplicationsUsed is the sequential stopping rule's spend, decoded
	// generically from the response envelope by the sweep layer (zero for
	// fixed-budget cells).
	ReplicationsUsed int64
}

// BadSpec marks an error as the client's fault — a malformed or infeasible
// spec discovered after parsing. The serving layer maps it to HTTP 400.
type BadSpec struct{ Err error }

func (e BadSpec) Error() string { return e.Err.Error() }
func (e BadSpec) Unwrap() error { return e.Err }

// ---------------------------------------------------------------------------
// Registry

var (
	regMu    sync.RWMutex
	registry = make(map[string]Scenario)
)

// Register adds a scenario to the registry. It panics on a duplicate kind:
// registration happens in init functions, where a collision is a programming
// error, not a runtime condition.
func Register(s Scenario) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[s.Kind()]; dup {
		panic("scenario: duplicate registration of kind " + s.Kind())
	}
	registry[s.Kind()] = s
}

// Lookup resolves a kind name.
func Lookup(kind string) (Scenario, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	s, ok := registry[kind]
	return s, ok
}

// Kinds returns every registered kind name, sorted.
func Kinds() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
