package scenario

// The registry-wide conformance suite: every registered kind — current and
// future — is run through the same table of contract assertions, driven by
// the canonical bodies in scenariotest. A new kind inherits the whole
// suite by adding its Register() call and its scenariotest bodies; a kind
// missing a body fails here by construction.

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"stochsched/internal/engine"
	"stochsched/internal/scenario/scenariotest"
	"stochsched/pkg/api"
)

func TestConformance(t *testing.T) {
	for _, kind := range Kinds() {
		t.Run(kind, func(t *testing.T) {
			body := []byte(scenariotest.SimulateBody(kind, 7))
			if len(body) == 0 {
				t.Fatalf("kind %q has no canonical body in scenariotest — add one to register it fully", kind)
			}

			req, err := ParseRequest(body, Limits{})
			if err != nil {
				t.Fatalf("ParseRequest: %v", err)
			}
			if err := req.Scenario.Validate(req.Payload); err != nil {
				t.Fatalf("Validate: %v", err)
			}

			// ReplicationWork must be positive and finite: the work budget
			// and sweep cost accounting depend on it.
			work := req.Scenario.ReplicationWork(req.Payload)
			if !(work > 0) || math.IsInf(work, 0) {
				t.Fatalf("ReplicationWork = %v, want positive finite", work)
			}

			// Budget enforcement: a ceiling below the request's work must
			// reject at parse time (the serving layer's 400 path).
			tight := Limits{MaxSimWork: work * float64(req.Replications) / 2}
			if _, err := ParseRequest(body, tight); err == nil {
				t.Errorf("ParseRequest accepted a request exceeding MaxSimWork %g", tight.MaxSimWork)
			}

			// A fixed budget of one replication has no confidence interval
			// (a 1-sample CI95 is +Inf, which JSON cannot encode): it must
			// reject at parse time like every other out-of-range budget.
			one, err := api.SetNumber(body, "replications", 1)
			if err != nil {
				t.Fatalf("SetNumber(replications): %v", err)
			}
			if _, err := ParseRequest(one, Limits{}); err == nil {
				t.Error("ParseRequest accepted replications 1")
			}

			// Spec-hash stability: re-parsing the same bytes must give the
			// same canonical hash.
			req2, err := ParseRequest(body, Limits{})
			if err != nil {
				t.Fatalf("re-ParseRequest: %v", err)
			}
			if req.Hash() != req2.Hash() {
				t.Errorf("hash unstable across re-parse: %s vs %s", req.Hash(), req2.Hash())
			}

			// Determinism: parallel=1 and parallel=8 must produce
			// byte-identical bodies.
			ctx := context.Background()
			b1, err := Run(ctx, req, engine.NewPool(1))
			if err != nil {
				t.Fatalf("Run(parallel=1): %v", err)
			}
			b8, err := Run(ctx, req2, engine.NewPool(8))
			if err != nil {
				t.Fatalf("Run(parallel=8): %v", err)
			}
			if !bytes.Equal(b1, b8) {
				t.Errorf("parallel=1 and parallel=8 bodies differ:\n%s\n%s", b1, b8)
			}

			// Policy enumeration: non-empty, policy path rooted at the kind,
			// and every listed policy must survive a sweep-style substitution
			// (SetString at PolicyPath) through parse + validate.
			pols := req.Scenario.Policies(req.Payload)
			if len(pols) == 0 {
				t.Fatal("Policies() is empty")
			}
			path := req.Scenario.PolicyPath()
			if !strings.HasPrefix(path, kind+".") {
				t.Errorf("PolicyPath() = %q, want a path under %q", path, kind)
			}
			for _, pol := range pols {
				pb, err := api.SetString(body, path, pol)
				if err != nil {
					t.Fatalf("SetString(%q, %q): %v", path, pol, err)
				}
				pr, err := ParseRequest(pb, Limits{})
				if err != nil {
					t.Fatalf("policy %q: ParseRequest: %v", pol, err)
				}
				if err := pr.Scenario.Validate(pr.Payload); err != nil {
					t.Errorf("policy %q rejected by Validate: %v", pol, err)
				}
			}

			// Outcome round-trip: decoding the simulate body must echo the
			// spec hash and name a metric sweeps can rank on.
			out, err := req.Scenario.Outcome("", b1)
			if err != nil {
				t.Fatalf("Outcome: %v", err)
			}
			if out.SpecHash != req.Hash() {
				t.Errorf("Outcome.SpecHash = %s, want %s", out.SpecHash, req.Hash())
			}
			if out.Metric == "" || out.Policy == "" {
				t.Errorf("Outcome incomplete: metric=%q policy=%q", out.Metric, out.Policy)
			}

			idx, isIndexer := req.Scenario.(Indexer)
			indexBody := scenariotest.IndexBody(kind)
			if !isIndexer {
				if indexBody != "" {
					t.Fatalf("scenariotest has an index payload for %q but the kind has no Indexer", kind)
				}
				return
			}
			if indexBody == "" {
				t.Fatalf("kind %q has an Indexer but no canonical index payload in scenariotest", kind)
			}
			if idx.IndexFamily() == "" {
				t.Error("IndexFamily() is empty")
			}

			// Indexer hash/compute round-trip: stable hash across re-parse,
			// deterministic recomputation, spec_hash echoed in the response.
			ir, err := ParseIndexRequest([]byte(indexBody))
			if err != nil {
				t.Fatalf("ParseIndexRequest: %v", err)
			}
			ir2, err := ParseIndexRequest([]byte(indexBody))
			if err != nil {
				t.Fatalf("re-ParseIndexRequest: %v", err)
			}
			if ir.Hash() == "" || ir.Hash() != ir2.Hash() {
				t.Errorf("index hash unstable across re-parse: %q vs %q", ir.Hash(), ir2.Hash())
			}
			v1, err := ir.Compute()
			if err != nil {
				t.Fatalf("Compute: %v", err)
			}
			v2, err := ir2.Compute()
			if err != nil {
				t.Fatalf("re-Compute: %v", err)
			}
			j1 := mustJSON(t, v1)
			j2 := mustJSON(t, v2)
			if !bytes.Equal(j1, j2) {
				t.Errorf("Compute not deterministic:\n%s\n%s", j1, j2)
			}
			var echo struct {
				SpecHash string `json:"spec_hash"`
			}
			if err := json.Unmarshal(j1, &echo); err != nil {
				t.Fatalf("decoding index response: %v", err)
			}
			if echo.SpecHash != ir.Hash() {
				t.Errorf("index response spec_hash = %s, want %s", echo.SpecHash, ir.Hash())
			}
		})
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshaling %T: %v", v, err)
	}
	return b
}

// TestConformanceCoversAllBodies is the reverse completeness gate: every
// scenariotest body must correspond to a registered kind, so stale bodies
// can't silently rot.
func TestConformanceCoversAllBodies(t *testing.T) {
	registered := make(map[string]bool)
	for _, k := range Kinds() {
		registered[k] = true
	}
	for _, k := range scenariotest.SimulateKinds() {
		if !registered[k] {
			t.Errorf("scenariotest has a body for unregistered kind %q", k)
		}
	}
}
