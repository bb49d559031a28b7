package scenario

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"stochsched/internal/scenario/scenariotest"
)

var updateParseContract = flag.Bool("update", false, "rewrite testdata/parse_contract.txt from the current parsers")

// contractLimits are the request-level budgets the parse contract runs
// under: the replication cap of TestParseRequestRejects and the serving
// layer's default work budget.
var contractLimits = Limits{MaxReplications: 100, MaxSimWork: 1e8}

// simulateContract returns the /v1/simulate bodies of the parse contract,
// by name: every scenariotest body, envelope variants that must keep
// parsing to the same hash, and bodies that must be rejected.
func simulateContract() map[string]string {
	bodies := map[string]string{}
	for _, kind := range scenariotest.SimulateKinds() {
		bodies["simulate/"+kind] = scenariotest.SimulateBody(kind, 1)
	}
	r := func(old, new string) string { return strings.Replace(mg1Body, old, new, 1) }
	precision := `"precision": {"target_ci95": 0.1, "max_replications": 64}`
	for name, body := range map[string]string{
		"mg1-body":         mg1Body,
		"mixed-case":       strings.NewReplacer(`"kind"`, `"Kind"`, `"seed"`, `"SEED"`, `"mg1":`, `"MG1":`).Replace(mg1Body),
		"payload-first":    `{"mg1": {"spec": {"classes": [{"rate": 0.3, "service_mean": 0.5, "hold_cost": 4}]}, "policy": "cmu", "horizon": 100, "burnin": 10}, "kind": "mg1", "seed": 7, "replications": 5}`,
		"parallel":         r(`"seed": 7`, `"parallel": 8, "seed": 7`),
		"precision":        r(`"replications": 5`, precision),
		"precision-conf":   r(`"replications": 5`, `"precision": {"target_ci95": 0.1, "confidence": 0.9, "max_replications": 64}`),
		"precision-anti":   r(`"replications": 5`, precision+`, "antithetic": true`),
		"antithetic":       r(`"seed": 7`, `"antithetic": true, "seed": 7`),
		"null-scalar":      r(`"seed": 7`, `"parallel": null, "seed": 7`),
		"not-json":         `nope`,
		"trailing":         mg1Body + `{"again":true}`,
		"unknown-kind":     `{"kind":"quantum","quantum":{},"seed":1,"replications":5}`,
		"no-kind":          `{"mg1":{},"seed":1,"replications":5}`,
		"no-payload":       `{"kind":"mg1","seed":1,"replications":5}`,
		"null-payload":     `{"kind":"mg1","mg1":null,"seed":1,"replications":5}`,
		"wrong-payload":    `{"kind":"mg1","bandit":{},"seed":1,"replications":5}`,
		"two-payloads":     r(`"seed": 7`, `"bandit": {}, "seed": 7`),
		"unknown-field":    r(`"seed": 7`, `"sneed": 1, "seed": 7`),
		"zero-reps":        r(`"replications": 5`, `"replications": 0`),
		"one-rep":          r(`"replications": 5`, `"replications": 1`),
		"over-reps":        r(`"replications": 5`, `"replications": 1000`),
		"bad-parallel":     r(`"seed": 7`, `"parallel": -1, "seed": 7`),
		"huge-parallel":    r(`"seed": 7`, `"parallel": 5000, "seed": 7`),
		"payload-unknown":  r(`"policy": "cmu"`, `"policy": "cmu", "bogus": 1`),
		"nested-unknown":   r(`"hold_cost": 4`, `"hold_cost": 4, "bogus": 1`),
		"burnin>horizon":   r(`"horizon": 100`, `"horizon": 5`),
		"over-budget":      r(`"horizon": 100`, `"horizon": 1e9`),
		"seed-type":        r(`"seed": 7`, `"seed": "7"`),
		"negative-seed":    r(`"seed": 7`, `"seed": -7`),
		"reps-precision":   r(`"replications": 5`, `"replications": 5, `+precision),
		"precision-bogus":  r(`"replications": 5`, `"precision": {"target_ci95": 0.1, "max_replications": 64, "bogus": 1}`),
		"precision-target": r(`"replications": 5`, `"precision": {"target_ci95": 0, "max_replications": 64}`),
		"precision-ceil":   r(`"replications": 5`, `"precision": {"target_ci95": 0.1, "max_replications": 1000}`),
		"empty":            ``,
		"array":            `[]`,
		// Bodies encoding/json struct decoding accepts: a zero replications
		// beside precision means "absent", null means absent, and a
		// repeated key in another case is the same member (last wins).
		"reps0-precision":    r(`"replications": 5`, `"replications": 0, `+precision),
		"null-other-payload": r(`"seed": 7`, `"bandit": null, "seed": 7`),
		"null-precision":     r(`"seed": 7`, `"precision": null, "seed": 7`),
		"dup-key-case":       r(`"seed": 7`, `"Kind": "mg1", "seed": 7`),
	} {
		bodies["simulate/"+name] = body
	}
	return bodies
}

const restlessIndexBody = `{"kind":"restless","restless":{"beta":0.9,
	"passive":{"transitions":[[0.7,0.3,0],[0,0.7,0.3],[0,0,1]],"rewards":[1,0.6,0.1]},
	"active":{"transitions":[[1,0,0],[1,0,0],[1,0,0]],"rewards":[-0.5,-0.5,-0.5]},
	"check_indexability":true}}`

// indexContract is simulateContract for /v1/index bodies.
func indexContract() map[string]string {
	bodies := map[string]string{}
	for _, kind := range IndexKinds() {
		bodies["index/"+kind] = scenariotest.IndexBody(kind)
	}
	mg1 := scenariotest.IndexBody("mg1")
	r := func(old, new string) string { return strings.Replace(mg1, old, new, 1) }
	for name, body := range map[string]string{
		"mixed-case":         strings.NewReplacer(`"kind"`, `"KIND"`, `"mg1":`, `"Mg1":`).Replace(mg1),
		"payload-first":      `{"bandit":{"beta":0.9,"transitions":[[0.5,0.5],[0.2,0.8]],"rewards":[1,0.3]},"kind":"bandit"}`,
		"restless-check":     restlessIndexBody,
		"not-json":           `nope`,
		"trailing":           mg1 + `{"again":true}`,
		"unknown-kind":       `{"kind":"quantum","quantum":{}}`,
		"no-index":           `{"kind":"polling","polling":{}}`,
		"no-kind":            `{"mg1":{}}`,
		"no-payload":         `{"kind":"mg1"}`,
		"wrong-payload":      `{"kind":"mg1","bandit":{}}`,
		"two-payloads":       r(`"kind":"mg1"`, `"kind":"mg1","bandit":{}`),
		"unknown-field":      r(`"kind":"mg1"`, `"kind":"mg1","seed":1`),
		"payload-unknown":    r(`"classes"`, `"bogus":1,"classes"`),
		"nested-unknown":     r(`"hold_cost":4`, `"hold_cost":4,"bogus":1`),
		"empty":              ``,
		"array":              `[]`,
		"null-other-payload": r(`"kind":"mg1"`, `"kind":"mg1","bandit":null`),
		"dup-key-case":       r(`"kind":"mg1"`, `"kind":"mg1","Kind":"mg1"`),
	} {
		bodies["index/"+name] = body
	}
	return bodies
}

// parseContract parses every contract body and returns name → outcome:
// "accept <Hash()>" or "reject".
func parseContract() map[string]string {
	out := map[string]string{}
	for name, body := range simulateContract() {
		req, err := ParseRequest([]byte(body), contractLimits)
		out[name] = outcome(err, func() string { return req.Hash() })
	}
	for name, body := range indexContract() {
		req, err := ParseIndexRequest([]byte(body))
		out[name] = outcome(err, func() string { return req.Hash() })
	}
	return out
}

func outcome(err error, hash func() string) string {
	if err != nil {
		return "reject"
	}
	return "accept " + hash()
}

// TestParseContract pins what ParseRequest and ParseIndexRequest accept,
// and the Hash() of everything they accept, to testdata/parse_contract.txt.
// Regenerate with
//
//	go test ./internal/scenario -run TestParseContract -update
//
// only after an intentional change to the request contract.
func TestParseContract(t *testing.T) {
	path := filepath.Join("testdata", "parse_contract.txt")
	got := parseContract()
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	if *updateParseContract {
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "%s %s\n", name, got[name])
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, rest, _ := strings.Cut(sc.Text(), " ")
		want[name] = rest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: no pinned outcome (got %s)", name, got[name])
		} else if got[name] != w {
			t.Errorf("%s: got %s, want %s", name, got[name], w)
		}
	}
	if len(want) != len(got) {
		t.Errorf("%d pinned outcomes, %d bodies", len(want), len(got))
	}
}
