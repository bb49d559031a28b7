package scenario

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"stochsched/internal/engine"
	"stochsched/internal/spec"
	"stochsched/pkg/api"
)

func TestRegistryHasBuiltins(t *testing.T) {
	want := []string{"bandit", "batch", "flowshop", "jackson", "mdp", "mg1", "mmm", "polling", "restless"}
	got := Kinds()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Kinds() = %v, want %v", got, want)
	}
	for _, kind := range want {
		sc, ok := Lookup(kind)
		if !ok {
			t.Fatalf("kind %q not registered", kind)
		}
		if sc.Kind() != kind {
			t.Errorf("kind %q registered under %q", sc.Kind(), kind)
		}
		if !strings.HasPrefix(sc.PolicyPath(), kind+".") {
			t.Errorf("kind %q policy path %q does not live under its payload", kind, sc.PolicyPath())
		}
	}
	if _, ok := Lookup("quantum"); ok {
		t.Error("unknown kind resolved")
	}
}

func TestRegisterPanicsOnDuplicate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	Register(mg1Scenario{})
}

const mg1Body = `{
  "kind": "mg1",
  "mg1": {"spec": {"classes": [{"rate": 0.3, "service_mean": 0.5, "hold_cost": 4}]},
          "policy": "cmu", "horizon": 100, "burnin": 10},
  "seed": 7, "replications": 5
}`

func TestParseRequestEnvelope(t *testing.T) {
	req, err := ParseRequest([]byte(mg1Body), Limits{MaxReplications: 100, MaxSimWork: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if req.Kind != "mg1" || req.Seed != 7 || req.Replications != 5 || req.Parallel != 0 {
		t.Fatalf("envelope %+v", req)
	}
	if req.Scenario.Kind() != "mg1" {
		t.Errorf("scenario %q", req.Scenario.Kind())
	}
	if _, ok := req.Payload.(*MG1Sim); !ok {
		t.Fatalf("payload %T", req.Payload)
	}
	if err := req.Scenario.Validate(req.Payload); err != nil {
		t.Errorf("validate: %v", err)
	}
}

// TestParseRequestFieldCaseInsensitive: envelope fields match
// case-insensitively, as encoding/json struct decoding does — clients
// sending "Kind"/"Seed" keep working.
func TestParseRequestFieldCaseInsensitive(t *testing.T) {
	body := strings.NewReplacer(`"kind"`, `"Kind"`, `"seed"`, `"Seed"`, `"mg1":`, `"MG1":`).Replace(mg1Body)
	req, err := ParseRequest([]byte(body), Limits{MaxReplications: 100, MaxSimWork: 1e6})
	if err != nil {
		t.Fatalf("mixed-case envelope rejected: %v", err)
	}
	if req.Kind != "mg1" || req.Seed != 7 {
		t.Fatalf("envelope %+v", req)
	}
}

func TestParseRequestRejects(t *testing.T) {
	lim := Limits{MaxReplications: 100, MaxSimWork: 1e6}
	bad := map[string]string{
		"not json":        `nope`,
		"trailing":        mg1Body + `{"again":true}`,
		"unknown kind":    `{"kind":"quantum","quantum":{},"seed":1,"replications":5}`,
		"no payload":      `{"kind":"mg1","seed":1,"replications":5}`,
		"wrong payload":   `{"kind":"mg1","bandit":{},"seed":1,"replications":5}`,
		"two payloads":    strings.Replace(mg1Body, `"seed": 7`, `"bandit": {}, "seed": 7`, 1),
		"unknown field":   strings.Replace(mg1Body, `"seed": 7`, `"sneed": 1, "seed": 7`, 1),
		"zero reps":       strings.Replace(mg1Body, `"replications": 5`, `"replications": 0`, 1),
		"over reps":       strings.Replace(mg1Body, `"replications": 5`, `"replications": 1000`, 1),
		"bad parallel":    strings.Replace(mg1Body, `"seed": 7`, `"parallel": -1, "seed": 7`, 1),
		"huge parallel":   strings.Replace(mg1Body, `"seed": 7`, `"parallel": 5000, "seed": 7`, 1),
		"payload unknown": strings.Replace(mg1Body, `"policy": "cmu"`, `"policy": "cmu", "bogus": 1`, 1),
		"burnin>horizon":  strings.Replace(mg1Body, `"horizon": 100`, `"horizon": 5`, 1),
		"over budget":     strings.Replace(mg1Body, `"horizon": 100`, `"horizon": 1e9`, 1),
	}
	for name, body := range bad {
		if _, err := ParseRequest([]byte(body), lim); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
}

// TestHashExcludesParallel pins the memoization-key contract: parallel is
// a throughput knob, never part of identity.
func TestHashExcludesParallel(t *testing.T) {
	lim := Limits{MaxReplications: 100, MaxSimWork: 1e6}
	r0, err := ParseRequest([]byte(mg1Body), lim)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := ParseRequest([]byte(strings.Replace(mg1Body, `"seed": 7`, `"parallel": 8, "seed": 7`, 1)), lim)
	if err != nil {
		t.Fatal(err)
	}
	if r0.Hash() != r8.Hash() {
		t.Error("parallel changed the hash")
	}
	other, err := ParseRequest([]byte(strings.Replace(mg1Body, `"seed": 7`, `"seed": 8`, 1)), lim)
	if err != nil {
		t.Fatal(err)
	}
	if other.Hash() == r0.Hash() {
		t.Error("seed did not change the hash")
	}
	if len(r0.Hash()) != 64 {
		t.Errorf("hash %q", r0.Hash())
	}
}

// TestReplicationWorkPerKind: the DES kinds charge their event count,
// horizon × (2·Σ effective arrival rates + 1/E[switchover] for polling);
// the others charge their own scale.
func TestReplicationWorkPerKind(t *testing.T) {
	classes := []spec.Class{
		{Rate: 0.25, ServiceMean: 0.5, HoldCost: 1},
		{Rate: 0.125, ServiceMean: 0.5, HoldCost: 1},
	}
	next := 1
	network := spec.Network{Stations: 2, Classes: []spec.NetClass{
		{Station: 0, Rate: 0.5, ServiceMean: 0.5, HoldCost: 1, Next: &next},
		{Station: 1, Rate: 0.25, ServiceMean: 0.5, HoldCost: 1},
	}}
	feedback := [][]float64{{0, 0.5}, {0, 0}}
	cases := []struct {
		kind    string
		payload any
		want    float64
	}{
		{"mg1", &MG1Sim{Horizon: 400, Spec: spec.MG1{Classes: classes}}, 300},
		// Feedback: λ = (0.25, 0.125 + 0.5·0.25).
		{"mg1", &MG1Sim{Horizon: 400, Spec: spec.MG1{Classes: classes, Feedback: feedback}}, 400},
		{"mg1", &MG1Sim{Horizon: 400, Spec: spec.MG1{Classes: classes, Feedback: [][]float64{{1}}}}, 0}, // bad shape: Validate's problem
		{"mmm", &MMmSim{Horizon: 400, Spec: spec.MMm{Classes: classes, Servers: 2}}, 300},
		{"bandit", &BanditSim{Spec: banditSystem(0.5)}, 2},
		{"bandit", &BanditSim{Spec: banditSystem(1.5)}, 0}, // invalid β: Validate's problem, not the budget's
		{"restless", &RestlessSim{Horizon: 100, N: 7}, 700},
		{"batch", &BatchSim{Spec: batchSpec(3)}, 3},
		// Routing: λ = (0.5, 0.25 + 0.5).
		{"jackson", &JacksonSim{Horizon: 300, Spec: network}, 750},
		{"jackson", &JacksonSim{Horizon: 300}, 0},
		{"polling", &PollingSim{Horizon: 400, Spec: spec.Polling{Queues: classes, Switch: spec.Dist{Kind: "det", Value: 0.5}}}, 1100},
		{"polling", &PollingSim{Horizon: 400, Spec: spec.Polling{Queues: classes}}, 0},
		{"mdp", &MDPSim{Horizon: 500}, 500},
	}
	for _, c := range cases {
		sc, _ := Lookup(c.kind)
		if got := sc.ReplicationWork(c.payload); got != c.want {
			t.Errorf("%s work = %v, want %v", c.kind, got, c.want)
		}
	}
}

func TestPoliciesPerKind(t *testing.T) {
	cases := []struct {
		kind    string
		payload any
		want    string
	}{
		{"mg1", &MG1Sim{}, "[cmu fifo]"},
		{"mmm", &MMmSim{}, "[cmu fifo]"},
		{"bandit", &BanditSim{}, "[gittins greedy]"},
		{"restless", &RestlessSim{}, "[whittle myopic random]"},
		{"batch", &BatchSim{}, "[wsept sept lept]"},
		{"jackson", &JacksonSim{}, "[cmu fcfs lbfs]"},
		{"polling", &PollingSim{}, "[exhaustive gated limited]"},
		{"mdp", &MDPSim{}, "[optimal myopic random]"},
	}
	for _, c := range cases {
		sc, _ := Lookup(c.kind)
		if got := fmt.Sprint(sc.Policies(c.payload)); got != c.want {
			t.Errorf("%s policies = %v, want %v", c.kind, got, c.want)
		}
	}
	// Feedback flips the mg1 policy set.
	sc, _ := Lookup("mg1")
	fb := &MG1Sim{}
	fb.Spec.Feedback = [][]float64{{0}}
	if got := fmt.Sprint(sc.Policies(fb)); got != "[klimov]" {
		t.Errorf("feedback policies = %v", got)
	}
	// The flowshop policy set follows the spec variant, and talwar is
	// listed only where its rule is defined (two stages, all exponential).
	fs, _ := Lookup("flowshop")
	exp2 := &FlowShopSim{Spec: api.FlowShop{Jobs: []api.FlowShopJobSpec{
		{Stages: []api.Dist{{Kind: "exp", Rate: 2}, {Kind: "exp", Rate: 1}}},
	}}}
	if got := fmt.Sprint(fs.Policies(exp2)); got != "[talwar sept lept]" {
		t.Errorf("flowshop exp policies = %v", got)
	}
	det2 := &FlowShopSim{Spec: api.FlowShop{Jobs: []api.FlowShopJobSpec{
		{Stages: []api.Dist{{Kind: "det", Value: 1}, {Kind: "exp", Rate: 1}}},
	}}}
	if got := fmt.Sprint(fs.Policies(det2)); got != "[sept lept]" {
		t.Errorf("flowshop det policies = %v", got)
	}
	tree := &FlowShopSim{Spec: api.FlowShop{Tree: &api.TreeSpec{Parent: []int{-1}, Rate: 1}}}
	if got := fmt.Sprint(fs.Policies(tree)); got != "[hlf llf random]" {
		t.Errorf("flowshop tree policies = %v", got)
	}
	sev := &FlowShopSim{Spec: api.FlowShop{Sevcik: []api.DiscreteJobSpec{{Weight: 1, Values: []float64{1}, Probs: []float64{1}}}}}
	if got := fmt.Sprint(fs.Policies(sev)); got != "[sevcik wsept]" {
		t.Errorf("flowshop sevcik policies = %v", got)
	}
}

// TestRunDeterministicAcrossPools: scenario.Run output is byte-identical
// for every kind at pool size 1 vs 8 — the contract each scenario must
// uphold to be registrable.
func TestRunDeterministicAcrossPools(t *testing.T) {
	bodies := map[string]string{
		"mg1": mg1Body,
		"mmm": `{"kind":"mmm","mmm":{"spec":{"servers":3,"classes":[
		    {"rate":1.2,"service":{"kind":"exp","rate":1.5},"hold_cost":3},
		    {"rate":1.0,"service_mean":1,"hold_cost":1}]},
		  "policy":"cmu","horizon":200,"burnin":20},"seed":11,"replications":8}`,
		"bandit": `{"kind":"bandit","bandit":{"spec":{"beta":0.9,"projects":[
		    {"transitions":[[0.5,0.5],[0.2,0.8]],"rewards":[1,0.3]},
		    {"transitions":[[0.9,0.1],[0.4,0.6]],"rewards":[0.5,0.8]}]},
		  "start":[0,1],"policy":"greedy"},"seed":3,"replications":30}`,
		"restless": `{"kind":"restless","restless":{"spec":{"beta":0.9,
		    "passive":{"transitions":[[0.7,0.3],[0,1]],"rewards":[1,0.1]},
		    "active":{"transitions":[[1,0],[1,0]],"rewards":[-0.5,-0.5]}},
		  "n":6,"m":2,"policy":"myopic","horizon":100,"burnin":20},"seed":2,"replications":15}`,
		"batch": `{"kind":"batch","batch":{"spec":{"jobs":[
		    {"weight":1,"dist":{"kind":"exp","mean":2}},
		    {"weight":2,"dist":{"kind":"uniform","lo":0.5,"hi":1.5}}],
		  "machines":2},"policy":"sept","objective":"makespan"},"seed":9,"replications":25}`,
	}
	for kind, body := range bodies {
		req, err := ParseRequest([]byte(body), Limits{})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		run := func(n int) []byte {
			out, err := Run(context.Background(), req, engine.NewPool(n))
			if err != nil {
				t.Fatalf("%s at pool %d: %v", kind, n, err)
			}
			return out
		}
		b1, b8 := run(1), run(8)
		if !bytes.Equal(b1, b8) {
			t.Errorf("%s output differs across pools:\n%s\n%s", kind, b1, b8)
		}
		if !bytes.HasPrefix(b1, []byte(`{"spec_hash":"`+req.Hash())) {
			t.Errorf("%s body does not lead with its hash: %s", kind, b1)
		}
		if !bytes.Contains(b1, []byte(`"`+kind+`":{`)) {
			t.Errorf("%s body missing its kind fragment: %s", kind, b1)
		}
	}
}

// TestOutcomeRoundTrip: each scenario decodes the metric from the body its
// own Run produced.
func TestOutcomeRoundTrip(t *testing.T) {
	body := `{"kind":"batch","batch":{"spec":{"jobs":[
	    {"weight":1,"dist":{"kind":"det","value":1}},
	    {"weight":2,"dist":{"kind":"det","value":2}}]},
	  "policy":"wsept","objective":"makespan"},"seed":1,"replications":3}`
	req, err := ParseRequest([]byte(body), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := Run(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := req.Scenario.Outcome("", resp)
	if err != nil {
		t.Fatal(err)
	}
	if out.Policy != "wsept" || out.Metric != "makespan" || out.HigherIsBetter {
		t.Fatalf("outcome %+v", out)
	}
	// Two deterministic jobs on one machine: makespan is exactly 3.
	if out.Mean != 3 || out.CI95 != 0 {
		t.Errorf("makespan %v ± %v, want 3 ± 0", out.Mean, out.CI95)
	}
	if out.SpecHash != req.Hash() {
		t.Errorf("spec hash mismatch")
	}
	// The substituted sweep policy overrides the body label.
	if out, _ = req.Scenario.Outcome("sept", resp); out.Policy != "sept" {
		t.Errorf("policy label %q, want sept", out.Policy)
	}
}

// TestSimulateBadSpecWrapped: spec errors surfacing inside Simulate carry
// the BadSpec marker so the serving layer can answer 400.
func TestSimulateBadSpecWrapped(t *testing.T) {
	// Parses fine (shape is legal) but the queue is unstable: ρ ≥ 1.
	body := `{"kind":"mg1","mg1":{"spec":{"classes":[
	    {"rate": 9, "service_mean": 0.5, "hold_cost": 1}]},
	  "policy":"cmu","horizon":100,"burnin":10},"seed":1,"replications":3}`
	req, err := ParseRequest([]byte(body), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(context.Background(), req, nil)
	var bs BadSpec
	if err == nil || !errors.As(err, &bs) {
		t.Fatalf("unstable queue error %v not marked BadSpec", err)
	}
}

func banditSystem(beta float64) spec.BanditSystem {
	return spec.BanditSystem{Beta: beta, Projects: []spec.Arm{
		{Transitions: [][]float64{{1}}, Rewards: []float64{1}},
	}}
}

func batchSpec(jobs int) spec.Batch {
	var b spec.Batch
	for i := 0; i < jobs; i++ {
		b.Jobs = append(b.Jobs, spec.JobSpec{Weight: 1, Dist: spec.Dist{Kind: "det", Value: 1}})
	}
	return b
}
