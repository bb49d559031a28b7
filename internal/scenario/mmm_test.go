package scenario

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"stochsched/internal/engine"
	"stochsched/pkg/api"
)

const mmmIndexBody = `{"kind": "mmm", "mmm": {"servers": 3, "classes": [
  {"rate": 1.2, "service": {"kind": "exp", "rate": 1.5}, "hold_cost": 3},
  {"rate": 1.0, "service_mean": 1, "hold_cost": 1}]}}`

func TestMMmIndexCompute(t *testing.T) {
	req, err := ParseIndexRequest([]byte(mmmIndexBody))
	if err != nil {
		t.Fatal(err)
	}
	if req.Family() != "priority" {
		t.Errorf("family %q", req.Family())
	}
	out, err := req.Compute()
	if err != nil {
		t.Fatal(err)
	}
	resp, ok := out.(*api.PriorityResponse)
	if !ok {
		t.Fatalf("response %T", out)
	}
	if resp.Rule != "cmu" || resp.SpecHash != req.Hash() {
		t.Errorf("rule %q hash %q", resp.Rule, resp.SpecHash)
	}
	// cµ: class 0 has 3·1.5 = 4.5, class 1 has 1·1 = 1.
	if len(resp.Order) != 2 || resp.Order[0] != 0 || resp.Indices[0] != 4.5 || resp.Indices[1] != 1 {
		t.Errorf("order %v indices %v", resp.Order, resp.Indices)
	}
	if resp.Servers != 3 {
		t.Errorf("servers %d", resp.Servers)
	}
	if resp.ErlangC == nil || !(*resp.ErlangC > 0 && *resp.ErlangC < 1) {
		t.Errorf("erlang_c %v", resp.ErlangC)
	}
	if resp.CostRate == nil || resp.FastSingleServerCost == nil {
		t.Fatalf("cost %v bound %v", resp.CostRate, resp.FastSingleServerCost)
	}
	// The speed-m relaxation bounds every m-server policy from below.
	if *resp.FastSingleServerCost > *resp.CostRate {
		t.Errorf("fast bound %v above analytic cµ cost %v", *resp.FastSingleServerCost, *resp.CostRate)
	}
}

func TestMMmIndexBadSpec(t *testing.T) {
	for name, body := range map[string]string{
		"overloaded":       `{"servers": 1, "classes": [{"rate": 5, "service_mean": 1, "hold_cost": 1}]}`,
		"non-exponential":  `{"servers": 2, "classes": [{"rate": 1, "service": {"kind": "det", "value": 1}, "hold_cost": 1}]}`,
		"no servers":       `{"classes": [{"rate": 0.5, "service_mean": 1, "hold_cost": 1}]}`,
		"too many servers": `{"classes": [{"rate": 0.1, "service_mean": 1, "hold_cost": 1}], "servers": 2000000000}`,
	} {
		req, err := ParseIndexRequest([]byte(`{"kind":"mmm","mmm":` + body + `}`))
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		_, err = req.Compute()
		var bs BadSpec
		if err == nil || !errors.As(err, &bs) {
			t.Errorf("%s: error %v not marked BadSpec", name, err)
		}
	}
}

// TestMMmSimulateFIFODeterministic: the fifo policy (nil order inside the
// scenario) must also be byte-identical across pool sizes.
func TestMMmSimulateFIFODeterministic(t *testing.T) {
	body := `{"kind":"mmm","mmm":{"spec":{"servers":2,"classes":[
	    {"rate":0.8,"service_mean":1,"hold_cost":2},
	    {"rate":0.5,"service_mean":0.5,"hold_cost":1}]},
	  "policy":"fifo","horizon":300,"burnin":30},"seed":5,"replications":10}`
	req, err := ParseRequest([]byte(body), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	run := func(n int) []byte {
		out, err := Run(context.Background(), req, engine.NewPool(n))
		if err != nil {
			t.Fatalf("pool %d: %v", n, err)
		}
		return out
	}
	b1, b8 := run(1), run(8)
	if !bytes.Equal(b1, b8) {
		t.Errorf("fifo output differs across pools:\n%s\n%s", b1, b8)
	}
	if !bytes.Contains(b1, []byte(`"policy":"fifo"`)) || bytes.Contains(b1, []byte(`"order"`)) {
		t.Errorf("fifo body %s", b1)
	}
	out, err := req.Scenario.Outcome("", b1)
	if err != nil {
		t.Fatal(err)
	}
	if out.Policy != "fifo" || out.Metric != "cost_rate" || out.Mean <= 0 {
		t.Errorf("outcome %+v", out)
	}
}

func TestMMmSimulateRejectsBadPolicy(t *testing.T) {
	body := `{"kind":"mmm","mmm":{"spec":{"servers":2,"classes":[
	    {"rate":0.8,"service_mean":1,"hold_cost":2}]},
	  "policy":"wsept","horizon":100,"burnin":10},"seed":1,"replications":3}`
	req, err := ParseRequest([]byte(body), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if err := req.Scenario.Validate(req.Payload); err == nil || !strings.Contains(err.Error(), "unknown mmm policy") {
		t.Fatalf("validate error: %v", err)
	}
	// Execution must agree with submit-time validation and mark it BadSpec.
	_, err = Run(context.Background(), req, nil)
	var bs BadSpec
	if err == nil || !errors.As(err, &bs) {
		t.Fatalf("run error %v not marked BadSpec", err)
	}
}
