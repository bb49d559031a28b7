package spec

import (
	"math"
	"testing"
)

func validBandit() Bandit {
	return Bandit{
		Beta:        0.9,
		Transitions: [][]float64{{0.5, 0.5}, {0.2, 0.8}},
		Rewards:     []float64{1, 0.3},
	}
}

func TestBanditValidate(t *testing.T) {
	b := validBandit()
	if err := ValidateBandit(&b); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Bandit)
	}{
		{"beta=0", func(b *Bandit) { b.Beta = 0 }},
		{"beta=1", func(b *Bandit) { b.Beta = 1 }},
		{"beta NaN", func(b *Bandit) { b.Beta = math.NaN() }},
		{"ragged matrix", func(b *Bandit) { b.Transitions[0] = []float64{1} }},
		{"non-stochastic", func(b *Bandit) { b.Transitions[0] = []float64{0.5, 0.4} }},
		{"negative prob", func(b *Bandit) { b.Transitions[0] = []float64{1.5, -0.5} }},
		{"reward length", func(b *Bandit) { b.Rewards = []float64{1} }},
		{"reward inf", func(b *Bandit) { b.Rewards[0] = math.Inf(1) }},
		{"empty", func(b *Bandit) { b.Transitions = nil }},
	}
	for _, c := range cases {
		bad := validBandit()
		c.mut(&bad)
		if err := ValidateBandit(&bad); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestMG1Validate(t *testing.T) {
	m := MG1{Classes: []Class{
		{Rate: 0.3, ServiceMean: 0.5, HoldCost: 4},
		{Rate: 0.2, ServiceMean: 1, HoldCost: 1},
	}}
	q, err := MG1Model(&m)
	if err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if got := q.Classes[0].Name; got != "c1" {
		t.Errorf("default name = %q, want c1", got)
	}
	if q.Load() >= 1 {
		t.Errorf("load %v", q.Load())
	}

	bad := []MG1{
		{},
		{Classes: []Class{{Rate: -1, ServiceMean: 1, HoldCost: 1}}},
		{Classes: []Class{{Rate: 0, ServiceMean: 1, HoldCost: 1}}},
		{Classes: []Class{{Rate: 0.1, ServiceMean: -2, HoldCost: 1}}},
		{Classes: []Class{{Rate: 0.1, ServiceMean: 1, HoldCost: -1}}},
		{Classes: []Class{{Rate: 0.1, HoldCost: 1}}},                                          // no service law
		{Classes: []Class{{Rate: 0.1, ServiceMean: 1, Service: &Dist{Kind: "exp", Rate: 1}}}}, // both
		{Classes: []Class{{Rate: 2, ServiceMean: 1, HoldCost: 1}}},                            // unstable
	}
	for i, b := range bad {
		if err := ValidateMG1(&b); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}

	// Feedback: a valid Klimov network and a bad row.
	fb := MG1{
		Classes: []Class{
			{Rate: 0.2, ServiceMean: 0.5, HoldCost: 2},
			{Rate: 0.1, ServiceMean: 0.5, HoldCost: 1},
		},
		Feedback: [][]float64{{0, 0.3}, {0, 0}},
	}
	if !fb.HasFeedback() {
		t.Fatal("HasFeedback = false")
	}
	if _, err := KlimovModel(&fb); err != nil {
		t.Fatalf("valid klimov rejected: %v", err)
	}
	if _, err := MG1Model(&fb); err == nil {
		t.Fatal("MG1Model accepted a feedback system")
	}
	fb.Feedback[0][1] = -0.3
	if _, err := KlimovModel(&fb); err == nil {
		t.Fatal("negative feedback accepted")
	}
}

func TestDistValidate(t *testing.T) {
	good := []Dist{
		{Kind: "exp", Rate: 2},
		{Kind: "exp", Mean: 0.5},
		{Kind: "det", Value: 1.5},
		{Kind: "uniform", Lo: 0, Hi: 2},
		{Kind: "erlang", K: 3, Rate: 2},
	}
	for i, d := range good {
		law, err := DistLaw(&d)
		if err != nil {
			t.Errorf("good dist %d rejected: %v", i, err)
			continue
		}
		if law.Mean() <= 0 {
			t.Errorf("dist %d mean %v", i, law.Mean())
		}
	}
	// The two exp forms must agree.
	a, _ := DistLaw(&Dist{Kind: "exp", Rate: 2})
	b, _ := DistLaw(&Dist{Kind: "exp", Mean: 0.5})
	if a.Mean() != b.Mean() {
		t.Errorf("exp rate/mean disagree: %v vs %v", a.Mean(), b.Mean())
	}

	bad := []Dist{
		{Kind: "gaussian"},
		{Kind: "exp"},
		{Kind: "exp", Rate: 2, Mean: 0.5},
		{Kind: "exp", Rate: -2},
		{Kind: "det", Value: 0},
		{Kind: "uniform", Lo: 2, Hi: 1},
		{Kind: "uniform", Lo: -1, Hi: 1},
		{Kind: "erlang", K: 0, Rate: 1},
	}
	for i, d := range bad {
		if err := ValidateDist(&d); err == nil {
			t.Errorf("bad dist %d accepted", i)
		}
	}
}

func TestBatchValidate(t *testing.T) {
	b := Batch{Jobs: []JobSpec{
		{Weight: 2, Dist: Dist{Kind: "exp", Rate: 1}},
		{Weight: 1, Dist: Dist{Kind: "det", Value: 0.5}},
	}}
	in, err := BatchInstance(&b)
	if err != nil {
		t.Fatalf("valid batch rejected: %v", err)
	}
	if in.Machines != 1 {
		t.Errorf("default machines = %d, want 1", in.Machines)
	}
	bad := []Batch{
		{},
		{Jobs: []JobSpec{{Weight: -1, Dist: Dist{Kind: "exp", Rate: 1}}}},
		{Jobs: []JobSpec{{Weight: 1, Dist: Dist{Kind: "exp"}}}},
		{Jobs: []JobSpec{{Weight: 1, Dist: Dist{Kind: "exp", Rate: 1}}}, Machines: -2},
	}
	for i, b := range bad {
		if err := ValidateBatch(&b); err == nil {
			t.Errorf("bad batch %d accepted", i)
		}
	}
}

func TestRestlessValidate(t *testing.T) {
	r := Restless{
		Beta: 0.9,
		Passive: Action{
			Transitions: [][]float64{{0.9, 0.1}, {0, 1}},
			Rewards:     []float64{1, 0.2},
		},
		Active: Action{
			Transitions: [][]float64{{1, 0}, {1, 0}},
			Rewards:     []float64{-0.5, -0.5},
		},
	}
	if _, err := RestlessProject(&r); err != nil {
		t.Fatalf("valid restless rejected: %v", err)
	}
	r.Active.Transitions = [][]float64{{1}}
	if _, err := RestlessProject(&r); err == nil {
		t.Fatal("mismatched action dimensions accepted")
	}
}

func TestHashStableAndDiscriminating(t *testing.T) {
	a := validBandit()
	b := validBandit()
	if Hash(&a) != Hash(&b) {
		t.Fatal("identical specs hash differently")
	}
	b.Rewards[0] = 2
	if Hash(&a) == Hash(&b) {
		t.Fatal("different specs collide")
	}
	if len(Hash(&a)) != 64 {
		t.Fatalf("hash length %d, want 64", len(Hash(&a)))
	}
}

// TestDecodeStrictRejectsTrailingCloser is the regression test for a
// FuzzParseRequest crasher: a body followed by a stray '}' or ']' was
// accepted, because json.Decoder.More reports no more values before a
// closing delimiter. Any non-whitespace after the value is an error.
func TestDecodeStrictRejectsTrailingCloser(t *testing.T) {
	for _, body := range []string{
		`{"beta":0.9}}`,
		`{"beta":0.9}]`,
		`{"beta":0.9} }`,
		`{"beta":0.9}{}`,
		`{"beta":0.9},`,
		"{\"beta\":0.9}\f",
	} {
		var b Bandit
		if err := DecodeStrict([]byte(body), &b); err == nil {
			t.Errorf("%q decoded without error", body)
		}
	}
	for _, body := range []string{`{"beta":0.9}`, "{\"beta\":0.9} \t\r\n"} {
		var b Bandit
		if err := DecodeStrict([]byte(body), &b); err != nil || b.Beta != 0.9 {
			t.Errorf("%q: beta %v, err %v", body, b.Beta, err)
		}
	}
	var b Bandit
	if err := DecodeStrict([]byte(`{"beta":0.9,"bogus":1}`), &b); err == nil {
		t.Error("unknown field decoded without error")
	}
}
