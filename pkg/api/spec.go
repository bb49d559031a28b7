package api

// This file holds the canonical problem-spec shapes. They are pure data:
// strict decoding, deep validation (row-stochasticity, queue stability),
// and conversion into solver models happen server-side (internal/spec),
// so the wire contract stays dependency-free.

// Dist describes a nonnegative service/processing-time law. Kind selects
// the family; the other fields parameterize it:
//
//	{"kind": "exp", "rate": 2}        exponential, rate 2 (or "mean": 0.5)
//	{"kind": "det", "value": 1.5}     point mass
//	{"kind": "uniform", "lo": 0, "hi": 2}
//	{"kind": "erlang", "k": 3, "rate": 2}
type Dist struct {
	Kind  string  `json:"kind"`
	Rate  float64 `json:"rate,omitempty"`
	Mean  float64 `json:"mean,omitempty"`
	Value float64 `json:"value,omitempty"`
	Lo    float64 `json:"lo,omitempty"`
	Hi    float64 `json:"hi,omitempty"`
	K     int     `json:"k,omitempty"`
}

// Bandit is a single discounted bandit project: the "bandit" payload of
// POST /v1/index. Beta is the discount in (0,1); Transitions is a
// row-stochastic n×n matrix; Rewards has length n.
type Bandit struct {
	Beta        float64     `json:"beta"`
	Transitions [][]float64 `json:"transitions"`
	Rewards     []float64   `json:"rewards"`
}

// BanditSystem is a multi-project bandit for simulation: the spec inside
// a BanditSim payload.
type BanditSystem struct {
	Beta     float64 `json:"beta"`
	Projects []Arm   `json:"projects"`
}

// Arm is one project of a BanditSystem.
type Arm struct {
	Transitions [][]float64 `json:"transitions"`
	Rewards     []float64   `json:"rewards"`
}

// Action holds the dynamics of one action of a restless project.
type Action struct {
	Transitions [][]float64 `json:"transitions"`
	Rewards     []float64   `json:"rewards"`
}

// Restless is a two-action restless project: the "restless" index payload
// minus its knobs (see WhittleRequest).
type Restless struct {
	Beta    float64 `json:"beta"`
	Passive Action  `json:"passive"`
	Active  Action  `json:"active"`
}

// Class describes one customer class of a multiclass M/G/1. Exactly one
// of ServiceMean (shorthand for an exponential law with that mean) and
// Service must be set.
type Class struct {
	Name        string  `json:"name,omitempty"`
	Rate        float64 `json:"rate"`
	ServiceMean float64 `json:"service_mean,omitempty"`
	Service     *Dist   `json:"service,omitempty"`
	HoldCost    float64 `json:"hold_cost"`
}

// MG1 is a multiclass M/G/1 system; a nonempty Feedback matrix turns it
// into a Klimov network (row i gives the probabilities a completed class-i
// job re-enters as class j; the row deficit is the exit probability).
type MG1 struct {
	Classes  []Class     `json:"classes"`
	Feedback [][]float64 `json:"feedback,omitempty"`
}

// HasFeedback reports whether the spec describes a Klimov network.
func (m *MG1) HasFeedback() bool { return len(m.Feedback) > 0 }

// MMm is a multiclass M/M/m system: the classes share Servers identical
// exponential servers. Every class's service law must be exponential
// (the service_mean shorthand, or an explicit {"kind":"exp"} dist).
type MMm struct {
	Classes []Class `json:"classes"`
	Servers int     `json:"servers"`
}

// JobSpec is one stochastic job of a batch instance.
type JobSpec struct {
	Weight float64 `json:"weight"`
	Dist   Dist    `json:"dist"`
}

// Batch is a batch-scheduling instance: jobs on Machines identical
// machines (default 1).
type Batch struct {
	Jobs     []JobSpec `json:"jobs"`
	Machines int       `json:"machines,omitempty"`
}

// Route is one probabilistic routing entry of a network class: a completed
// job becomes class To with probability Prob. Route probabilities of a
// class may sum to less than 1; the deficit is the exit probability.
type Route struct {
	To   int     `json:"to"`
	Prob float64 `json:"prob"`
}

// NetClass describes one class of an open multiclass queueing network.
// Station is the (single-server) station serving the class; Rate is the
// external Poisson arrival rate (0 for classes fed only by routing).
// Exactly one of ServiceMean (exponential shorthand) and Service must be
// set. Routing on completion is either deterministic (Next, nil = exit)
// or probabilistic (Routes); setting both is rejected server-side.
type NetClass struct {
	Name        string  `json:"name,omitempty"`
	Station     int     `json:"station"`
	Rate        float64 `json:"rate,omitempty"`
	ServiceMean float64 `json:"service_mean,omitempty"`
	Service     *Dist   `json:"service,omitempty"`
	Next        *int    `json:"next,omitempty"`
	Routes      []Route `json:"routes,omitempty"`
	HoldCost    float64 `json:"hold_cost"`
}

// Network is an open multiclass queueing network: Classes routed across
// Stations single-server stations. With exponential services, one shared
// rate per station, and every station stable, the network is Jackson and
// has a product-form steady state (the "jackson" index family).
type Network struct {
	Classes  []NetClass `json:"classes"`
	Stations int        `json:"stations"`
}

// Polling is a polling system: one server cycling over Queues in index
// order, paying a Switch (walking-time) law on every queue change. The
// service regime (exhaustive, gated, 1-limited) is the simulate policy,
// not part of the spec, so regimes are sweepable.
type Polling struct {
	Queues []Class `json:"queues"`
	Switch Dist    `json:"switch"`
}

// MDPAction holds the dynamics of one action of a finite average-reward
// MDP: a row-stochastic n×n transition matrix and per-state rewards.
type MDPAction struct {
	Name        string      `json:"name,omitempty"`
	Transitions [][]float64 `json:"transitions"`
	Rewards     []float64   `json:"rewards"`
}

// MDP is a finite average-reward Markov decision process; every action
// must be defined in every state and share one state count.
type MDP struct {
	Actions []MDPAction `json:"actions"`
}

// FlowShopJobSpec is one job of a stochastic flow shop: its per-stage
// processing-time laws. All jobs of an instance share the stage count.
type FlowShopJobSpec struct {
	Stages []Dist `json:"stages"`
}

// TreeSpec is an in-tree precedence instance: Parent[i] is the successor
// of task i (-1 for the root), processed by Machines identical machines
// (default 1) with iid exponential(Rate) task durations.
type TreeSpec struct {
	Parent   []int   `json:"parent"`
	Machines int     `json:"machines,omitempty"`
	Rate     float64 `json:"rate"`
}

// DiscreteJobSpec is one job of a Sevcik (preemptive discrete-law)
// instance: a weight and a finite processing-time law given by positive
// Values with probabilities Probs summing to 1.
type DiscreteJobSpec struct {
	Weight float64   `json:"weight"`
	Values []float64 `json:"values"`
	Probs  []float64 `json:"probs"`
}

// FlowShop is the spec of the "flowshop" scenario kind — three batch-shop
// variants under one envelope, selected by which field is set (exactly
// one): Jobs (permutation flow shop, optionally bufferless via Blocking),
// Tree (in-tree precedence on identical machines), or Sevcik (preemptive
// single-machine jobs with discrete laws).
type FlowShop struct {
	Jobs     []FlowShopJobSpec `json:"jobs,omitempty"`
	Blocking bool              `json:"blocking,omitempty"`
	Tree     *TreeSpec         `json:"tree,omitempty"`
	Sevcik   []DiscreteJobSpec `json:"sevcik,omitempty"`
}

// Variant reports which flow-shop variant the spec selects ("flowshop",
// "tree", or "sevcik"), or "" when none or more than one field is set.
func (f *FlowShop) Variant() string {
	set, v := 0, ""
	if len(f.Jobs) > 0 {
		set, v = set+1, "flowshop"
	}
	if f.Tree != nil {
		set, v = set+1, "tree"
	}
	if len(f.Sevcik) > 0 {
		set, v = set+1, "sevcik"
	}
	if set != 1 {
		return ""
	}
	return v
}
