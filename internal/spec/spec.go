// Package spec validates the canonical, serializable problem descriptions
// shared by the command-line tools and the policy service, and converts
// them into solver models: bandit projects, restless projects, multiclass
// M/G/1 systems (with optional Klimov feedback), and batch instances.
//
// The data shapes themselves live in the public wire contract (pkg/api)
// and are aliased here, so the wire JSON — and therefore every canonical
// content hash — is defined exactly once. What this package adds is the
// half that needs the solvers: strict validation (rejecting negative
// rates, nonpositive means, malformed matrices, out-of-range discounts,
// non-stochastic transition rows, and unstable queues before any solver
// runs) and the conversions into internal/bandit, internal/restless,
// internal/queueing, and internal/batch models. Specs contain no maps, so
// their JSON encoding — and therefore their hash — is canonical.
package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"stochsched/internal/bandit"
	"stochsched/internal/batch"
	"stochsched/internal/dist"
	"stochsched/internal/linalg"
	"stochsched/internal/queueing"
	"stochsched/internal/restless"
	"stochsched/pkg/api"
)

// The wire shapes, aliased from the public contract. An alias (not a
// defined type) keeps every existing spec.X reference, JSON encoding, and
// content hash identical while making pkg/api the single source of truth.
type (
	Dist         = api.Dist
	Bandit       = api.Bandit
	BanditSystem = api.BanditSystem
	Arm          = api.Arm
	Action       = api.Action
	Restless     = api.Restless
	Class        = api.Class
	MG1          = api.MG1
	MMm          = api.MMm
	JobSpec      = api.JobSpec
	Batch        = api.Batch
	Grid         = api.Grid
	Axis         = api.Axis
)

// SetString forwards to api.SetString (the sweep policy override).
func SetString(base []byte, path, value string) ([]byte, error) {
	return api.SetString(base, path, value)
}

// Hash forwards to api.Hash: the canonical content hash the service
// memoizes on.
func Hash(v any) string { return api.Hash(v) }

// DecodeStrict unmarshals one JSON request body into v with the strictness
// the API promises: unknown fields, at every depth, and trailing data are
// errors. Every request decoder (simulate, index, batch, sweep) goes
// through here.
func DecodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("parsing request: %w", err)
	}
	// Anything but whitespace after the value is an error, including a
	// stray closing '}' or ']' (which dec.More would let through).
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("parsing request: trailing data after JSON value")
	}
	return nil
}

// ---------------------------------------------------------------------------
// Distributions

// MaxErlangK bounds the phase count of an erlang law. An Erlang-k draw
// costs k uniforms, so the bound keeps every service or job-length draw a
// bounded computation.
const MaxErlangK = 1000

// ValidateDist checks the parameters of the selected family.
func ValidateDist(d *Dist) error {
	switch d.Kind {
	case "exp":
		if (d.Rate > 0) == (d.Mean > 0) {
			return fmt.Errorf("spec: exp law needs exactly one of rate, mean positive (rate=%v mean=%v)", d.Rate, d.Mean)
		}
		if !finite(d.Rate) || !finite(d.Mean) || d.Rate < 0 || d.Mean < 0 {
			return fmt.Errorf("spec: exp law has negative or non-finite parameter")
		}
	case "det":
		if !(d.Value > 0) || !finite(d.Value) {
			return fmt.Errorf("spec: det law needs a positive value, got %v", d.Value)
		}
	case "uniform":
		if !finite(d.Lo) || !finite(d.Hi) || d.Lo < 0 || d.Hi <= d.Lo {
			return fmt.Errorf("spec: uniform law needs 0 <= lo < hi, got [%v, %v]", d.Lo, d.Hi)
		}
	case "erlang":
		if d.K < 1 || !(d.Rate > 0) || !finite(d.Rate) {
			return fmt.Errorf("spec: erlang law needs k >= 1 and positive rate, got k=%d rate=%v", d.K, d.Rate)
		}
		if d.K > MaxErlangK {
			return fmt.Errorf("spec: erlang k %d above the limit %d", d.K, MaxErlangK)
		}
	default:
		return fmt.Errorf("spec: unknown distribution kind %q (want exp, det, uniform, or erlang)", d.Kind)
	}
	return nil
}

// DistLaw returns the dist.Distribution the spec describes.
func DistLaw(d *Dist) (dist.Distribution, error) {
	if err := ValidateDist(d); err != nil {
		return nil, err
	}
	switch d.Kind {
	case "exp":
		rate := d.Rate
		if rate == 0 {
			rate = 1 / d.Mean
		}
		return dist.Exponential{Rate: rate}, nil
	case "det":
		return dist.Deterministic{Value: d.Value}, nil
	case "uniform":
		return dist.Uniform{Lo: d.Lo, Hi: d.Hi}, nil
	case "erlang":
		return dist.Erlang{K: d.K, Rate: d.Rate}, nil
	}
	panic("unreachable")
}

// ---------------------------------------------------------------------------
// Bandit

// ValidateBandit checks the discount, matrix shape, and row-stochasticity.
func ValidateBandit(b *Bandit) error {
	if !(b.Beta > 0 && b.Beta < 1) {
		return fmt.Errorf("spec: discount beta %v outside (0,1)", b.Beta)
	}
	if err := checkMatrix(b.Transitions, b.Rewards); err != nil {
		return err
	}
	p := &bandit.Project{P: linalg.FromRows(b.Transitions), R: b.Rewards}
	return p.Validate()
}

// BanditProject converts the spec into a validated solver model.
func BanditProject(b *Bandit) (*bandit.Project, error) {
	if err := ValidateBandit(b); err != nil {
		return nil, err
	}
	return &bandit.Project{P: linalg.FromRows(b.Transitions), R: b.Rewards}, nil
}

// ValidateBanditSystem checks the discount and every arm.
func ValidateBanditSystem(b *BanditSystem) error {
	if !(b.Beta > 0 && b.Beta < 1) {
		return fmt.Errorf("spec: discount beta %v outside (0,1)", b.Beta)
	}
	if len(b.Projects) == 0 {
		return fmt.Errorf("spec: bandit system has no projects")
	}
	for i, a := range b.Projects {
		if err := checkMatrix(a.Transitions, a.Rewards); err != nil {
			return fmt.Errorf("project %d: %w", i, err)
		}
	}
	_, err := BanditModel(b)
	return err
}

// BanditModel converts the spec into a validated solver model.
func BanditModel(b *BanditSystem) (*bandit.Bandit, error) {
	out := &bandit.Bandit{Beta: b.Beta}
	for i, a := range b.Projects {
		if err := checkMatrix(a.Transitions, a.Rewards); err != nil {
			return nil, fmt.Errorf("project %d: %w", i, err)
		}
		out.Projects = append(out.Projects, &bandit.Project{P: linalg.FromRows(a.Transitions), R: a.Rewards})
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Restless

// ValidateRestless checks the discount and both actions' dynamics.
func ValidateRestless(r *Restless) error {
	_, err := RestlessProject(r)
	return err
}

// RestlessProject converts the spec into a validated solver model.
func RestlessProject(r *Restless) (*restless.Project, error) {
	if !(r.Beta > 0 && r.Beta < 1) {
		return nil, fmt.Errorf("spec: discount beta %v outside (0,1)", r.Beta)
	}
	if err := checkMatrix(r.Passive.Transitions, r.Passive.Rewards); err != nil {
		return nil, fmt.Errorf("passive: %w", err)
	}
	if err := checkMatrix(r.Active.Transitions, r.Active.Rewards); err != nil {
		return nil, fmt.Errorf("active: %w", err)
	}
	if len(r.Passive.Transitions) != len(r.Active.Transitions) {
		return nil, fmt.Errorf("spec: passive has %d states, active %d", len(r.Passive.Transitions), len(r.Active.Transitions))
	}
	p := &restless.Project{
		P: [2]*linalg.Matrix{linalg.FromRows(r.Passive.Transitions), linalg.FromRows(r.Active.Transitions)},
		R: [2][]float64{r.Passive.Rewards, r.Active.Rewards},
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// ---------------------------------------------------------------------------
// Multiclass M/G/1 (with optional Klimov feedback)

// ValidateClass rejects nonpositive rates and means, negative costs, and
// non-finite values.
func ValidateClass(c *Class) error {
	if !(c.Rate > 0) || !finite(c.Rate) {
		return fmt.Errorf("spec: class needs a positive arrival rate, got %v", c.Rate)
	}
	if c.HoldCost < 0 || !finite(c.HoldCost) {
		return fmt.Errorf("spec: class needs a nonnegative holding cost, got %v", c.HoldCost)
	}
	if (c.ServiceMean != 0) == (c.Service != nil) {
		return fmt.Errorf("spec: class needs exactly one of service_mean, service")
	}
	if c.Service != nil {
		return ValidateDist(c.Service)
	}
	if !(c.ServiceMean > 0) || !finite(c.ServiceMean) {
		return fmt.Errorf("spec: class needs a positive service mean, got %v", c.ServiceMean)
	}
	return nil
}

// toClass converts into the queueing model's class, defaulting the name.
func toClass(c *Class, i int) (queueing.Class, error) {
	if err := ValidateClass(c); err != nil {
		return queueing.Class{}, fmt.Errorf("class %d: %w", i, err)
	}
	name := c.Name
	if name == "" {
		name = fmt.Sprintf("c%d", i+1)
	}
	var law dist.Distribution
	if c.Service != nil {
		var err error
		if law, err = DistLaw(c.Service); err != nil {
			return queueing.Class{}, fmt.Errorf("class %d: %w", i, err)
		}
	} else {
		law = dist.Exponential{Rate: 1 / c.ServiceMean}
	}
	return queueing.Class{Name: name, ArrivalRate: c.Rate, Service: law, HoldCost: c.HoldCost}, nil
}

// ValidateMG1 checks every class, the feedback shape, and stability.
func ValidateMG1(m *MG1) error {
	if m.HasFeedback() {
		_, err := KlimovModel(m)
		return err
	}
	_, err := MG1Model(m)
	return err
}

// MG1Model converts a feedback-free spec into a validated queueing model.
func MG1Model(m *MG1) (*queueing.MG1, error) {
	if m.HasFeedback() {
		return nil, fmt.Errorf("spec: system has feedback; use KlimovModel")
	}
	cs, err := classes(m.Classes)
	if err != nil {
		return nil, err
	}
	out := &queueing.MG1{Classes: cs}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// KlimovModel converts the spec into a validated Klimov network (a zero
// feedback matrix is supplied when absent).
func KlimovModel(m *MG1) (*queueing.KlimovNetwork, error) {
	cs, err := classes(m.Classes)
	if err != nil {
		return nil, err
	}
	n := len(cs)
	fb := linalg.NewMatrix(n, n)
	if m.HasFeedback() {
		if len(m.Feedback) != n {
			return nil, fmt.Errorf("spec: feedback has %d rows, want %d", len(m.Feedback), n)
		}
		for i, row := range m.Feedback {
			if len(row) != n {
				return nil, fmt.Errorf("spec: feedback row %d has %d entries, want %d", i, len(row), n)
			}
			for j, v := range row {
				if v < 0 || !finite(v) {
					return nil, fmt.Errorf("spec: feedback[%d][%d] = %v is negative or non-finite", i, j, v)
				}
				fb.Set(i, j, v)
			}
		}
	}
	out := &queueing.KlimovNetwork{Classes: cs, Feedback: fb}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

func classes(list []Class) ([]queueing.Class, error) {
	if len(list) == 0 {
		return nil, fmt.Errorf("spec: system has no classes")
	}
	cs := make([]queueing.Class, len(list))
	for i := range list {
		c, err := toClass(&list[i], i)
		if err != nil {
			return nil, err
		}
		cs[i] = c
	}
	return cs, nil
}

// ---------------------------------------------------------------------------
// Multiclass M/M/m

// MaxServers bounds the server count of an M/M/m spec. The Erlang-C and
// multiserver Cobham computations loop over the servers, so the bound
// keeps every mmm index and simulation a bounded computation.
const MaxServers = 10000

// ValidateMMm checks every class (exponential services only), the server
// count, and stability.
func ValidateMMm(m *MMm) error {
	_, err := MMmModel(m)
	return err
}

// MMmModel converts the spec into a validated queueing model.
func MMmModel(m *MMm) (*queueing.MMm, error) {
	if m.Servers > MaxServers {
		return nil, fmt.Errorf("spec: servers %d above the limit %d", m.Servers, MaxServers)
	}
	cs, err := classes(m.Classes)
	if err != nil {
		return nil, err
	}
	out := &queueing.MMm{Classes: cs, Servers: m.Servers}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Batch

// ValidateBatch checks every job and the machine count.
func ValidateBatch(b *Batch) error {
	_, err := BatchInstance(b)
	return err
}

// BatchInstance converts the spec into a validated solver instance.
func BatchInstance(b *Batch) (*batch.Instance, error) {
	if len(b.Jobs) == 0 {
		return nil, fmt.Errorf("spec: batch has no jobs")
	}
	machines := b.Machines
	if machines == 0 {
		machines = 1
	}
	in := &batch.Instance{Machines: machines}
	for i, j := range b.Jobs {
		if j.Weight < 0 || !finite(j.Weight) {
			return nil, fmt.Errorf("spec: job %d needs a nonnegative weight, got %v", i, j.Weight)
		}
		law, err := DistLaw(&j.Dist)
		if err != nil {
			return nil, fmt.Errorf("job %d: %w", i, err)
		}
		in.Jobs = append(in.Jobs, batch.Job{ID: i, Weight: j.Weight, Dist: law})
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

// ---------------------------------------------------------------------------
// Shared checks

// checkMatrix validates the shape and finiteness of a transition matrix and
// its reward vector (stochasticity is checked by the model's own Validate).
func checkMatrix(rows [][]float64, rewards []float64) error {
	n := len(rows)
	if n == 0 {
		return fmt.Errorf("spec: empty transition matrix")
	}
	for i, row := range rows {
		if len(row) != n {
			return fmt.Errorf("spec: transition row %d has %d entries, want %d", i, len(row), n)
		}
		for j, v := range row {
			if !finite(v) {
				return fmt.Errorf("spec: transition[%d][%d] is not finite", i, j)
			}
		}
	}
	if len(rewards) != n {
		return fmt.Errorf("spec: %d rewards for %d states", len(rewards), n)
	}
	for i, r := range rewards {
		if !finite(r) {
			return fmt.Errorf("spec: reward %d is not finite", i)
		}
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
