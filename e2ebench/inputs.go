package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"regexp"
	"strconv"
	"strings"

	"stochsched/internal/scenario"
	"stochsched/internal/scenario/scenariotest"
	"stochsched/pkg/api"
)

// Every request the benchmark sends is generated here from the run's
// --seed. The daemon never sees the seed itself, only the bodies.

// maxSeed bounds --seed so that seed<<keyBits stays an exact float64 (the
// cold index bodies carry their key as a reward value).
const maxSeed = 1<<31 - 1

// keyBits is the width of the per-run op counter inside a cold key: a run
// may issue up to 2^20 cold ops.
const keyBits = 20

// opKind selects the client call an op makes.
type opKind uint8

const (
	opSimulate opKind = iota // Client.SimulateRaw
	opIndex                  // Client.IndexRaw
	opBatch                  // Client.Batch
	opSweep                  // Client.SweepSubmitRaw + Client.SweepResults
)

func (k opKind) String() string {
	return [...]string{"simulate", "index", "batch", "sweep"}[k]
}

// op is one request the benchmark sends, with what it expects back.
type op struct {
	kind  opKind
	body  []byte            // simulate, index and sweep bodies
	batch *api.BatchRequest // batch ops

	// want holds the reference response of a warm op (want for simulate
	// and index, wantItems for batch); cold ops have none.
	want      []byte
	wantItems []api.BatchItemResult

	key       uint64 // cold and sweep ops: the op's unique key
	precision bool   // target-precision simulate
	sample    bool   // cold and sweep ops: recomputed in-process after the run
}

// splitmix is the SplitMix64 finalizer, used to derive independent
// choices from (seed, index) pairs.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// coldKey is the key of the i-th cold op of a run: distinct for every
// (seed, i) with seed <= maxSeed and i < 2^keyBits.
func coldKey(seed, i uint64) uint64 { return seed<<keyBits | i }

// Keys at the top of each run's key space are reserved for set-up and the
// in-process ladder; the timed phases use the keys below reservedFrom.
const (
	reservedFrom = 1<<keyBits - 128
	primeFrom    = reservedFrom      // set-up's priming ops
	ladderFrom   = reservedFrom + 64 // the in-process ladder's bodies
)

// sampleEvery sets the share of cold and sweep ops whose responses are
// kept and recomputed in-process after the timed phases.
const sampleEvery = 64

// ---------------------------------------------------------------------------
// warm-hits and ring-warm: a fixed working set primed before timing.

// Sizes of the warm working set. Each class holds enough bodies that its
// mean cost, and in a ring the share of it one node owns, hardly varies
// with the seed.
const (
	warmSeedsPerKind = 16 // simulate bodies per kind
	warmLargeIndex   = 32 // 30-state Gittins projects (~14 KB each)
	warmSmallIndex   = 32 // 8-state Gittins projects
	warmBatches      = 48 // batches of three simulate and one small index item
)

// warmSet is the warm workloads' working set, split by class so that
// the op mix can weight the classes independently of their sizes.
type warmSet struct {
	simulate   []*op
	smallIndex []*op // canonical index bodies of every kind, plus 8-state projects
	largeIndex []*op
	batch      []*op
}

// all returns every op of the set, singles first.
func (s *warmSet) all() []*op {
	var out []*op
	for _, g := range [][]*op{s.simulate, s.smallIndex, s.largeIndex, s.batch} {
		out = append(out, g...)
	}
	return out
}

// singles returns the ops whose responses the daemon caches.
func (s *warmSet) singles() []*op {
	var out []*op
	for _, g := range [][]*op{s.simulate, s.smallIndex, s.largeIndex} {
		out = append(out, g...)
	}
	return out
}

// Warm op mix, in percent: simulate hits, small and large index hits,
// and multi-item batches.
const (
	warmPctSimulate   = 55
	warmPctSmallIndex = 20
	warmPctLargeIndex = 10
)

// pick draws one op of the warm mix.
func (s *warmSet) pick(r *rand.Rand) *op {
	g := s.batch
	switch p := r.IntN(100); {
	case p < warmPctSimulate:
		g = s.simulate
	case p < warmPctSimulate+warmPctSmallIndex:
		g = s.smallIndex
	case p < warmPctSimulate+warmPctSmallIndex+warmPctLargeIndex:
		g = s.largeIndex
	}
	return g[r.IntN(len(g))]
}

// newWarmSet builds the working set of a seed.
func newWarmSet(seed uint64) *warmSet {
	r := rand.New(rand.NewPCG(seed, 0x77a2))
	s := &warmSet{}
	for _, kind := range scenariotest.SimulateKinds() {
		for j := 0; j < warmSeedsPerKind; j++ {
			body := scenariotest.SimulateBody(kind, splitmix(seed<<8|uint64(j))%1_000_000_000)
			s.simulate = append(s.simulate, &op{kind: opSimulate, body: []byte(body)})
		}
	}
	for _, kind := range scenario.IndexKinds() {
		if body := scenariotest.IndexBody(kind); body != "" {
			s.smallIndex = append(s.smallIndex, &op{kind: opIndex, body: []byte(body)})
		}
	}
	for j := 0; j < warmSmallIndex; j++ {
		s.smallIndex = append(s.smallIndex, &op{kind: opIndex, body: banditIndexBody(r, 8, "")})
	}
	for j := 0; j < warmLargeIndex; j++ {
		s.largeIndex = append(s.largeIndex, &op{kind: opIndex, body: banditIndexBody(r, 30, "")})
	}
	for j := 0; j < warmBatches; j++ {
		req := &api.BatchRequest{}
		for _, g := range [][]*op{s.simulate, s.simulate, s.simulate, s.smallIndex} {
			o := g[r.IntN(len(g))]
			req.Items = append(req.Items, api.BatchItem{Op: o.kind.String(), Body: o.body})
		}
		s.batch = append(s.batch, &op{kind: opBatch, batch: req})
	}
	return s
}

// banditIndexBody is a /v1/index body for a random n-state Gittins
// project. A non-empty lastReward pins the final reward, which is how cold
// bodies carry their unique key.
func banditIndexBody(r *rand.Rand, n int, lastReward string) []byte {
	var sb strings.Builder
	sb.WriteString(`{"kind":"bandit","bandit":{"beta":0.9,"transitions":[`)
	row := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := 0.0
		for j := range row {
			row[j] = 0.01 + r.Float64()
			sum += row[j]
		}
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteByte('[')
		for j := range row {
			if j > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(strconv.FormatFloat(row[j]/sum, 'g', 12, 64))
		}
		sb.WriteByte(']')
	}
	sb.WriteString(`],"rewards":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		if i == n-1 && lastReward != "" {
			sb.WriteString(lastReward)
		} else {
			sb.WriteString(strconv.FormatFloat(r.Float64(), 'g', 12, 64))
		}
	}
	sb.WriteString(`]}}`)
	return []byte(sb.String())
}

// ---------------------------------------------------------------------------
// cold-compute: every op is a spec the daemon has never seen.

// coldKinds is the fixed-budget simulate rotation of the cold mix, each
// kind with the replication count that makes one op cost about 1 ms of
// compute on the reference box. Similar costs keep the latency
// distribution unimodal, so its median is steady. The four kinds that run
// on internal/des appear twice per rotation and carry about two fifths
// of the cold compute.
var coldKinds = []struct {
	kind string
	reps int
}{
	{"mg1", 6}, {"mmm", 4}, {"jackson", 4}, {"polling", 2},
	{"bandit", 120}, {"batch", 2000}, {"flowshop", 600}, {"mdp", 80}, {"restless", 6},
	{"mg1", 6}, {"mmm", 4}, {"jackson", 4}, {"polling", 2},
}

// precisionKinds are the kinds the cold mix sends in target-precision
// mode: those whose stopping rule settles within a few ms.
var precisionKinds = []string{"bandit", "batch", "flowshop", "mdp"}

// precisionTail replaces a canonical body's fixed replication budget.
const precisionTail = `"precision":{"target_ci95":0.02,"max_replications":4096}}`

// withPrecision swaps the trailing "replications" member of a canonical
// simulate body for a target-precision block.
func withPrecision(body string) string {
	i := strings.LastIndex(body, `"replications":`)
	return body[:i] + precisionTail
}

// withReplications swaps the trailing "replications" member of a
// canonical simulate body for another fixed budget.
func withReplications(body string, reps int) string {
	i := strings.LastIndex(body, `"replications":`)
	return body[:i] + `"replications":` + strconv.Itoa(reps) + "}"
}

// The cold mix deals its ops from a deck of coldDeck slots: coldIndex
// fresh-spec index ops, coldPrecision target-precision simulate ops, and
// fixed-budget simulate ops in the rest (15%, 15% and 70%).
const (
	coldDeck      = 20
	coldIndex     = 3
	coldPrecision = 3
)

// coldIndexStates sizes the fresh Gittins projects of the cold mix so
// that computing one costs about as much as a fixed-budget simulate op.
const coldIndexStates = 16

// coldOp returns the i-th op of a seed's cold stream. Simulate ops carry
// the key as their seed; index ops carry it as the last reward of the
// project, written exactly, so no two keys share a body.
func coldOp(seed, i uint64) *op {
	key := coldKey(seed, i)
	o := &op{key: key, sample: splitmix(key)%sampleEvery == 0}
	round, slot := i/coldDeck, i%coldDeck
	switch {
	case slot < coldIndex:
		o.kind = opIndex
		r := rand.New(rand.NewPCG(key, 0x1d3))
		reward := strconv.FormatFloat(float64(key)/(1<<keyBits), 'g', -1, 64)
		o.body = banditIndexBody(r, coldIndexStates, reward)
	case slot < coldIndex+coldPrecision:
		o.kind = opSimulate
		o.precision = true
		kind := precisionKinds[(round*coldPrecision+slot-coldIndex)%uint64(len(precisionKinds))]
		o.body = []byte(withPrecision(scenariotest.SimulateBody(kind, key)))
	default:
		o.kind = opSimulate
		const simSlots = coldDeck - coldIndex - coldPrecision
		k := coldKinds[(round*simSlots+slot-coldIndex-coldPrecision)%uint64(len(coldKinds))]
		o.body = []byte(withReplications(scenariotest.SimulateBody(k.kind, key), k.reps))
	}
	return o
}

// ---------------------------------------------------------------------------
// sweep: small fresh-seed grids over the queueing kinds.

// sweepShape is one queueing kind's grid: an arrival-rate axis, the
// policies compared at each point, and the replications and horizon of
// every cell, sized so that each shape's sweep costs about the same (the
// canonical burn-in of 50 stays below every horizon).
type sweepShape struct {
	kind     string
	path     string
	values   []float64
	policies []string
	reps     int
	horizon  int
}

// horizonRE matches the horizon member of a canonical queueing body.
var horizonRE = regexp.MustCompile(`"horizon":[0-9.]+`)

var sweepShapes = []sweepShape{
	{"mg1", "mg1.spec.classes.0.rate", []float64{0.2, 0.3}, []string{"cmu", "fifo"}, 4, 100},
	{"mmm", "mmm.spec.classes.0.rate", []float64{0.6, 0.8}, []string{"cmu", "fifo"}, 2, 120},
	{"jackson", "jackson.spec.classes.0.rate", []float64{0.6, 0.8}, []string{"cmu", "fcfs", "lbfs"}, 2, 100},
	{"polling", "polling.spec.queues.0.rate", []float64{0.3, 0.4}, []string{"exhaustive", "gated"}, 2, 70},
}

// sweepOp returns the i-th op of a seed's sweep stream: a grid over one
// queueing kind whose base carries the op's unique key as its seed.
func sweepOp(seed, i uint64) *op {
	key := coldKey(seed, i)
	sh := sweepShapes[i%uint64(len(sweepShapes))]
	base := withReplications(scenariotest.SimulateBody(sh.kind, key), sh.reps)
	base = horizonRE.ReplaceAllString(base, `"horizon":`+strconv.Itoa(sh.horizon))
	req := api.SweepRequest{
		Base:     json.RawMessage(base),
		Grid:     api.Grid{Axes: []api.Axis{{Path: sh.path, Values: sh.values}}},
		Policies: sh.policies,
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(fmt.Sprintf("e2ebench: encoding sweep %d: %v", i, err))
	}
	return &op{kind: opSweep, body: body, key: key, sample: splitmix(key)%(sampleEvery/4) == 0}
}

// coldPrimeOps are the cold workloads' priming requests: one op of every
// shape the timed phases send, on reserved keys.
func coldPrimeOps(wl string, seed uint64) []*op {
	var out []*op
	if wl == "sweep" {
		for j := uint64(0); j < uint64(len(sweepShapes)); j++ {
			out = append(out, sweepOp(seed, primeFrom+j))
		}
		return out
	}
	for j := uint64(0); j < coldDeck; j++ {
		out = append(out, coldOp(seed, primeFrom+j))
	}
	return out
}
