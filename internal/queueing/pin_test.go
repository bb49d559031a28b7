package queueing

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"stochsched/internal/dist"
	"stochsched/internal/engine"
	"stochsched/internal/linalg"
	"stochsched/internal/rng"
)

var updatePins = flag.Bool("update", false, "rewrite testdata/simulate_bits.txt from the current simulators")

// pinFloats flattens a SimResult into one float64 list: L, Wq, CostRate,
// then the served counts.
func pinFloats(r *SimResult) []float64 {
	out := append(append([]float64(nil), r.L...), r.Wq...)
	out = append(out, r.CostRate)
	for _, n := range r.Served {
		out = append(out, float64(n))
	}
	return out
}

// pinCases runs every simulator entry point once at a fixed seed and
// returns the name → result floats table TestSimulateBitsPinned compares.
func pinCases(t *testing.T) map[string][]float64 {
	t.Helper()
	must := func(r *SimResult, err error) []float64 {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return pinFloats(r)
	}
	mg1 := &MG1{Classes: []Class{
		{ArrivalRate: 0.3, Service: dist.Exponential{Rate: 2}, HoldCost: 4},
		{ArrivalRate: 0.2, Service: dist.Exponential{Rate: 1}, HoldCost: 1},
		{ArrivalRate: 0.1, Service: dist.Exponential{Rate: 1.5}, HoldCost: 2},
	}}
	order := mg1.CMuOrder()
	mix := RandomMix{
		Disciplines: []Discipline{StaticPriority{Order: []int{0, 1, 2}}, FIFO{}, StaticPriority{Order: []int{2, 1, 0}}},
		Weights:     []float64{0.5, 0.2, 0.3},
	}

	mmm := &MMm{Servers: 3, Classes: []Class{
		{ArrivalRate: 0.8, Service: dist.Exponential{Rate: 1}, HoldCost: 3},
		{ArrivalRate: 0.6, Service: dist.Exponential{Rate: 2}, HoldCost: 1},
		{ArrivalRate: 0.4, Service: dist.Exponential{Rate: 1.25}, HoldCost: 2},
	}}

	fb := linalg.NewMatrix(3, 3)
	fb.Set(0, 1, 0.3)
	fb.Set(0, 2, 0.1)
	fb.Set(1, 0, 0.2)
	fb.Set(2, 1, 0.25)
	klimov := &KlimovNetwork{Feedback: fb, Classes: []Class{
		{ArrivalRate: 0.2, Service: dist.Exponential{Rate: 2}, HoldCost: 2},
		{ArrivalRate: 0.1, Service: dist.Uniform{Lo: 0.2, Hi: 0.8}, HoldCost: 1},
		{ArrivalRate: 0.15, Service: dist.Exponential{Rate: 2.5}, HoldCost: 3},
	}}
	_, korder, err := klimov.KlimovIndices()
	if err != nil {
		t.Fatal(err)
	}

	routed := &Network{Stations: 2, Classes: []NetClass{
		{Station: 0, ArrivalRate: 0.5, Service: dist.Exponential{Rate: 2.5}, HoldCost: 1, Routes: []Route{{To: 1, Prob: 0.6}, {To: 2, Prob: 0.3}}},
		{Station: 1, Service: dist.Exponential{Rate: 2}, HoldCost: 2, Routes: []Route{{To: 2, Prob: 0.5}}},
		{Station: 0, ArrivalRate: 0.2, Service: dist.Exponential{Rate: 3}, HoldCost: 3, Next: -1},
		{Station: 1, ArrivalRate: 0.3, Service: dist.Exponential{Rate: 5.0 / 3}, HoldCost: 1, Next: 0},
	}}
	routedPol := &NetworkPolicy{StationOrder: [][]int{{2, 0}, {3, 1}}}

	out := map[string][]float64{}
	out["mg1/fifo"] = must(mg1.Simulate(FIFO{}, 600, 50, rng.New(101)))
	out["mg1/priority"] = must(mg1.Simulate(StaticPriority{Order: order}, 600, 50, rng.New(102)))
	mix.Stream = rng.New(999)
	out["mg1/randommix"] = must(mg1.Simulate(mix, 600, 50, rng.New(103)))
	out["mg1/preemptive"] = must(mg1.SimulatePreemptive([]int{2, 0, 1}, 600, 50, rng.New(104)))
	rep, err := mg1.Replicate(context.Background(), engine.NewPool(2), mix, 200, 20, 6, rng.New(105))
	if err != nil {
		t.Fatal(err)
	}
	var repFloats []float64
	for j := range rep.L {
		repFloats = append(repFloats, rep.L[j].Mean(), rep.Wq[j].Mean())
	}
	out["mg1/replicate-randommix"] = append(repFloats, rep.CostRate.Mean(), rep.CostRate.CI95())

	out["mmm/priority"] = must(mmm.Simulate(mmm.CMuOrder(), 400, 50, rng.New(201)))
	out["mmm/fifo"] = must(mmm.SimulateFIFO(400, 50, rng.New(202)))

	out["klimov/time-average"] = must(klimov.Simulate(korder, 600, 50, rng.New(301)))
	disc, err := klimov.SimulateDiscounted(korder, 0.05, 200, rng.New(302))
	if err != nil {
		t.Fatal(err)
	}
	out["klimov/discounted"] = []float64{disc}

	for name, tc := range map[string]struct {
		nw     *Network
		pol    *NetworkPolicy
		sample float64
		seed   uint64
	}{
		"network/lukumar-trajectory": {LuKumar(1, 0.1, 0.6, 0.1, 0.6), LuKumarBadPolicy(), 10, 401},
		"network/routed-trajectory":  {routed, routedPol, 7.5, 402},
		"network/routed":             {routed, routedPol, 0, 403},
	} {
		res, err := tc.nw.Simulate(tc.pol, 300, 30, tc.sample, rng.New(tc.seed))
		if err != nil {
			t.Fatal(err)
		}
		f := append(append([]float64(nil), res.L...), res.CostRate)
		out[name] = append(f, res.Trajectory...)
	}

	for _, regime := range []PollingRegime{Exhaustive, Gated, Limited1} {
		p := &Polling{Regime: regime, Switch: dist.Exponential{Rate: 5}, Queues: []Class{
			{ArrivalRate: 0.3, Service: dist.Exponential{Rate: 1 / 0.6}, HoldCost: 2},
			{ArrivalRate: 0.2, Service: dist.Exponential{Rate: 1}, HoldCost: 1},
			{ArrivalRate: 0.1, Service: dist.Deterministic{Value: 0.5}, HoldCost: 3},
		}}
		out["polling/"+regime.String()] = must(p.Simulate(400, 50, rng.New(500+uint64(regime))))
	}
	return out
}

// TestSimulateBitsPinned pins the exact float64 bits of one fixed-seed
// result from every simulator entry point, including the ones no service
// endpoint reaches (SimulatePreemptive, SimulateDiscounted, RandomMix and
// the Network trajectory), to testdata/simulate_bits.txt. Any change to
// stream splitting, event order or arithmetic order shows up here as a
// bit difference. Regenerate with
//
//	go test ./internal/queueing -run TestSimulateBitsPinned -update
//
// only after an intentional output change.
func TestSimulateBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("pins are amd64-exact; running on %s", runtime.GOARCH)
	}
	path := filepath.Join("testdata", "simulate_bits.txt")
	got := pinCases(t)
	if *updatePins {
		var b strings.Builder
		for _, name := range sortedKeys(got) {
			b.WriteString(name)
			for _, v := range got[name] {
				fmt.Fprintf(&b, " %016x", math.Float64bits(v))
			}
			b.WriteByte('\n')
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
	want := map[string][]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) > 0 {
			want[fields[0]] = fields[1:]
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("pin table has %d entries, simulators produced %d", len(want), len(got))
	}
	for _, name := range sortedKeys(got) {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no pinned entry", name)
			continue
		}
		g := got[name]
		if len(w) != len(g) {
			t.Errorf("%s: %d values, pinned %d", name, len(g), len(w))
			continue
		}
		for i, v := range g {
			if h := fmt.Sprintf("%016x", math.Float64bits(v)); h != w[i] {
				t.Errorf("%s[%d]: bits %s (%v), pinned %s", name, i, h, v, w[i])
			}
		}
	}
}

func sortedKeys(m map[string][]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
