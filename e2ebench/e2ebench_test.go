package main

import (
	"bytes"
	"context"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"stochsched/internal/scenario"
	"stochsched/internal/service"
	"stochsched/internal/sweep"
	"stochsched/pkg/api"
	"stochsched/pkg/client"
)

// cacheKey is the daemon's cache key of a simulate or index body.
func cacheKey(t *testing.T, o *op) string {
	t.Helper()
	switch o.kind {
	case opSimulate:
		r, err := scenario.ParseRequest(o.body, daemonLimits)
		if err != nil {
			t.Fatalf("parsing %s: %v", o.body, err)
		}
		return "simulate:" + r.Hash()
	case opIndex:
		r, err := scenario.ParseIndexRequest(o.body)
		if err != nil {
			t.Fatalf("parsing %s: %v", o.body, err)
		}
		return r.Family() + ":" + r.Hash()
	}
	t.Fatalf("no cache key for a %s op", o.kind)
	return ""
}

func TestSameSeedSameInputs(t *testing.T) {
	body := func(o *op) string {
		if o.batch != nil {
			var sb strings.Builder
			for _, it := range o.batch.Items {
				sb.WriteString(it.Op)
				sb.Write(it.Body)
			}
			return sb.String()
		}
		return string(o.body)
	}
	bodies := func(seed uint64) []string {
		var out []string
		for _, o := range newWarmSet(seed).all() {
			out = append(out, body(o))
		}
		for i := uint64(0); i < 200; i++ {
			out = append(out, body(coldOp(seed, i)), body(sweepOp(seed, i)))
		}
		for _, wl := range []string{"cold-compute", "sweep"} {
			for _, o := range coldPrimeOps(wl, seed) {
				out = append(out, body(o))
			}
		}
		return out
	}
	a, b, c := bodies(7), bodies(7), bodies(8)
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Fatal("seed 7 generated different inputs on two calls")
	}
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	// The canonical index bodies of every kind are shared by all seeds.
	if same > len(scenario.IndexKinds()) {
		t.Fatalf("seeds 7 and 8 share %d of %d bodies", same, len(a))
	}

	// The warm mix draws the same sequence from the same stream.
	set := newWarmSet(7)
	r1, r2 := rand.New(rand.NewPCG(1, 2)), rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 1000; i++ {
		if set.pick(r1) != set.pick(r2) {
			t.Fatalf("pick %d differs between two identical streams", i)
		}
	}
}

func TestColdKeysNeverRepeat(t *testing.T) {
	seen := map[string]uint64{}
	seeds := []uint64{0, 1, 2, maxSeed}
	for _, seed := range seeds {
		for _, i := range []uint64{0, 1, 2, 3, reservedFrom - 1} {
			for j := uint64(0); j < 1500; j++ {
				o := coldOp(seed, (i*1500+j)%reservedFrom)
				k := cacheKey(t, o)
				if prev, dup := seen[k]; dup && prev != o.key {
					t.Fatalf("cold ops %d and %d share the cache key %s", prev, o.key, k)
				}
				seen[k] = o.key
			}
		}
	}
	// Sweep bases carry the key as their seed, so no two sweeps share a
	// cell either.
	bases := map[string]bool{}
	for _, seed := range seeds {
		for i := uint64(0); i < 2000; i++ {
			req, err := sweep.DecodeRequest(sweepOp(seed, i).body)
			if err != nil {
				t.Fatal(err)
			}
			if bases[string(req.Base)] {
				t.Fatalf("sweep base repeats: %s", req.Base)
			}
			bases[string(req.Base)] = true
		}
	}
	if coldKey(maxSeed, reservedFrom-1) >= 1<<53 {
		t.Fatal("cold keys no longer fit a float64 exactly")
	}
}

func TestWarmSetFitsDefaultCache(t *testing.T) {
	set := newWarmSet(3)
	keys := map[string]bool{}
	for _, o := range set.singles() {
		keys[cacheKey(t, o)] = true
	}
	if len(keys) < 200 {
		t.Fatalf("warm set has %d distinct cached bodies, want a few hundred", len(keys))
	}
	// Priming a default-configured service with the whole set, batches
	// included, must leave every body cached and evict nothing.
	svc := service.New(service.Config{})
	c := client.NewInProcess(svc.Handler())
	ctx := context.Background()
	if err := setReferences(ctx, set); err != nil {
		t.Fatal(err)
	}
	d := newDriver("http://in-process", client.InProcessDoer(svc.Handler()), 2, set.pick)
	if err := prime(ctx, []*driver{d}, set.all()); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache.Evictions != 0 || st.Cache.Entries != len(keys) {
		t.Fatalf("after priming: %d entries, %d evictions; want %d entries, none evicted",
			st.Cache.Entries, st.Cache.Evictions, len(keys))
	}
	// And a second pass is all hits.
	before := hits(st)
	if err := prime(ctx, []*driver{d}, set.singles()); err != nil {
		t.Fatal(err)
	}
	if st, err = c.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	if got := hits(st) - before; got != int64(len(set.singles())) {
		t.Fatalf("second pass: %d hits for %d singles", got, len(set.singles()))
	}
}

func hits(st *api.StatsResponse) int64 {
	var c counters
	c.add(st, true)
	return c.hits
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{100000, 0.9999},
		{99999, 0.999},
		{10000, 0.999},
		{1000, 0.99},
		{999, 0.9},
		{100, 0.9},
		{20, 0.5},
		{19, 0},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
		if q := tailPercentile(tc.n); q > 0 && beyond(tc.n, q) < 10 {
			t.Errorf("n=%d: p%g leaves %d samples beyond it", tc.n, 100*q, beyond(tc.n, q))
		}
	}
	// A failed op is an infinite latency and sorts into the tail.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	for i := 0; i < 11; i++ {
		xs[i] = math.Inf(1)
	}
	if got := quantile(xs, 0.99); !math.IsInf(got, 1) {
		t.Fatalf("p99 with 11 failures in 1000 = %g, want +Inf", got)
	}
}

// stallDoer answers every request with the same body, stalling once.
type stallDoer struct {
	body    []byte
	stallAt int64
	stall   time.Duration
	n       atomic.Int64
}

func (d *stallDoer) Do(req *http.Request) (*http.Response, error) {
	if d.n.Add(1)-1 == d.stallAt {
		time.Sleep(d.stall)
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"X-Request-Id": {"x"}},
		Body:       io.NopCloser(bytes.NewReader(d.body)),
	}, nil
}

func TestLatencyFromDueTime(t *testing.T) {
	const (
		rate  = 200.0 // ops/s: one due every 5ms
		stall = 200 * time.Millisecond
		at    = 20
	)
	answer := []byte(`{"ok":true}`)
	o := &op{kind: opSimulate, body: []byte(`{}`), want: answer}
	tr := &stallDoer{body: answer, stallAt: at, stall: stall}
	d := newDriver("http://fake", tr, 1, func(*rand.Rand) *op { return o })
	samples := d.openLoop(context.Background(), rate, 100, 1)
	if len(samples) != 100 {
		t.Fatalf("%d samples, want 100", len(samples))
	}
	// The stalled op and every op due during the stall waited for the one
	// sender: each carries the rest of the stall in its latency.
	interval := 1e3 / rate
	for i := at; i < at+30; i++ {
		want := ms(stall) - float64(i-at)*interval
		if want <= 0 {
			break
		}
		if samples[i].lat < want-1 {
			t.Errorf("op %d: latency %.1fms, want at least %.1fms", i, samples[i].lat, want)
		}
	}
	// The generator itself kept its schedule: the stall shows in latency,
	// not as generator lag.
	var late []float64
	for _, s := range samples {
		late = append(late, s.late)
	}
	if lp := quantile(late, 0.99); lp > 50 {
		t.Fatalf("generator lag p99 %.1fms under a sender stall", lp)
	}
}

func TestCombineDropsLateSegments(t *testing.T) {
	seg := func(late float64) segment {
		samples := make([]sample, minSegment)
		for i := range samples {
			samples[i] = sample{lat: 1, late: late}
		}
		return newSegment(samples, time.Second, 1000)
	}
	segs := []segment{seg(100), seg(0), seg(0), seg(0), seg(0)}
	st := combine(segs)
	if st.segments != 5 || st.valid != 4 || st.n != 4*minSegment || !st.ok() {
		t.Fatalf("got %d of %d segments valid, %d samples", st.valid, st.segments, st.n)
	}
	if st.cpuPerOp != 1000 {
		t.Fatalf("cpu per op %gµs, want 1000µs (1s over 1000 ops)", st.cpuPerOp)
	}
	if st := combine([]segment{seg(100), seg(100), seg(0), seg(100)}); st.ok() {
		t.Fatal("a phase with 3 of 4 segments late is reported valid")
	}
}

func TestCompareRefusesDifferentNproc(t *testing.T) {
	a := &record{Stamp: stamp{NProc: 2, GoMaxProcs: 2}, Workload: "warm-hits", Metrics: map[string]metric{"p50_ms": {1, "ms"}}}
	b := &record{Stamp: stamp{NProc: 4, GoMaxProcs: 4}, Workload: "warm-hits", Metrics: map[string]metric{"p50_ms": {1, "ms"}}}
	var out, errOut bytes.Buffer
	if code := compareRecords(a, b, &out, &errOut); code == 0 || !strings.Contains(errOut.String(), "refusing") {
		t.Fatalf("compare across nproc: exit %d, stderr %q", code, errOut.String())
	}
	if code := compareRecords(a, a, &out, &errOut); code != 0 {
		t.Fatalf("compare at equal nproc: exit %d", code)
	}
}

func TestQuieterKeepsTiesAndSpansRun(t *testing.T) {
	steals := func(rs []round) []float64 {
		var out []float64
		for _, rd := range rs {
			out = append(out, rd.steal)
		}
		return out
	}
	// A host that steals nothing: every round ties, and every round is kept.
	if got := quieter(make([]round, 6)); len(got) != 6 {
		t.Fatalf("kept %d of 6 tied rounds, want all", len(got))
	}
	rs := []round{{steal: 0.2}, {steal: 0.01}, {steal: 0.3}, {steal: 0.02}, {steal: 0.02}, {steal: 0.01}}
	got := steals(quieter(rs))
	want := []float64{0.01, 0.02, 0.02, 0.01}
	if len(got) != len(want) {
		t.Fatalf("kept steals %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("kept steals %v, want %v in run order", got, want)
		}
	}
}

func TestRecordKeepsEveryEndToEndMetric(t *testing.T) {
	res := &result{workload: "warm-hits", correct: true, valid: true, metrics: map[string]metric{},
		reported: map[string]metric{"error_ratio": {0, "ratio"}}}
	res.putEndToEnd(0.4, 3000, openStats{p50: 0.3, p99: 1.2, cpuPerOp: 350}, 17.8)
	path := t.TempDir() + "/run.json"
	if err := writeRecord(path, stamp{NProc: 2, GoMaxProcs: 2}, res); err != nil {
		t.Fatal(err)
	}
	rec, err := readRecord(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"setup_s", "ops_per_s", "p50_ms", "p99_ms", "cpu_us_per_op", "rss_mb", "error_ratio"} {
		if _, ok := rec.Metrics[name]; !ok {
			t.Errorf("run record lacks %s: %v", name, rec.Metrics)
		}
	}
}

func TestCheckMix(t *testing.T) {
	for _, tc := range []struct {
		workload string
		d        counters
		ok       bool
	}{
		{"warm-hits", counters{hits: 100}, true},
		{"warm-hits", counters{hits: 100, misses: 1}, false},
		{"warm-hits", counters{}, false},
		{"ring-warm", counters{hits: 100, forwards: 50}, true},
		{"ring-warm", counters{hits: 100}, false},
		{"ring-warm", counters{hits: 100, misses: 1, forwards: 50}, false},
		{"cold-compute", counters{misses: 100}, true},
		{"cold-compute", counters{hits: 1, misses: 100}, false},
		{"sweep", counters{misses: 100}, true},
		{"sweep", counters{hits: 1, misses: 100}, false},
	} {
		if why := checkMix(tc.workload, tc.d); (why == "") != tc.ok {
			t.Errorf("%s %+v: check %q, want ok=%t", tc.workload, tc.d, why, tc.ok)
		}
	}
}
