// Command e2ebench is stochsched's end-to-end benchmark: it starts the
// real stochschedd on loopback, drives it through pkg/client with inputs
// generated from --seed, checks every answer's bytes, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer ladder). See
// README.md for the metrics, the workloads and how to run it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"math/rand/v2"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// workload is one traffic mix.
type workload struct {
	name  string
	nodes int     // daemons; 2 forms a -peers ring
	rate  float64 // open-loop ops/s: a little under half the closed-loop capacity
}

var workloads = []workload{
	{"warm-hits", 1, 1800},
	{"cold-compute", 1, 400},
	{"sweep", 1, 280},
	{"ring-warm", 2, 900},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config is the parsed command line.
type config struct {
	seed    uint64
	seconds int
	trace   bool
	daemon  string
	logDir  string
	out     string
	conns   int
	procs   int // GOMAXPROCS the daemons run with
}

// A run sets the daemons up at least minSetups times and until
// setupBudget has passed, at most maxSetups times; setup_s is the median,
// and the last set-up is the one measured.
const (
	minSetups   = 5
	maxSetups   = 60
	setupBudget = 2 * time.Second
)

// The timed phases run in at most maxRounds rounds, each a closed-loop
// stretch and an open-loop segment of at least minSegment ops; the
// closed-loop stretches hold about closedWindows windows in all.
const (
	maxRounds     = 25
	closedWindows = 20
)

// Phase shares of --seconds.
const (
	closedShare = 0.3
	openShare   = 0.7
	tracedShare = 0.3  // traced run: the traced closed-loop phase
	ladderShare = 0.25 // traced run: the in-process ladder
)

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's run.
type result struct {
	workload  string
	correct   bool
	attempted int64
	failed    int64
	valid     bool              // the open-loop phase kept its schedule
	metrics   map[string]metric // the result line: end-to-end or per-layer
	reported  map[string]metric // printed by name, but not in the result line
	extra     []string          // human-readable lines printed before them
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	name := fs.String("workload", "", "workload to run, or all: "+workloadNames())
	fs.Uint64Var(&cfg.seed, "seed", 1, fmt.Sprintf("input seed, 0..%d", maxSeed))
	fs.IntVar(&cfg.seconds, "seconds", 10, "measured seconds per run")
	traceN := fs.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	fs.StringVar(&cfg.daemon, "daemon", "", "path of the stochschedd binary")
	fs.StringVar(&cfg.logDir, "logdir", ".", "directory for the daemons' output files")
	fs.StringVar(&cfg.out, "out", "", "write the run record (stamp and every printed metric) as JSON to this file, for compare")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *traceN == 1
	// The benchmark shares the cores with the daemons it measures. One P
	// and rarer garbage collection keep its own work out of their way;
	// its callers mostly wait on sockets.
	cfg.procs = runtime.GOMAXPROCS(1)
	debug.SetGCPercent(400)
	cfg.conns = runtime.NumCPU()
	switch {
	case cfg.seed > maxSeed:
		fmt.Fprintf(stderr, "e2ebench: --seed %d above %d\n", cfg.seed, maxSeed)
		return 2
	case cfg.seconds < 1:
		fmt.Fprintln(stderr, "e2ebench: --seconds must be at least 1")
		return 2
	case *traceN != 0 && *traceN != 1:
		fmt.Fprintln(stderr, "e2ebench: --trace must be 0 or 1")
		return 2
	case cfg.daemon == "":
		fmt.Fprintln(stderr, "e2ebench: --daemon is required (run.sh builds and passes it)")
		return 2
	}
	var list []workload
	if *name == "all" {
		list = workloads
	} else if w, ok := findWorkload(*name); ok {
		list = []workload{w}
	} else {
		fmt.Fprintf(stderr, "e2ebench: unknown --workload %q (want %s or all)\n", *name, workloadNames())
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	st := newStamp(cfg)
	fmt.Fprintln(stdout, st)
	var results []*result
	for _, w := range list {
		res, err := runWorkload(ctx, cfg, w)
		if err != nil {
			fmt.Fprintf(stderr, "e2ebench: %s: %v\n", w.name, err)
			return 1
		}
		for _, l := range res.extra {
			fmt.Fprintln(stdout, l)
		}
		printMetrics(stdout, res)
		if cfg.out != "" {
			path := cfg.out
			if len(list) > 1 {
				path = strings.TrimSuffix(path, ".json") + "-" + w.name + ".json"
			}
			if err := writeRecord(path, st, res); err != nil {
				fmt.Fprintf(stderr, "e2ebench: %v\n", err)
				return 1
			}
		}
		results = append(results, res)
	}
	line, code := finalLine(results)
	if line == nil {
		fmt.Fprintln(stderr, "e2ebench: an open-loop phase fell behind its schedule; its latencies are not reported")
		return code
	}
	enc, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(enc))
	return code
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// finalLine folds the runs into the result line and picks the exit code:
// 1 when an answer was wrong or an op failed, 3 (and no line) when an
// open-loop phase was invalid.
func finalLine(results []*result) (*resultLine, int) {
	line := &resultLine{Correct: true, Metrics: map[string]metric{}}
	code := 0
	for _, r := range results {
		if !r.valid {
			return nil, 3
		}
		line.Correct = line.Correct && r.correct
		line.Attempted += r.attempted
		line.Failed += r.failed
		for k, v := range r.metrics {
			if len(results) > 1 {
				k = r.workload + "." + k
			}
			if math.IsInf(v.Value, 0) {
				v.Value = math.MaxFloat64
			}
			line.Metrics[k] = v
		}
	}
	if !line.Correct || line.Failed > 0 {
		code = 1
	}
	return line, code
}

// printMetrics prints every metric of a run by name with its unit, the
// result line's first and then those reported only here.
func printMetrics(w io.Writer, r *result) {
	for _, set := range []struct {
		m    map[string]metric
		note string
	}{{r.metrics, ""}, {r.reported, "  (reported, not in BENCHMARK.json)"}} {
		names := make([]string, 0, len(set.m))
		for k := range set.m {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(w, "%-14s %-28s %14.6g %s%s\n", r.workload, k, set.m[k].Value, set.m[k].Unit, set.note)
		}
	}
}

// runWorkload sets the daemons up, runs the phases, checks the answers
// and assembles the metrics.
func runWorkload(ctx context.Context, cfg config, w workload) (*result, error) {
	seconds := float64(cfg.seconds)
	phase := func(share float64) time.Duration { return time.Duration(share * seconds * float64(time.Second)) }
	rate := w.rate

	// Inputs, and for the warm workloads the in-process reference answers.
	var warm *warmSet
	var next func(r *rand.Rand) *op
	var primeOps []*op
	var coldNext atomic.Uint64
	switch w.name {
	case "warm-hits", "ring-warm":
		warm = newWarmSet(cfg.seed)
		if err := setReferences(ctx, warm); err != nil {
			return nil, err
		}
		primeOps = warm.all()
		next = warm.pick
	case "cold-compute", "sweep":
		gen := coldOp
		if w.name == "sweep" {
			gen = sweepOp
		}
		next = func(*rand.Rand) *op {
			i := coldNext.Add(1) - 1
			if i >= reservedFrom {
				panic("e2ebench: cold key space exhausted")
			}
			return gen(cfg.seed, i)
		}
		primeOps = coldPrimeOps(w.name, cfg.seed)
	}

	// Set-up: start, wait for /readyz, prime. Every set-up but the last is
	// torn down again.
	var nodes []*node
	var setups []float64
	begin := time.Now()
	for {
		start := time.Now()
		var err error
		nodes, err = startNodes(cfg.daemon, cfg.logDir, w.nodes, cfg.conns)
		if err != nil {
			return nil, err
		}
		err = waitReady(ctx, nodes)
		if err == nil && primeOps != nil {
			var ds []*driver
			for _, nd := range nodes {
				ds = append(ds, newDriver(nd.url, nd.http, cfg.conns, next))
			}
			err = prime(ctx, ds, primeOps)
		}
		if err != nil {
			stopNodes(nodes)
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if n := len(setups); n >= maxSetups || n >= minSetups && time.Since(begin) >= setupBudget {
			break
		}
		stopNodes(nodes)
	}
	defer stopNodes(nodes)

	d := newDriver(nodes[0].url, nodes[0].http, cfg.conns, next)
	tr := newTracer(nodes[0])
	stream := splitmix(cfg.seed ^ 0x5eed)

	// Warm-up, untimed: connections open and the runtimes settle.
	d.closedLoop(ctx, min(time.Second, phase(0.1)), 1, stream, nil)
	attempted0, errors0 := d.attempted.Load(), d.errorCount()

	// The timed phases alternate in rounds, a closed-loop stretch and then
	// one open-loop segment, so that the median of each metric samples the
	// whole run rather than one contiguous stretch of it.
	openOps := int(rate * phase(openShare).Seconds())
	rounds := min(maxRounds, openOps/minSegment)
	if rounds == 0 {
		return nil, fmt.Errorf("an open loop of %d ops at %.0f ops/s is too short for a p99; raise --seconds", openOps, rate)
	}
	windows := (closedWindows + rounds - 1) / rounds
	c0, err := readCounters(ctx, nodes)
	if err != nil {
		return nil, err
	}
	self0 := selfCPU()
	steal0, err := hostSteal()
	if err != nil {
		return nil, err
	}
	timedStart := time.Now()
	var all []round
	for r := uint64(0); r < uint64(rounds); r++ {
		var rd round
		st0, err := hostSteal()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		rd.rates = d.closedLoop(ctx, phase(closedShare)/time.Duration(rounds), windows, stream+1+2*r, nil)
		cpu0, err := nodesCPU(nodes)
		if err != nil {
			return nil, err
		}
		samples := d.openLoop(ctx, rate, openOps/rounds, stream+2+2*r)
		cpu1, err := nodesCPU(nodes)
		if err != nil {
			return nil, err
		}
		st1, err := hostSteal()
		if err != nil {
			return nil, err
		}
		rd.seg = newSegment(samples, cpu1-cpu0, rate)
		rd.steal = float64(st1-st0) / float64(time.Since(start)) / float64(runtime.NumCPU())
		all = append(all, rd)
	}
	timedWall := time.Since(timedStart)
	loadgenCPU := selfCPU() - self0
	steal1, err := hostSteal()
	if err != nil {
		return nil, err
	}
	stealRatio := float64(steal1-steal0) / float64(timedWall) / float64(runtime.NumCPU())
	c1, err := readCounters(ctx, nodes)
	if err != nil {
		return nil, err
	}
	var rates []float64
	var segs []segment
	for _, rd := range quieter(all) {
		rates = append(rates, rd.rates...)
		segs = append(segs, rd.seg)
	}
	opsPerS := median(rates)
	open := combine(segs)

	// The traced run: the same closed loop again, with every call resolved
	// into the daemon's span tree.
	var tracedOps float64
	var c2, c3 counters
	if cfg.trace {
		if c2, err = readCounters(ctx, nodes); err != nil {
			return nil, err
		}
		tracedOps = median(d.closedLoop(ctx, phase(tracedShare), closedWindows, stream^0x7ace, tr.observe))
		if c3, err = readCounters(ctx, nodes); err != nil {
			return nil, err
		}
	}
	rss, err := nodesHWM(nodes)
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	stopNodes(nodes)

	checked, wrongKept, err := recheck(ctx, d.kept)
	if err != nil {
		return nil, err
	}
	attempted := d.attempted.Load() - attempted0
	failed := d.errorCount() - errors0 + int64(wrongKept)
	res := &result{
		workload:  w.name,
		correct:   d.wrong.Load() == 0 && wrongKept == 0,
		attempted: attempted,
		failed:    failed,
		valid:     open.ok(),
		metrics:   map[string]metric{},
		reported:  map[string]metric{"error_ratio": {ratio(float64(failed), float64(attempted)), "ratio"}},
	}
	res.extra = append(res.extra,
		fmt.Sprintf("%-14s %d rounds; the host stole %.1f%% of the CPUs, and the %d quieter rounds are reported",
			w.name, rounds, 100*stealRatio, open.segments),
		fmt.Sprintf("%-14s open loop at %.0f ops/s: %d samples in %d of %d segments kept their schedule (late p99 %.3f ms, limit %.1f ms); tail p%g = %.4f ms",
			w.name, rate, open.n, open.valid, open.segments, open.lateP99, lateLimitMs(rate), 100*open.tailQ, open.tail),
		fmt.Sprintf("%-14s segment p99s %.3v", w.name, open.segP99),
		fmt.Sprintf("%-14s answers: %d wrong of %d attempted; %d sampled answers recomputed in-process, %d differ",
			w.name, d.wrong.Load(), attempted, checked, wrongKept),
	)
	// Every timed op of a warm workload is a cache hit, no cold or sweep op
	// is one, and the ring forwards; a run whose counters say otherwise
	// measured another workload.
	timed := c1.sub(c0)
	if why := checkMix(w.name, timed); why != "" {
		res.correct = false
		res.extra = append(res.extra, fmt.Sprintf("%-14s workload check failed: %s", w.name, why))
	}
	if !cfg.trace {
		res.putEndToEnd(median(setups), opsPerS, open, rss)
		return res, nil
	}

	lad, err := ladder(ctx, newLadderInputs(w.name, cfg.seed, warm), phase(ladderShare), cfg.procs)
	if err != nil {
		return nil, err
	}
	for k, v := range lad {
		res.metrics[k] = metric{v, ladderUnit(k)}
	}
	// Every caller has returned, so the tracer's samples are read without
	// its lock.
	traced := c3.sub(c2)
	put := func(name string, v float64, unit string) { res.metrics[name] = metric{v, unit} }
	put("client.call_us", median(tr.call), "us")
	put("client.outside_handler_us", median(tr.outside), "us")
	put("client.retries", float64(d.doer.attempts.Load()-d.calls.Load()), "count")
	put("service.handler_us", median(tr.handler), "us")
	put("service.parse_us", median(tr.parse), "us")
	put("service.cache_us", median(tr.cacheHit), "us")
	put("service.write_us", median(tr.write), "us")
	put("service.admission_wait_us", quantile(tr.admission, 0.99), "us")
	put("service.queue_wait_us", ratio(float64(timed.queueWaitNs)/1e3, float64(timed.misses)), "us")
	put("service.cache_hit_ratio", ratio(float64(timed.hits), float64(timed.hits+timed.misses)), "ratio")
	put("service.dedup_ratio", ratio(float64(timed.dedup), float64(timed.misses)), "ratio")
	put("service.cache_evictions", float64(timed.evictions), "count")
	put("service.shed", float64(timed.shed), "count")
	put("scenario.reps_used_ratio", ratio(float64(d.repsUsed.Load()), float64(d.repsMax.Load())), "ratio")
	put("engine.busy_ratio", ratio(float64(timed.busyNs), float64(timedWall)*float64(timed.workers)), "ratio")
	put("engine.inline_ratio", ratio(float64(timed.chunksInline), float64(timed.chunksInline+timed.chunksDispatched)), "ratio")
	put("sweep.cells_per_s", ratio(float64(timed.cellsExecuted), float64(timed.sweepComputeNs)/1e9), "1/s")
	put("sweep.first_row_ms", median(tr.firstRowMs), "ms")
	put("cluster.forward_us", ratio(float64(timed.forwardNs)/1e3, float64(timed.forwards)), "us")
	put("cluster.forward_span_us", median(tr.forward), "us")
	put("cluster.forward_ratio", ratio(float64(timed.forwards), float64(timed.entryCalls)), "ratio")
	put("cluster.forward_errors", float64(timed.forwardErrors+traced.forwardErrors), "count")
	put("loadgen.late_p99_ms", open.lateP99, "ms")
	put("loadgen.cpu_ms", ms(loadgenCPU), "ms")
	put("host.steal_ratio", stealRatio, "ratio")
	put("trace.ops_per_s", tracedOps, "ops/s")
	put("trace.overhead_ops_per_s", opsPerS-tracedOps, "ops/s")
	put("trace.overhead_ratio", ratio(opsPerS-tracedOps, opsPerS), "ratio")
	put("trace.missing", float64(tr.missing), "count")
	return res, nil
}

// putEndToEnd files the end-to-end metrics of an untraced run. The result
// line carries those that hold steady from run to run on a shared host;
// throughput, latency and the error ratio are printed (see README.md,
// "End-to-end metrics").
func (r *result) putEndToEnd(setupS, opsPerS float64, open openStats, rssMB float64) {
	r.metrics["setup_s"] = metric{setupS, "s"}
	r.metrics["cpu_us_per_op"] = metric{open.cpuPerOp, "us"}
	r.metrics["rss_mb"] = metric{rssMB, "MiB"}
	r.reported["ops_per_s"] = metric{opsPerS, "ops/s"}
	r.reported["p50_ms"] = metric{open.p50, "ms"}
	r.reported["p99_ms"] = metric{open.p99, "ms"}
}

// checkMix returns why the /v1/stats deltas of a run's timed phases do not
// fit its workload, or "" when they do.
func checkMix(workload string, d counters) string {
	switch workload {
	case "warm-hits", "ring-warm":
		if d.misses > 0 || d.hits == 0 {
			return fmt.Sprintf("%d cache hits and %d misses; every warm op must hit", d.hits, d.misses)
		}
	case "cold-compute", "sweep":
		if d.hits > 0 {
			return fmt.Sprintf("%d cache hits; no cold or sweep op may hit", d.hits)
		}
	}
	if workload == "ring-warm" && d.forwards == 0 {
		return "the entry node forwarded no call to its peer"
	}
	return ""
}

// ladderUnit is the unit of an in-process ladder metric, from its suffix.
func ladderUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_ns"):
		return "ns"
	case strings.Contains(name, "allocs"):
		return "allocs"
	default:
		return "ratio"
	}
}

// ---------------------------------------------------------------------------
// Run record.

// stamp identifies what a run measured and on what.
type stamp struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
}

func newStamp(cfg config) stamp {
	commit := os.Getenv("E2EBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return stamp{runtime.NumCPU(), cfg.procs, runtime.Version(), commit, cfg.seed, cfg.seconds, cfg.trace}
}

func (s stamp) String() string {
	return fmt.Sprintf("run: nproc=%d gomaxprocs=%d go=%s commit=%s seed=%d seconds=%d trace=%t",
		s.NProc, s.GoMaxProcs, s.GoVersion, s.Commit, s.Seed, s.Seconds, s.Trace)
}

// record is the --out file: a run's stamp and every metric it printed,
// those of the result line and those reported only by name.
type record struct {
	Stamp    stamp             `json:"stamp"`
	Workload string            `json:"workload"`
	Correct  bool              `json:"correct"`
	Valid    bool              `json:"valid"`
	Metrics  map[string]metric `json:"metrics"`
}

func writeRecord(path string, st stamp, r *result) error {
	all := maps.Clone(r.metrics)
	maps.Copy(all, r.reported)
	data, err := json.MarshalIndent(record{st, r.workload, r.correct, r.valid, all}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readRecord(path string) (*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compare prints two run records side by side. Records taken at
// different nproc are not comparable, and compare refuses them.
func compare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: e2ebench compare BASE.json NEW.json")
		return 2
	}
	a, err := readRecord(args[0])
	if err == nil {
		var b *record
		if b, err = readRecord(args[1]); err == nil {
			return compareRecords(a, b, stdout, stderr)
		}
	}
	fmt.Fprintf(stderr, "e2ebench compare: %v\n", err)
	return 2
}

func compareRecords(a, b *record, stdout, stderr io.Writer) int {
	if a.Stamp.NProc != b.Stamp.NProc || a.Stamp.GoMaxProcs != b.Stamp.GoMaxProcs {
		fmt.Fprintf(stderr, "e2ebench compare: refusing to compare runs at nproc %d (GOMAXPROCS %d) and nproc %d (GOMAXPROCS %d); measure both on one machine\n",
			a.Stamp.NProc, a.Stamp.GoMaxProcs, b.Stamp.NProc, b.Stamp.GoMaxProcs)
		return 2
	}
	if a.Workload != b.Workload || a.Stamp.Trace != b.Stamp.Trace {
		fmt.Fprintf(stderr, "e2ebench compare: records measure different things (%s trace=%t vs %s trace=%t)\n",
			a.Workload, a.Stamp.Trace, b.Workload, b.Stamp.Trace)
		return 2
	}
	var names []string
	for k := range a.Metrics {
		if _, ok := b.Metrics[k]; ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%s (nproc %d): %s -> %s\n", a.Workload, a.Stamp.NProc, a.Stamp.Commit, b.Stamp.Commit)
	for _, k := range names {
		x, y := a.Metrics[k].Value, b.Metrics[k].Value
		fmt.Fprintf(stdout, "%-28s %14.6g %14.6g %+8.1f%% %s\n", k, x, y, 100*ratio(y-x, x), a.Metrics[k].Unit)
	}
	return 0
}
