// Command stochsched runs the reproduction suite: it lists the experiments
// derived from the survey's catalogue of classical results and executes any
// subset, printing each experiment's result table.
//
// Experiments — and the Monte Carlo replications inside each one — fan out
// over a shared worker pool sized by -parallel; tables are printed in
// experiment order and are byte-identical for a given seed at any
// parallelism level.
//
// Usage:
//
//	stochsched -list
//	stochsched -run E09 -seed 1
//	stochsched -run all -quick -parallel 8
//	stochsched -run all -timeout 2m
//	stochsched -catalog
//
// The sweep subcommand drives the parameter-sweep subsystem
// (internal/sweep) in-process — same request JSON, same deterministic
// results as the daemon's POST /v1/sweep — and renders the
// policy-comparison table:
//
//	stochsched sweep -f request.json
//	stochsched sweep -f request.json -ndjson   # raw result rows
//
// The simulate, index and scenarios subcommands resolve the same scenario
// registry the daemon serves — simulate and index drive one /v1/simulate
// or /v1/index body through pkg/client against an in-process service
// handler (byte-identical to the HTTP response), scenarios lists the
// registered kinds with their sweep policy paths and index families:
//
//	stochsched simulate -f request.json
//	stochsched index -f request.json
//	stochsched scenarios
//
// The loadgen subcommand soaks a daemon (or an in-process service) through
// the Go SDK with a weighted index/simulate/batch mix and reports latency
// quantiles from both sides — the client's measurements and the server's
// /v1/stats histograms:
//
//	stochsched loadgen -rps 100 -concurrency 8 -duration 30s
//	stochsched loadgen -addr http://localhost:8080 -mix index=2,batch=1
//
// The trace subcommand renders the span tree of one request — either a
// request already served (by the X-Request-Id its response carried) or a
// simulate body it runs and traces itself:
//
//	stochsched trace -f request.json
//	stochsched trace -id r-4f2a1c-000042 -addr http://localhost:8080
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"stochsched/internal/core"
	"stochsched/internal/engine"
	"stochsched/internal/experiments"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "sweep":
			os.Exit(runSweep(os.Args[2:]))
		case "simulate":
			os.Exit(runSimulate(os.Args[2:]))
		case "index":
			os.Exit(runIndex(os.Args[2:]))
		case "scenarios":
			os.Exit(runScenarios(os.Args[2:]))
		case "loadgen":
			os.Exit(runLoadgen(os.Args[2:]))
		case "trace":
			os.Exit(runTrace(os.Args[2:]))
		}
	}
	list := flag.Bool("list", false, "list all experiments and exit")
	catalog := flag.Bool("catalog", false, "print the index-rule catalog and exit")
	run := flag.String("run", "", "experiment ID to run (e.g. E09), comma-separated list, or 'all'")
	seed := flag.Uint64("seed", 1, "random seed")
	quick := flag.Bool("quick", false, "reduced replication counts")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "worker pool size shared across experiments and replications (results do not depend on it)")
	timeout := flag.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
	flag.Parse()

	switch {
	case *list:
		for _, e := range experiments.All() {
			fmt.Printf("%s  %-45s %s\n", e.ID, e.Title, e.Ref)
		}
	case *catalog:
		for _, r := range core.Catalog() {
			fmt.Printf("%-24s %-22s index: %-38s %s\n", r.Name, string(r.Family), r.Index, r.Ref)
			fmt.Printf("%-24s optimal: %s; experiments %v\n", "", r.Optimality, r.Experiments)
		}
	case *run != "":
		ctx := context.Background()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		var ids []string
		if *run != "all" {
			for _, id := range strings.Split(*run, ",") {
				ids = append(ids, strings.TrimSpace(id))
			}
		}
		cfg := experiments.Config{
			Seed:  *seed,
			Quick: *quick,
			Ctx:   ctx,
			Pool:  engine.NewPool(*parallel),
		}
		if err := experiments.RunAll(cfg, ids, func(tab *experiments.Table) {
			fmt.Println(tab.String())
		}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}
