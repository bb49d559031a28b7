package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"text/tabwriter"

	"stochsched/internal/scenario"
	"stochsched/internal/service"
	"stochsched/pkg/api"
	"stochsched/pkg/client"
)

// runSimulate implements the `stochsched simulate` subcommand: it reads one
// /v1/simulate request body (the exact JSON the daemon accepts) and runs it
// through pkg/client against an in-process service handler — literally the
// same handler, cache, and registry path as POST /v1/simulate, so the
// printed body is byte-identical to the daemon's response at any -parallel
// level.
func runSimulate(args []string) int {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	file := fs.String("f", "-", "simulate request file (JSON; \"-\" = stdin)")
	parallel := fs.Int("parallel", 0, "worker pool size (overrides the request; results do not depend on it)")
	targetCI := fs.Float64("target-ci", 0, "switch to target-precision mode: stop when the 95% CI half-width falls below this fraction of the mean (replaces the request's replications)")
	confidence := fs.Float64("confidence", 0, "stopping-rule confidence level (0 = the default 0.95; needs -target-ci)")
	maxReps := fs.Int("max-reps", 4096, "replication ceiling in target-precision mode (needs -target-ci)")
	antithetic := fs.Bool("antithetic", false, "pair replications antithetically (kinds with categorical draws reject this)")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), `usage: stochsched simulate [-f request.json] [-parallel N] [-target-ci F [-confidence F] [-max-reps N]] [-antithetic]

Runs one simulate request in-process through the scenario registry — the
same JSON POST /v1/simulate accepts, the same response body. -target-ci
rewrites the request into target-precision mode (a "precision" block in
place of "replications"); the response then reports replications_used.
Registered kinds: %s (see "stochsched scenarios").
`, strings.Join(scenario.Kinds(), ", "))
		fs.PrintDefaults()
	}
	fs.Parse(args)

	raw, err := readInput(*file)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	raw, err = applyPrecisionFlags(raw, *targetCI, *confidence, *maxReps, *antithetic)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	body, err := SimulateLocal(raw, *parallel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	os.Stdout.Write(body)
	return 0
}

// runIndex implements the `stochsched index` subcommand: it reads one
// /v1/index request body and runs it through the same in-process client
// and handler as simulate, so the printed body is byte-identical to the
// daemon's POST /v1/index response.
func runIndex(args []string) int {
	fs := flag.NewFlagSet("index", flag.ExitOnError)
	file := fs.String("f", "-", "index request file (JSON; \"-\" = stdin)")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), `usage: stochsched index [-f request.json]

Computes one index request in-process through the scenario registry — the
same JSON POST /v1/index accepts ({"kind":K,K:payload}), the same response
body. Kinds with an analytic index: %s.
`, strings.Join(scenario.IndexKinds(), ", "))
		fs.PrintDefaults()
	}
	fs.Parse(args)

	raw, err := readInput(*file)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	body, err := IndexLocal(raw)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	os.Stdout.Write(body)
	return 0
}

// applyPrecisionFlags rewrites a raw simulate body per the precision
// flags: -target-ci replaces the fixed replications field with a precision
// block (the server enforces the mutual exclusion, so the flag must drop
// the old budget), and -antithetic sets the envelope knob. A zero targetCI
// leaves the body untouched except for the antithetic flag.
func applyPrecisionFlags(raw []byte, targetCI, confidence float64, maxReps int, antithetic bool) ([]byte, error) {
	if targetCI <= 0 && !antithetic {
		return raw, nil
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		return nil, fmt.Errorf("parsing request: %w", err)
	}
	if targetCI > 0 {
		delete(fields, "replications")
		pr, err := json.Marshal(&api.Precision{
			TargetCI95:      targetCI,
			Confidence:      confidence,
			MaxReplications: maxReps,
		})
		if err != nil {
			return nil, err
		}
		fields["precision"] = pr
	}
	if antithetic {
		fields["antithetic"] = json.RawMessage("true")
	}
	return json.Marshal(fields)
}

// readInput reads a request file ("-" = stdin).
func readInput(file string) ([]byte, error) {
	var in io.Reader = os.Stdin
	if file != "-" {
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		in = f
	}
	return io.ReadAll(in)
}

// runScenarios implements the `stochsched scenarios` subcommand: the
// registry's table of simulate kinds, each with its sweep policy path and
// whether POST /v1/index serves its analytic indices — the catalog of what
// /v1/simulate, /v1/index, and /v1/sweep can run.
func runScenarios(args []string) int {
	fs := flag.NewFlagSet("scenarios", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), `usage: stochsched scenarios

Lists the registered simulate scenarios: the kind name POST /v1/simulate
and POST /v1/index dispatch on, the policy path POST /v1/sweep substitutes
policies at, and the analytic index family (if any) /v1/index computes.`)
	}
	fs.Parse(args)

	indexers := make(map[string]bool)
	for _, kind := range scenario.IndexKinds() {
		indexers[kind] = true
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "kind\tsweep policy path\tindex")
	for _, kind := range scenario.Kinds() {
		sc, _ := scenario.Lookup(kind)
		family := "-"
		if indexers[kind] {
			family = sc.(scenario.Indexer).IndexFamily()
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\n", kind, sc.PolicyPath(), family)
	}
	tw.Flush()
	return 0
}

// localHandler builds an in-process service handler with the CLI's
// configuration: no replication, work, or body-size caps (the caps protect
// a shared daemon; a local run is the caller's own CPU), and a worker pool
// sized by the parallel override.
func localHandler(parallel int) http.Handler {
	return service.New(service.Config{
		Parallel:        parallel,
		MaxReplications: -1,
		MaxSimWork:      -1,
		MaxBodyBytes:    -1,
	}).Handler()
}

// localClient mounts pkg/client on localHandler.
func localClient(parallel int) *client.Client {
	return client.NewInProcess(localHandler(parallel))
}

// IndexLocal computes one index body in-process through the client SDK.
func IndexLocal(raw []byte) ([]byte, error) {
	return localClient(0).IndexRaw(context.Background(), raw)
}

// SimulateLocal parses and runs one simulate body in-process through the
// client SDK. Split from runSimulate so tests can drive it without a
// process boundary.
func SimulateLocal(raw []byte, parallel int) ([]byte, error) {
	if parallel > 0 {
		var err error
		if raw, err = api.SetNumber(raw, "parallel", float64(parallel)); err != nil {
			return nil, err
		}
	}
	return localClient(parallel).SimulateRaw(context.Background(), raw)
}
