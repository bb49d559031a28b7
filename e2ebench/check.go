package main

import (
	"bytes"
	"context"
	"fmt"
	"sort"

	"stochsched/internal/service"
	"stochsched/pkg/client"
)

// The daemon's answers are checked against the same service computed
// in-process. Bodies are a pure function of (spec, seed), so any
// difference is a fault of the path between them: transport, cluster
// forwarding, caching or concurrency.

// inProcess returns a client on a fresh in-process service with the
// daemon's default configuration.
func inProcess() *client.Client {
	return client.NewInProcess(service.New(service.Config{}).Handler())
}

// setReferences fills in the expected answer of every warm op.
func setReferences(ctx context.Context, set *warmSet) error {
	ref := inProcess()
	for _, o := range set.singles() {
		var err error
		switch o.kind {
		case opSimulate:
			o.want, err = ref.SimulateRaw(ctx, o.body)
		case opIndex:
			o.want, err = ref.IndexRaw(ctx, o.body)
		}
		if err != nil {
			return fmt.Errorf("reference for %s body: %w", o.kind, err)
		}
	}
	for _, o := range set.batch {
		resp, err := ref.Batch(ctx, o.batch)
		if err != nil {
			return fmt.Errorf("reference for batch body: %w", err)
		}
		o.wantItems = resp.Items
	}
	return nil
}

// maxRechecks caps how many sampled answers are recomputed after a run.
const maxRechecks = 200

// recheck recomputes the kept answers of sampled cold and sweep ops
// in-process, in key order, and returns how many differ byte for byte.
func recheck(ctx context.Context, kept map[*op][]byte) (checked, wrong int, err error) {
	ops := make([]*op, 0, len(kept))
	for o := range kept {
		ops = append(ops, o)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].key < ops[j].key })
	if len(ops) > maxRechecks {
		ops = ops[:maxRechecks]
	}
	ref := inProcess()
	for _, o := range ops {
		var want []byte
		switch o.kind {
		case opSimulate:
			want, err = ref.SimulateRaw(ctx, o.body)
		case opIndex:
			want, err = ref.IndexRaw(ctx, o.body)
		case opSweep:
			st, serr := ref.SweepSubmitRaw(ctx, o.body)
			if serr != nil {
				return checked, wrong, fmt.Errorf("recheck sweep %d: %w", o.key, serr)
			}
			want, err = ref.SweepResults(ctx, st.ID)
		}
		if err != nil {
			return checked, wrong, fmt.Errorf("recheck %s %d: %w", o.kind, o.key, err)
		}
		checked++
		if !bytes.Equal(kept[o], want) {
			wrong++
		}
	}
	return checked, wrong, nil
}
