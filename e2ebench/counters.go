package main

import (
	"context"

	"stochsched/pkg/api"
	"stochsched/pkg/client"
)

// counters are the /v1/stats counters the per-layer metrics use, summed
// over the nodes of a run (entryCalls and the forward counters: the entry
// node only).
type counters struct {
	requests, hits, misses, dedup, shed    int64
	evictions                              int64
	busyNs, chunksDispatched, chunksInline int64
	queueWaitNs                            int64
	workers                                int64
	cellsExecuted, sweepComputeNs          int64
	entryCalls, forwards                   int64
	forwardErrors, forwardNs               int64
}

// readCounters fetches /v1/stats from every node.
func readCounters(ctx context.Context, nodes []*node) (counters, error) {
	var c counters
	for i, nd := range nodes {
		st, err := client.New(nd.url, client.WithHTTPClient(nd.http)).Stats(ctx)
		if err != nil {
			return c, err
		}
		c.add(st, i == 0)
	}
	return c, nil
}

func (c *counters) add(st *api.StatsResponse, entry bool) {
	for _, ep := range st.Endpoints {
		c.requests += ep.Requests
		c.hits += ep.CacheHits
		c.misses += ep.CacheMisses
		c.dedup += ep.Deduplicated
		c.shed += ep.Shed
	}
	if entry {
		// A batch is one request but carries several calls, each routed on
		// its own key.
		b := st.Endpoints["batch"]
		c.entryCalls += b.BatchItems - b.Requests
		for _, ep := range st.Endpoints {
			c.entryCalls += ep.Requests
		}
	}
	c.evictions += st.Cache.Evictions
	c.busyNs += st.Engine.BusyNs
	c.chunksDispatched += st.Engine.ChunksDispatched
	c.chunksInline += st.Engine.ChunksInline
	c.queueWaitNs += st.Engine.QueueWaitNs
	c.workers += int64(st.Engine.Workers)
	c.cellsExecuted += st.Sweeps.CellsExecuted
	c.sweepComputeNs += st.Sweeps.ComputeNs
	if st.Cluster != nil && entry {
		for _, p := range st.Cluster.Peers {
			c.forwards += p.Forwards
			c.forwardErrors += p.ForwardErrors
			c.forwardNs += p.ForwardNs
		}
	}
}

// sub returns the counter deltas c − b; workers is a gauge and kept.
func (c counters) sub(b counters) counters {
	return counters{
		requests:         c.requests - b.requests,
		hits:             c.hits - b.hits,
		misses:           c.misses - b.misses,
		dedup:            c.dedup - b.dedup,
		shed:             c.shed - b.shed,
		evictions:        c.evictions - b.evictions,
		busyNs:           c.busyNs - b.busyNs,
		chunksDispatched: c.chunksDispatched - b.chunksDispatched,
		chunksInline:     c.chunksInline - b.chunksInline,
		queueWaitNs:      c.queueWaitNs - b.queueWaitNs,
		workers:          c.workers,
		cellsExecuted:    c.cellsExecuted - b.cellsExecuted,
		sweepComputeNs:   c.sweepComputeNs - b.sweepComputeNs,
		entryCalls:       c.entryCalls - b.entryCalls,
		forwards:         c.forwards - b.forwards,
		forwardErrors:    c.forwardErrors - b.forwardErrors,
		forwardNs:        c.forwardNs - b.forwardNs,
	}
}
