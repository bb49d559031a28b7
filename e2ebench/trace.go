package main

import (
	"context"
	"sync"

	"stochsched/pkg/api"
	"stochsched/pkg/client"
)

// tracer gathers the traced run: per client call, the daemon's span tree
// fetched from /v1/trace/{id}.
type tracer struct {
	trace *client.Client // entry node, outside the counting transport

	mu      sync.Mutex
	missing int // traces the daemon no longer held
	// Per-call and per-span samples, in µs unless named otherwise.
	call, outside, handler []float64
	parse, cacheHit, write []float64
	admission, forward     []float64
	firstRowMs             []float64
}

func newTracer(entry *node) *tracer {
	return &tracer{trace: client.New(entry.url, client.WithHTTPClient(entry.http))}
}

// observe resolves every call of a finished op into the daemon's span
// tree and files the stage timings.
func (t *tracer) observe(ctx context.Context, rec *opRecord) {
	for _, c := range rec.calls {
		if c.reqID == "" {
			continue
		}
		tr, err := t.trace.Trace(ctx, c.reqID)
		if err != nil {
			t.mu.Lock()
			t.missing++
			t.mu.Unlock()
			continue
		}
		t.file(c, tr)
	}
	if rec.firstRow > 0 {
		t.mu.Lock()
		t.firstRowMs = append(t.firstRowMs, ms(rec.firstRow))
		t.mu.Unlock()
	}
}

// file adds one call's daemon spans to the samples.
func (t *tracer) file(c callRecord, tr *api.TraceResponse) {
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	t.mu.Lock()
	defer t.mu.Unlock()
	callUs := float64(c.dur) / 1e3
	t.call = append(t.call, callUs)
	t.handler = append(t.handler, us(tr.Root.DurationNs))
	t.outside = append(t.outside, callUs-us(tr.Root.DurationNs))
	walk(tr.Root, func(sp api.Span) {
		switch sp.Name {
		case "parse":
			t.parse = append(t.parse, us(sp.DurationNs))
		case "cache":
			if attr(sp, "outcome") == "hit" {
				self := sp.DurationNs
				for _, ch := range sp.Children {
					self -= ch.DurationNs
				}
				t.cacheHit = append(t.cacheHit, us(self))
			}
		case "write":
			t.write = append(t.write, us(sp.DurationNs))
		case "admission":
			t.admission = append(t.admission, us(sp.DurationNs))
		case "forward":
			t.forward = append(t.forward, us(sp.DurationNs))
		}
	})
}

// walk visits sp and every span below it.
func walk(sp api.Span, f func(api.Span)) {
	f(sp)
	for _, ch := range sp.Children {
		walk(ch, f)
	}
}

func attr(sp api.Span, key string) string {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}
