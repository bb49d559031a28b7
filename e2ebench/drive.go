package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"stochsched/pkg/api"
	"stochsched/pkg/client"
)

// countingDoer wraps the HTTP transport under pkg/client: it counts
// attempts (so retries show as attempts minus calls) and hands each
// call's response metadata to the callInfo carried in its context.
type countingDoer struct {
	inner    client.Doer
	attempts atomic.Int64
}

type callKey struct{}

// callInfo is what the transport observed of one client call: the
// X-Request-Id of its last attempt and, for a results stream, when the
// first NDJSON row arrived.
type callInfo struct {
	reqID     string
	watchRows bool
	firstRow  time.Time
}

func (d *countingDoer) Do(req *http.Request) (*http.Response, error) {
	d.attempts.Add(1)
	resp, err := d.inner.Do(req)
	if ci, ok := req.Context().Value(callKey{}).(*callInfo); ok && resp != nil {
		ci.reqID = resp.Header.Get("X-Request-Id")
		if ci.watchRows {
			resp.Body = &firstRowReader{ReadCloser: resp.Body, ci: ci}
		}
	}
	return resp, err
}

// firstRowReader stamps the arrival of the first newline of a stream.
type firstRowReader struct {
	io.ReadCloser
	ci *callInfo
}

func (r *firstRowReader) Read(p []byte) (int, error) {
	n, err := r.ReadCloser.Read(p)
	if r.ci.firstRow.IsZero() && bytes.IndexByte(p[:n], '\n') >= 0 {
		r.ci.firstRow = time.Now()
	}
	return n, err
}

// outcome classifies a finished op.
type outcome uint8

const (
	outOK      outcome = iota
	outFailed          // transport error or non-429 error status
	outRefused         // 429 after the client's retries
	outWrong           // answered, but not with the expected bytes
)

// callRecord is one client call of a traced op.
type callRecord struct {
	dur   time.Duration
	reqID string
}

// opRecord collects what a traced op observed.
type opRecord struct {
	calls    []callRecord
	firstRow time.Duration // sweep ops: submit to first result row
}

// driver sends ops to the entry node through pkg/client and keeps the
// run's counters.
type driver struct {
	c     *client.Client // entry node, through the counting transport
	doer  *countingDoer
	conns int
	next  func(r *rand.Rand) *op

	attempted, failed, refused, wrong atomic.Int64
	calls                             atomic.Int64
	repsUsed, repsMax                 atomic.Int64

	mu   sync.Mutex
	kept map[*op][]byte // responses of sampled cold and sweep ops
}

// newDriver returns a driver for the service at url, reached through
// transport, with conns concurrent callers.
func newDriver(url string, transport client.Doer, conns int, next func(r *rand.Rand) *op) *driver {
	d := &driver{doer: &countingDoer{inner: transport}, conns: conns, next: next, kept: map[*op][]byte{}}
	d.c = client.New(url, client.WithHTTPClient(d.doer))
	return d
}

// call runs one client call, timing it and, when rec is non-nil,
// recording it.
func (d *driver) call(ctx context.Context, rec *opRecord, ci *callInfo, f func(ctx context.Context) error) error {
	start := time.Now()
	err := f(context.WithValue(ctx, callKey{}, ci))
	d.calls.Add(1)
	if rec != nil {
		rec.calls = append(rec.calls, callRecord{dur: time.Since(start), reqID: ci.reqID})
	}
	return err
}

// exec sends one op and checks its answer.
func (d *driver) exec(ctx context.Context, o *op, rec *opRecord) outcome {
	d.attempted.Add(1)
	out, err := d.send(ctx, o, rec)
	switch {
	case err != nil:
		var apiErr *client.APIError
		if errors.As(err, &apiErr) && apiErr.Status == http.StatusTooManyRequests {
			out = outRefused
			d.refused.Add(1)
		} else {
			out = outFailed
			d.failed.Add(1)
		}
	case out == outWrong:
		d.wrong.Add(1)
	}
	return out
}

func (d *driver) send(ctx context.Context, o *op, rec *opRecord) (outcome, error) {
	var got []byte
	var err error
	switch o.kind {
	case opSimulate:
		err = d.call(ctx, rec, &callInfo{}, func(ctx context.Context) (e error) {
			got, e = d.c.SimulateRaw(ctx, o.body)
			return e
		})
	case opIndex:
		err = d.call(ctx, rec, &callInfo{}, func(ctx context.Context) (e error) {
			got, e = d.c.IndexRaw(ctx, o.body)
			return e
		})
	case opBatch:
		var resp *api.BatchResponse
		err = d.call(ctx, rec, &callInfo{}, func(ctx context.Context) (e error) {
			resp, e = d.c.Batch(ctx, o.batch)
			return e
		})
		if err != nil {
			return outFailed, err
		}
		if !sameItems(resp.Items, o.wantItems) {
			return outWrong, nil
		}
		return outOK, nil
	case opSweep:
		return d.sendSweep(ctx, o, rec)
	}
	if err != nil {
		return outFailed, err
	}
	if o.want != nil && !bytes.Equal(got, o.want) {
		return outWrong, nil
	}
	if o.precision {
		var env struct {
			Replications     int64 `json:"replications"`
			ReplicationsUsed int64 `json:"replications_used"`
		}
		if json.Unmarshal(got, &env) != nil || env.ReplicationsUsed < 1 || env.ReplicationsUsed > env.Replications {
			return outWrong, nil
		}
		d.repsUsed.Add(env.ReplicationsUsed)
		d.repsMax.Add(env.Replications)
	}
	d.keep(o, got)
	return outOK, nil
}

// sendSweep submits a sweep and reads its results stream to the end.
func (d *driver) sendSweep(ctx context.Context, o *op, rec *opRecord) (outcome, error) {
	start := time.Now()
	var st *api.SweepStatus
	err := d.call(ctx, rec, &callInfo{}, func(ctx context.Context) (e error) {
		st, e = d.c.SweepSubmitRaw(ctx, o.body)
		return e
	})
	if err != nil {
		return outFailed, err
	}
	var stream []byte
	ci := &callInfo{watchRows: true}
	err = d.call(ctx, rec, ci, func(ctx context.Context) (e error) {
		stream, e = d.c.SweepResults(ctx, st.ID)
		return e
	})
	if err != nil {
		return outFailed, err
	}
	if bytes.Count(stream, []byte{'\n'}) != st.Points {
		return outWrong, nil
	}
	if rec != nil && !ci.firstRow.IsZero() {
		rec.firstRow = ci.firstRow.Sub(start)
	}
	d.keep(o, stream)
	return outOK, nil
}

// keep stores the response of a sampled op for the in-process recheck.
func (d *driver) keep(o *op, got []byte) {
	if !o.sample {
		return
	}
	d.mu.Lock()
	d.kept[o] = bytes.Clone(got)
	d.mu.Unlock()
}

// sameItems reports whether two batch answers match item for item.
func sameItems(got, want []api.BatchItemResult) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Status != want[i].Status || !bytes.Equal(got[i].Body, want[i].Body) {
			return false
		}
	}
	return true
}

// errorCount is every op that did not end well.
func (d *driver) errorCount() int64 {
	return d.failed.Load() + d.refused.Load() + d.wrong.Load()
}

// ---------------------------------------------------------------------------
// Closed loop: conns callers, each waiting for its reply.

// closedLoop runs conns callers for dur and returns the throughput of
// each of its windows, in ops/s. With observe set, every op is recorded
// and handed to it after completing (the traced run).
func (d *driver) closedLoop(ctx context.Context, dur time.Duration, windows int, stream uint64, observe func(ctx context.Context, rec *opRecord)) []float64 {
	start := time.Now()
	deadline := start.Add(dur)
	win := dur / time.Duration(windows)
	counts := make([]atomic.Int64, windows)
	var wg sync.WaitGroup
	for w := 0; w < d.conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewPCG(stream, uint64(w)))
			for ctx.Err() == nil {
				o := d.next(r)
				var rec *opRecord
				if observe != nil {
					rec = &opRecord{}
				}
				d.exec(ctx, o, rec)
				now := time.Now()
				if !now.Before(deadline) {
					return
				}
				counts[min(int(now.Sub(start)/win), windows-1)].Add(1)
				if observe != nil {
					observe(ctx, rec)
				}
			}
		}(w)
	}
	wg.Wait()
	rates := make([]float64, windows)
	for i := range counts {
		rates[i] = float64(counts[i].Load()) / win.Seconds()
	}
	return rates
}

// ---------------------------------------------------------------------------
// Open loop: ops due on a fixed schedule, whatever the replies do.

// sample is one open-loop op: its latency from its due time (+Inf when it
// failed) and how late the generator dispatched it, both in ms.
type sample struct {
	lat, late float64
}

// ticket is one scheduled op handed from the dispatcher to a sender.
type ticket struct {
	i               int
	due, dispatched time.Time
}

// openLoop sends n ops at rate ops per second. One dispatcher hands each
// op to the senders at its due time; conns senders issue them. An op that
// waits for a free sender is already late, and its latency counts the wait.
func (d *driver) openLoop(ctx context.Context, rate float64, n int, stream uint64) []sample {
	interval := time.Duration(float64(time.Second) / rate)
	samples := make([]sample, n)
	// Sized to the number of sends, so the dispatcher never blocks and
	// its lateness is its own.
	q := make(chan ticket, n)
	start := time.Now().Add(time.Millisecond)
	go func() {
		defer close(q)
		for i := 0; i < n && ctx.Err() == nil; i++ {
			due := start.Add(time.Duration(i) * interval)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			q <- ticket{i: i, due: due, dispatched: time.Now()}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < d.conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewPCG(stream, uint64(w)))
			for t := range q {
				o := d.next(r)
				out := d.exec(ctx, o, nil)
				lat := math.Inf(1)
				if out == outOK {
					lat = ms(time.Since(t.due))
				}
				samples[t.i] = sample{lat: lat, late: ms(t.dispatched.Sub(t.due))}
			}
		}(w)
	}
	wg.Wait()
	return samples
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// minSegment is the fewest ops an open-loop segment holds, so that its
// p99 has at least 10 samples beyond it.
const minSegment = 1000

// A segment is invalid when its generator lag p99 exceeds both
// minLateLimit and lateIntervals send intervals: the generator fell behind
// its schedule and sent its ops in bunches, so the offered load was no
// longer the schedule's. Shorter lags, such as a host stall of a few ms,
// only delay ops whose latency, timed from their due time, counts the
// delay.
const (
	minLateLimit  = 20 * time.Millisecond
	lateIntervals = 50
)

// lateLimitMs is the lag limit at a rate, in ms.
func lateLimitMs(rate float64) float64 {
	return max(ms(minLateLimit), lateIntervals*1e3/rate)
}

// segment summarises one open-loop segment.
type segment struct {
	p50, p99, lateP99 float64
	cpuPerOp          float64 // daemons' CPU µs per completed op
	valid             bool
	lat               []float64
}

// newSegment summarises a segment's samples, given the daemons' CPU time
// over it.
func newSegment(samples []sample, cpu time.Duration, rate float64) segment {
	var sg segment
	late := make([]float64, len(samples))
	done := 0
	for i, x := range samples {
		sg.lat = append(sg.lat, x.lat)
		late[i] = x.late
		if !math.IsInf(x.lat, 1) {
			done++
		}
	}
	sg.lateP99 = quantile(late, 0.99)
	sg.valid = sg.lateP99 <= lateLimitMs(rate)
	sg.cpuPerOp = ratio(float64(cpu)/1e3, float64(done))
	sg.p50, sg.p99 = quantile(sg.lat, 0.5), quantile(sg.lat, 0.99)
	return sg
}

// openStats summarises the open-loop segments of a run.
type openStats struct {
	p50, p99, lateP99 float64
	cpuPerOp          float64
	n                 int // samples in valid segments
	segments, valid   int
	tailQ, tail       float64 // highest percentile with 10 samples beyond it, pooled
	segP99            []float64
}

// combine reports the median p50, p99 and CPU per op over the segments
// that kept their schedule, so a disturbance confined to a few segments
// does not move them.
func combine(segs []segment) openStats {
	st := openStats{segments: len(segs)}
	var lates, p50s, p99s, cpus, pooled []float64
	for _, sg := range segs {
		lates = append(lates, sg.lateP99)
		if !sg.valid {
			continue
		}
		st.valid++
		pooled = append(pooled, sg.lat...)
		p50s = append(p50s, sg.p50)
		p99s = append(p99s, sg.p99)
		cpus = append(cpus, sg.cpuPerOp)
	}
	st.segP99 = append(st.segP99, p99s...)
	st.n = len(pooled)
	st.lateP99 = median(lates)
	st.p50, st.p99, st.cpuPerOp = median(p50s), median(p99s), median(cpus)
	if st.tailQ = tailPercentile(len(pooled)); st.tailQ > 0 {
		st.tail = quantile(pooled, st.tailQ)
	}
	return st
}

// round is one closed-loop stretch and the open-loop segment after it,
// with the share of the CPUs the host stole while they ran.
type round struct {
	rates []float64
	seg   segment
	steal float64
}

// quieter returns, in run order, the rounds during which the hypervisor
// stole no more CPU time than in the median round. On a shared host, steal
// comes and goes with the neighbours' load; a round that lost its CPUs
// measures them, not the daemon. Rounds that tie, as all do on a host that
// steals nothing, are all kept, so the kept rounds still span the run.
func quieter(rounds []round) []round {
	steals := make([]float64, len(rounds))
	for i, rd := range rounds {
		steals[i] = rd.steal
	}
	m := median(steals)
	var out []round
	for _, rd := range rounds {
		if rd.steal <= m {
			out = append(out, rd)
		}
	}
	return out
}

// ok reports whether more than half of the segments kept their schedule.
func (s openStats) ok() bool { return s.segments > 0 && 2*s.valid > s.segments }

// ---------------------------------------------------------------------------
// Priming and warm-up.

// prime sends every op once through each node's client, with conns
// callers per node.
func prime(ctx context.Context, clients []*driver, ops []*op) error {
	for _, d := range clients {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < d.conns; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(ops) || ctx.Err() != nil {
						return
					}
					d.exec(ctx, ops[i], nil)
				}
			}()
		}
		wg.Wait()
		if n := d.errorCount(); n > 0 {
			return fmt.Errorf("priming: %d of %d ops failed or answered wrong bytes", n, len(ops))
		}
	}
	return ctx.Err()
}
