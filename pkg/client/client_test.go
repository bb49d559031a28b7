package client_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stochsched/internal/service"
	"stochsched/pkg/api"
	"stochsched/pkg/client"
)

// liveServer starts a real HTTP server over a fresh service and returns a
// client dialed at it — the SDK's end-to-end configuration.
func liveServer(t *testing.T, cfg service.Config, opts ...client.Option) (*client.Client, *httptest.Server) {
	t.Helper()
	srv := httptest.NewServer(service.New(cfg).Handler())
	t.Cleanup(srv.Close)
	return client.New(srv.URL, opts...), srv
}

func banditSpec() *api.Bandit {
	return &api.Bandit{
		Beta:        0.9,
		Transitions: [][]float64{{0.5, 0.5}, {0.2, 0.8}},
		Rewards:     []float64{1, 0.3},
	}
}

func mg1SimReq() *api.SimulateRequest {
	return &api.SimulateRequest{
		Kind: "mg1",
		MG1: &api.MG1Sim{
			Spec: api.MG1{Classes: []api.Class{
				{Rate: 0.3, ServiceMean: 0.5, HoldCost: 4},
				{Rate: 0.2, ServiceMean: 1, HoldCost: 1},
			}},
			Policy:  "cmu",
			Horizon: 500,
			Burnin:  50,
		},
		Seed:         7,
		Replications: 10,
	}
}

// TestClientEndToEnd drives every typed call against a live HTTP server.
func TestClientEndToEnd(t *testing.T) {
	c, _ := liveServer(t, service.Config{})
	ctx := context.Background()

	if err := c.Healthz(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}

	g, err := c.Gittins(ctx, banditSpec())
	if err != nil {
		t.Fatalf("gittins: %v", err)
	}
	if g.States != 2 || len(g.Restart) != 2 || len(g.SpecHash) != 64 {
		t.Fatalf("gittins response %+v", g)
	}

	wh, err := c.Whittle(ctx, &api.WhittleRequest{
		Restless: api.Restless{
			Beta: 0.9,
			Passive: api.Action{
				Transitions: [][]float64{{0.7, 0.3}, {0, 1}},
				Rewards:     []float64{1, 0.1},
			},
			Active: api.Action{
				Transitions: [][]float64{{1, 0}, {1, 0}},
				Rewards:     []float64{-0.5, -0.5},
			},
		},
	})
	if err != nil {
		t.Fatalf("whittle: %v", err)
	}
	if len(wh.Whittle) != 2 {
		t.Fatalf("whittle response %+v", wh)
	}

	pr, err := c.Priority(ctx, &api.PriorityRequest{Kind: "mg1", MG1: &mg1SimReq().MG1.Spec})
	if err != nil {
		t.Fatalf("priority: %v", err)
	}
	if pr.Rule != "cmu" || len(pr.Order) != 2 || pr.CostRate == nil {
		t.Fatalf("priority response %+v", pr)
	}

	sim, err := c.Simulate(ctx, mg1SimReq())
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	if sim.MG1 == nil || sim.MG1.CostRateMean <= 0 || sim.Replications != 10 {
		t.Fatalf("simulate response %+v", sim)
	}
	// The spec-hash idempotency contract: the echoed hash equals the hash
	// computed locally (Simulate verified this internally; re-check here).
	want, _ := mg1SimReq().SpecHash()
	if sim.SpecHash != want {
		t.Errorf("spec hash %s, want %s", sim.SpecHash, want)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Endpoints["index"].Requests < 3 || st.Endpoints["simulate"].Requests != 1 {
		t.Errorf("stats %+v", st.Endpoints)
	}

	// Typed errors: a bad spec surfaces the envelope.
	_, err = c.Gittins(ctx, &api.Bandit{Beta: 2})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest || apiErr.Code != api.ErrCodeBadRequest {
		t.Fatalf("bad spec error: %v", err)
	}
}

// TestClientAdaptiveSimulate drives the typed target-precision path end
// to end: the precision block replaces the fixed budget, the client-side
// spec-hash verification covers the adaptive encoding, and the response
// reports the stopping rule's spend within the ceiling. The antithetic
// knob rides the same envelope and must hash as a distinct computation.
func TestClientAdaptiveSimulate(t *testing.T) {
	c, _ := liveServer(t, service.Config{})
	ctx := context.Background()

	req := mg1SimReq()
	req.Replications = 0
	req.Precision = &api.Precision{TargetCI95: 0.2, MaxReplications: 128}
	sim, err := c.Simulate(ctx, req)
	if err != nil {
		t.Fatalf("adaptive simulate: %v", err)
	}
	if sim.Replications != 128 {
		t.Errorf("replications = %d, want the ceiling 128", sim.Replications)
	}
	if sim.ReplicationsUsed < 1 || sim.ReplicationsUsed > 128 {
		t.Errorf("replications_used = %d outside [1, 128]", sim.ReplicationsUsed)
	}
	fixedHash, _ := mg1SimReq().SpecHash()
	if sim.SpecHash == fixedHash {
		t.Error("adaptive request shares the fixed request's spec hash")
	}

	anti := mg1SimReq()
	anti.Antithetic = true
	sa, err := c.Simulate(ctx, anti)
	if err != nil {
		t.Fatalf("antithetic simulate: %v", err)
	}
	if sa.SpecHash == fixedHash {
		t.Error("antithetic request shares the plain request's spec hash")
	}
	if sa.ReplicationsUsed != 0 {
		t.Errorf("fixed-budget response grew replications_used = %d", sa.ReplicationsUsed)
	}
}

// TestClientParallelByteIdentity is the client-side half of the
// determinism contract: two live servers at parallel 1 vs 8, raw simulate
// bodies through the client, byte-identical.
func TestClientParallelByteIdentity(t *testing.T) {
	body, err := json.Marshal(mg1SimReq())
	if err != nil {
		t.Fatal(err)
	}
	run := func(parallel int) []byte {
		cfg := service.Config{Parallel: parallel}
		c, _ := liveServer(t, cfg)
		b, err := c.SimulateRaw(context.Background(),
			mustSetNumber(t, body, "parallel", float64(parallel)))
		if err != nil {
			t.Fatalf("parallel %d: %v", parallel, err)
		}
		return b
	}
	b1, b8 := run(1), run(8)
	if !bytes.Equal(b1, b8) {
		t.Fatalf("bodies differ between parallel 1 and 8:\n%s\n%s", b1, b8)
	}
}

func mustSetNumber(t *testing.T, body []byte, path string, v float64) []byte {
	t.Helper()
	out, err := api.SetNumber(body, path, v)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sheddingHandler answers 429 (in the v2 envelope) for the first n
// requests to a path, then delegates — a deterministic overload server for
// the retry tests.
type sheddingHandler struct {
	next  http.Handler
	sheds atomic.Int64
	limit int64
}

func (h *sheddingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.sheds.Add(1) <= h.limit {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(api.ErrorResponse{Err: api.ErrorDetail{
			Code: api.ErrCodeOverloaded, Message: "server overloaded: admission queue full",
		}})
		return
	}
	h.next.ServeHTTP(w, r)
}

// TestClientRetriesOn429 pins the retry loop: a server shedding the first
// two attempts answers the third; the call succeeds without caller-visible
// failure. Retrying is safe because the service is memoized by spec hash.
func TestClientRetriesOn429(t *testing.T) {
	shed := &sheddingHandler{next: service.New(service.Config{}).Handler(), limit: 2}
	srv := httptest.NewServer(shed)
	defer srv.Close()
	c := client.New(srv.URL, client.WithRetry(3, time.Millisecond))

	g, err := c.Gittins(context.Background(), banditSpec())
	if err != nil {
		t.Fatalf("gittins after sheds: %v", err)
	}
	if g.States != 2 {
		t.Fatalf("response %+v", g)
	}
	if got := shed.sheds.Load(); got != 3 {
		t.Errorf("server saw %d attempts, want 3 (2 shed + 1 served)", got)
	}

	// Retries exhausted: the 429 surfaces as a typed APIError.
	shed.sheds.Store(0)
	shed.limit = 100
	_, err = c.Gittins(context.Background(), banditSpec())
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests || apiErr.Code != api.ErrCodeOverloaded {
		t.Fatalf("exhausted retries: %v", err)
	}
	if got := shed.sheds.Load(); got != 4 {
		t.Errorf("server saw %d attempts, want 4 (1 + 3 retries)", got)
	}

	// 400s never retry.
	shed.sheds.Store(0)
	shed.limit = 0
	if _, err := c.Gittins(context.Background(), &api.Bandit{Beta: 2}); err == nil {
		t.Fatal("bad spec accepted")
	}
	if got := shed.sheds.Load(); got != 1 {
		t.Errorf("400 retried: server saw %d attempts", got)
	}
}

// TestClientLegacyErrorShim: an error body that is not the envelope (here
// the pre-v2 string form) still yields an APIError carrying the status,
// with the raw body as its message.
func TestClientLegacyErrorShim(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprintln(w, `{"error":"legacy message"}`)
	}))
	defer srv.Close()
	c := client.New(srv.URL)
	_, err := c.Gittins(context.Background(), banditSpec())
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("error %v", err)
	}
	if apiErr.Code != "" || apiErr.Message != `{"error":"legacy message"}` || apiErr.Status != http.StatusBadRequest {
		t.Errorf("non-envelope error decoded as %+v", apiErr)
	}
}

// TestBatcherCoalesces: concurrent calls through the batching transport
// land as ONE /v1/batch request whose fan-out count equals the call count,
// and every caller gets its own correct result.
func TestBatcherCoalesces(t *testing.T) {
	c, _ := liveServer(t, service.Config{})
	b := c.Batcher(client.WithBatchMaxItems(4), client.WithBatchLinger(time.Hour))
	defer b.Close()

	specs := make([]*api.Bandit, 4)
	for i := range specs {
		specs[i] = banditSpec()
		specs[i].Rewards = []float64{1, 0.3 + float64(i)/100}
	}
	var wg sync.WaitGroup
	results := make([]*api.GittinsResponse, len(specs))
	errs := make([]error, len(specs))
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = b.Gittins(context.Background(), specs[i])
		}(i)
	}
	// The 4th call reaches max-items and flushes the batch (linger would
	// otherwise hold it for an hour, proving the size trigger).
	wg.Wait()

	hashes := make(map[string]bool)
	for i := range specs {
		if errs[i] != nil {
			t.Fatalf("call %d: %v", i, errs[i])
		}
		if want := api.Hash(specs[i]); results[i].SpecHash != want {
			t.Errorf("call %d answered hash %.8s, want %.8s — results crossed callers", i, results[i].SpecHash, want)
		}
		hashes[results[i].SpecHash] = true
	}
	if len(hashes) != 4 {
		t.Errorf("expected 4 distinct results, got %d", len(hashes))
	}

	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	be := st.Endpoints["batch"]
	if be.Requests != 1 || be.BatchItems != 4 {
		t.Errorf("batch endpoint stats %+v, want 1 request fanning out 4 items", be)
	}
}

// TestBatcherLingerAndPartialFailure: a lone call flushes after the linger
// elapses, and a failing sibling in a flushed batch fails only its own
// caller.
func TestBatcherLingerAndPartialFailure(t *testing.T) {
	c, _ := liveServer(t, service.Config{})
	b := c.Batcher(client.WithBatchMaxItems(16), client.WithBatchLinger(time.Millisecond))
	defer b.Close()

	// Lone call: the linger timer flushes it.
	g, err := b.Gittins(context.Background(), banditSpec())
	if err != nil || g.States != 2 {
		t.Fatalf("lone lingered call: %v (%+v)", err, g)
	}

	// Mixed batch: one good, one bad, fired together.
	var wg sync.WaitGroup
	var goodErr, badErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, goodErr = b.Gittins(context.Background(), banditSpec())
	}()
	go func() {
		defer wg.Done()
		_, badErr = b.Gittins(context.Background(), &api.Bandit{Beta: 2})
	}()
	wg.Wait()
	if goodErr != nil {
		t.Errorf("good sibling failed: %v", goodErr)
	}
	var apiErr *client.APIError
	if !errors.As(badErr, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Errorf("bad sibling error: %v", badErr)
	}
}

// itemSheddingHandler rewrites the first n /v1/batch responses so every
// item is a 429 envelope, then delegates — a deterministic per-item
// overload server.
type itemSheddingHandler struct {
	next  http.Handler
	sheds atomic.Int64
	limit int64
}

func (h *itemSheddingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/batch" && h.sheds.Add(1) <= h.limit {
		var req api.BatchRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		envBody, _ := json.Marshal(api.ErrorResponse{Err: api.ErrorDetail{
			Code: api.ErrCodeOverloaded, Message: "server overloaded: admission queue full",
		}})
		resp := api.BatchResponse{Items: make([]api.BatchItemResult, len(req.Items))}
		for i := range resp.Items {
			resp.Items[i] = api.BatchItemResult{Status: http.StatusTooManyRequests, Body: envBody}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(resp)
		return
	}
	h.next.ServeHTTP(w, r)
}

// TestBatcherRetriesShedItems pins the batching transport's retry parity:
// a per-item 429 inside a 200 batch body is re-enqueued with backoff, so
// a batched call succeeds exactly when the equivalent single call would
// have.
func TestBatcherRetriesShedItems(t *testing.T) {
	shed := &itemSheddingHandler{next: service.New(service.Config{}).Handler(), limit: 2}
	srv := httptest.NewServer(shed)
	defer srv.Close()
	c := client.New(srv.URL, client.WithRetry(3, time.Millisecond))
	b := c.Batcher(client.WithBatchLinger(time.Millisecond))
	defer b.Close()

	g, err := b.Gittins(context.Background(), banditSpec())
	if err != nil {
		t.Fatalf("gittins after 2 shed batches: %v", err)
	}
	if g.States != 2 {
		t.Fatalf("response %+v", g)
	}
	if got := shed.sheds.Load(); got != 3 {
		t.Errorf("server saw %d batch attempts, want 3 (2 shed + 1 served)", got)
	}

	// Retries exhausted: the per-item 429 surfaces as a typed APIError.
	shed.sheds.Store(0)
	shed.limit = 100
	_, err = b.Gittins(context.Background(), banditSpec())
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests || apiErr.Code != api.ErrCodeOverloaded {
		t.Fatalf("exhausted item retries: %v", err)
	}
}

// TestBatcherSimulate: simulate calls batch too, with the spec-hash check
// intact and the body identical to the single-call response.
func TestBatcherSimulate(t *testing.T) {
	c, _ := liveServer(t, service.Config{})
	b := c.Batcher(client.WithBatchLinger(time.Millisecond))
	defer b.Close()

	batched, err := b.Simulate(context.Background(), mg1SimReq())
	if err != nil {
		t.Fatalf("batched simulate: %v", err)
	}
	single, err := c.Simulate(context.Background(), mg1SimReq())
	if err != nil {
		t.Fatalf("single simulate: %v", err)
	}
	if batched.SpecHash != single.SpecHash || batched.MG1.CostRateMean != single.MG1.CostRateMean {
		t.Errorf("batched %+v differs from single %+v", batched, single)
	}
}

// TestSweepThroughClient drives the full async sweep protocol through the
// SDK against a live server and checks the NDJSON stream is byte-identical
// across server parallelism — the determinism contract surviving the
// client path.
func TestSweepThroughClient(t *testing.T) {
	sweepReq := func() *api.SweepRequest {
		base, _ := json.Marshal(mg1SimReq())
		return &api.SweepRequest{
			Base: base,
			Grid: api.Grid{Axes: []api.Axis{
				{Path: "mg1.spec.classes.0.rate", Values: []float64{0.2, 0.3}},
			}},
			Policies: []string{"cmu", "fifo"},
		}
	}
	run := func(parallel int) []byte {
		c, _ := liveServer(t, service.Config{Parallel: parallel})
		ctx := context.Background()
		st, err := c.SweepSubmit(ctx, sweepReq())
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		if st.CellsTotal != 4 {
			t.Fatalf("accepted status %+v", st)
		}
		final, err := c.SweepWait(ctx, st.ID, time.Millisecond)
		if err != nil {
			t.Fatalf("wait: %v", err)
		}
		if final.State != api.SweepDone {
			t.Fatalf("sweep ended %q: %+v", final.State, final)
		}
		rows, err := c.SweepRows(ctx, st.ID)
		if err != nil {
			t.Fatalf("rows: %v", err)
		}
		if len(rows) != 2 || rows[0].Best != "cmu" {
			t.Fatalf("rows %+v", rows)
		}
		stream, err := c.SweepResults(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		return stream
	}
	s1, s8 := run(1), run(8)
	if len(s1) == 0 || !bytes.Equal(s1, s8) {
		t.Fatalf("sweep NDJSON differs through the client between parallel 1 and 8:\n%s\nvs\n%s", s1, s8)
	}
}

// TestInProcessMatchesLiveHTTP: the in-process transport answers bytes
// identical to a real HTTP round trip against the same configuration.
func TestInProcessMatchesLiveHTTP(t *testing.T) {
	body, err := json.Marshal(mg1SimReq())
	if err != nil {
		t.Fatal(err)
	}
	live, _ := liveServer(t, service.Config{})
	inproc := client.NewInProcess(service.New(service.Config{}).Handler())
	b1, err := live.SimulateRaw(context.Background(), body)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := inproc.SimulateRaw(context.Background(), body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("in-process and live HTTP bodies differ:\n%s\n%s", b1, b2)
	}
}
