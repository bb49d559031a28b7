package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"stochsched/pkg/api"
)

// This file covers POST /v1/batch: heterogeneous multiplexing, per-item
// status/body semantics, deterministic ordering, limits, and the batch
// fan-out counters in /v1/stats.

// batchOf marshals items into a /v1/batch body.
func batchOf(t *testing.T, items ...api.BatchItem) string {
	t.Helper()
	b, err := json.Marshal(api.BatchRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func decodeBatch(t *testing.T, body []byte) api.BatchResponse {
	t.Helper()
	var resp api.BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decoding batch response: %v (%s)", err, body)
	}
	return resp
}

// TestBatchHeterogeneous multiplexes an index call, a priority call, and a
// simulate call in one round trip and checks each item's body is
// byte-identical (modulo the embedded-JSON newline) to the single-call
// endpoint's response, in item order.
func TestBatchHeterogeneous(t *testing.T) {
	h := New(Config{}).Handler()
	priorityBody := `{"kind":"mg1","mg1":{"classes":[
	  {"rate": 0.3, "service_mean": 0.5, "hold_cost": 4},
	  {"rate": 0.2, "service_mean": 1, "hold_cost": 1}
	]}}`
	simBody := fmt.Sprintf(mg1SimBody, 0)

	w := post(t, h, "/v1/batch", batchOf(t,
		api.BatchItem{Op: api.OpIndex, Body: json.RawMessage(gittinsBody)},
		api.BatchItem{Op: api.OpIndex, Body: json.RawMessage(priorityBody)},
		api.BatchItem{Op: api.OpSimulate, Body: json.RawMessage(simBody)},
	))
	if w.Code != http.StatusOK {
		t.Fatalf("batch: code %d: %s", w.Code, w.Body)
	}
	resp := decodeBatch(t, w.Body.Bytes())
	if len(resp.Items) != 3 {
		t.Fatalf("batch answered %d items, want 3", len(resp.Items))
	}
	singles := []struct {
		path, body string
	}{
		{"/v1/index", gittinsBody},
		{"/v1/index", priorityBody},
		{"/v1/simulate", simBody},
	}
	for i, item := range resp.Items {
		if item.Status != http.StatusOK {
			t.Errorf("item %d: status %d (%s)", i, item.Status, item.Body)
			continue
		}
		single := post(t, h, singles[i].path, singles[i].body)
		want := bytes.TrimRight(single.Body.Bytes(), "\n")
		if !bytes.Equal(item.Body, want) {
			t.Errorf("item %d differs from %s:\nbatch  %s\nsingle %s", i, singles[i].path, item.Body, want)
		}
	}
	// The single calls above repeated the batch's specs: all three must
	// have been cache hits, proving batched and unbatched traffic share
	// one cache keyed identically.
	for i, single := range singles {
		if w := post(t, h, single.path, single.body); w.Header().Get("X-Cache") != "hit" {
			t.Errorf("item %d (%s) after batch: X-Cache %q, want hit", i, single.path, w.Header().Get("X-Cache"))
		}
	}
}

// TestBatchPartialFailure: one malformed item answers its own 400 with the
// standard envelope; its siblings still succeed. One bad apple never
// spoils the batch.
func TestBatchPartialFailure(t *testing.T) {
	h := New(Config{}).Handler()
	w := post(t, h, "/v1/batch", batchOf(t,
		api.BatchItem{Op: api.OpIndex, Body: json.RawMessage(gittinsBody)},
		api.BatchItem{Op: api.OpIndex, Body: json.RawMessage(`{"kind":"quantum","quantum":{}}`)},
		api.BatchItem{Op: "teleport", Body: json.RawMessage(`{}`)},
	))
	if w.Code != http.StatusOK {
		t.Fatalf("batch: code %d: %s", w.Code, w.Body)
	}
	resp := decodeBatch(t, w.Body.Bytes())
	if resp.Items[0].Status != http.StatusOK {
		t.Errorf("good item: status %d (%s)", resp.Items[0].Status, resp.Items[0].Body)
	}
	for i := 1; i < 3; i++ {
		if resp.Items[i].Status != http.StatusBadRequest {
			t.Errorf("bad item %d: status %d, want 400", i, resp.Items[i].Status)
		}
		var env api.ErrorResponse
		if err := json.Unmarshal(resp.Items[i].Body, &env); err != nil || env.Err.Code != api.ErrCodeBadRequest {
			t.Errorf("bad item %d: body %s is not a bad_request envelope (%v)", i, resp.Items[i].Body, err)
		}
	}
}

// TestBatchItemOrderDeterministic: duplicate and distinct specs come back
// in item order with per-item cache outcomes; the duplicate of an earlier
// item in the same batch is served without a second computation (hit or
// singleflight dedup, depending on scheduling).
func TestBatchItemOrderDeterministic(t *testing.T) {
	h := New(Config{}).Handler()
	specB := strings.Replace(gittinsBody, "0.3]", "0.31]", 1)
	items := []api.BatchItem{
		{Op: api.OpIndex, Body: json.RawMessage(gittinsBody)},
		{Op: api.OpIndex, Body: json.RawMessage(specB)},
		{Op: api.OpIndex, Body: json.RawMessage(gittinsBody)},
	}
	w := post(t, h, "/v1/batch", batchOf(t, items...))
	if w.Code != http.StatusOK {
		t.Fatalf("batch: code %d: %s", w.Code, w.Body)
	}
	resp := decodeBatch(t, w.Body.Bytes())
	if !bytes.Equal(resp.Items[0].Body, resp.Items[2].Body) {
		t.Error("identical items answered different bodies")
	}
	if bytes.Equal(resp.Items[0].Body, resp.Items[1].Body) {
		t.Error("distinct items answered identical bodies")
	}
	var g0, g1 api.GittinsResponse
	if err := json.Unmarshal(resp.Items[0].Body, &g0); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(resp.Items[1].Body, &g1); err != nil {
		t.Fatal(err)
	}
	if g0.SpecHash == g1.SpecHash {
		t.Error("distinct specs share a hash")
	}
}

// TestBatchLimits: an empty batch and an oversized batch are whole-request
// 400s.
func TestBatchLimits(t *testing.T) {
	h := New(Config{BatchMaxItems: 2}).Handler()
	if w := post(t, h, "/v1/batch", `{"items":[]}`); w.Code != http.StatusBadRequest {
		t.Errorf("empty batch: code %d, want 400", w.Code)
	}
	item := api.BatchItem{Op: api.OpIndex, Body: json.RawMessage(gittinsBody)}
	if w := post(t, h, "/v1/batch", batchOf(t, item, item, item)); w.Code != http.StatusBadRequest {
		t.Errorf("oversized batch: code %d, want 400", w.Code)
	}
	if w := post(t, h, "/v1/batch", batchOf(t, item, item)); w.Code != http.StatusOK {
		t.Errorf("at-limit batch: code %d, want 200 (%s)", w.Code, w.Body)
	}
}

// TestStatsIndexAndBatchCounters pins the /v1/stats JSON shape of the new
// endpoints: index and batch appear as endpoint buckets, and the batch
// bucket reports its item fan-out count (batch_items) alongside the
// per-item cache outcomes.
func TestStatsIndexAndBatchCounters(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	post(t, h, "/v1/index", gittinsBody)
	item := api.BatchItem{Op: api.OpIndex, Body: json.RawMessage(gittinsBody)}
	post(t, h, "/v1/batch", batchOf(t, item, item, item))

	var raw struct {
		Endpoints map[string]json.RawMessage `json:"endpoints"`
	}
	if code := getJSON(t, h, "/v1/stats", &raw); code != http.StatusOK {
		t.Fatalf("stats code %d", code)
	}
	for _, ep := range []string{"index", "batch"} {
		if _, ok := raw.Endpoints[ep]; !ok {
			t.Fatalf("stats endpoints missing %q", ep)
		}
	}
	var idx api.EndpointStats
	if err := json.Unmarshal(raw.Endpoints["index"], &idx); err != nil {
		t.Fatal(err)
	}
	if idx.Requests != 1 || idx.CacheMisses != 1 {
		t.Errorf("index stats %+v", idx)
	}
	// The JSON shape: batch_items must be present as a key on the batch
	// bucket (and, being omitempty, absent from endpoints that never fan
	// out).
	var batchRaw map[string]json.RawMessage
	if err := json.Unmarshal(raw.Endpoints["batch"], &batchRaw); err != nil {
		t.Fatal(err)
	}
	if _, ok := batchRaw["batch_items"]; !ok {
		t.Errorf("batch bucket missing batch_items: %s", raw.Endpoints["batch"])
	}
	var idxRaw map[string]json.RawMessage
	if err := json.Unmarshal(raw.Endpoints["index"], &idxRaw); err != nil {
		t.Fatal(err)
	}
	if _, ok := idxRaw["batch_items"]; ok {
		t.Errorf("index bucket unexpectedly reports batch_items: %s", raw.Endpoints["index"])
	}
	var b api.EndpointStats
	if err := json.Unmarshal(raw.Endpoints["batch"], &b); err != nil {
		t.Fatal(err)
	}
	if b.Requests != 1 || b.BatchItems != 3 {
		t.Errorf("batch stats %+v, want 1 request fanning out 3 items", b)
	}
	// The 3 items hit the cache entry seeded by the direct /v1/index call:
	// 1 computation total across both endpoints.
	if got := b.CacheHits + b.Deduplicated + b.CacheMisses; got != 3 {
		t.Errorf("batch item outcomes %+v do not cover 3 items", b)
	}
}
