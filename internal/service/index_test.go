package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"stochsched/internal/scenario/scenariotest"
	"stochsched/pkg/api"
)

// This file covers the /v1/index surface: the kind-dispatched endpoint,
// the retired per-family routes, inputs that must answer 400 rather than
// 500 or an unbounded computation, the method-scoped routing (405 +
// Allow), and the standard error envelope.

// indexEnvelope wraps a single-kind payload into its /v1/index form.
func indexEnvelope(kind, payload string) string {
	return fmt.Sprintf(`{"kind":%q,%q:%s}`, kind, kind, payload)
}

// TestRetiredIndexRoutes404: the per-family routes /v1/gittins,
// /v1/whittle and /v1/priority are gone — /v1/index serves their bodies
// (see TestIndexGoldenCompat) — so they answer 404, and /v1/stats carries no
// metrics bucket for them.
func TestRetiredIndexRoutes404(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	for _, route := range []string{"/v1/gittins", "/v1/whittle", "/v1/priority"} {
		if w := post(t, h, route, gittinsBody); w.Code != http.StatusNotFound {
			t.Errorf("POST %s: code %d, want 404", route, w.Code)
		}
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var stats StatsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"gittins", "whittle", "priority"} {
		if _, ok := stats.Endpoints[name]; ok {
			t.Errorf("/v1/stats still reports endpoint %q", name)
		}
	}
}

// TestIndexRejectsBadRequests covers the 400 surface of the new endpoint.
func TestIndexRejectsBadRequests(t *testing.T) {
	h := New(Config{}).Handler()
	bad := []string{
		`not json`,
		`{"kind":"quantum","quantum":{}}`,              // unknown kind
		`{"kind":"bandit"}`,                            // missing payload
		`{"kind":"bandit","restless":{}}`,              // payload under the wrong kind
		indexEnvelope("bandit", `{"beta":2}`),          // payload fails validation
		`{"kind":"mg1","mg1":{"classes":[]},"x":true}`, // extra field
	}
	for _, body := range bad {
		if w := post(t, h, "/v1/index", body); w.Code != http.StatusBadRequest {
			t.Errorf("body %q: code %d, want 400 (%s)", body, w.Code, w.Body)
		}
	}
	if w := post(t, h, "/v1/index", gittinsBody); w.Code != http.StatusOK {
		t.Errorf("/v1/index with bandit kind: code %d, want 200 (%s)", w.Code, w.Body)
	}
}

// TestUnservableInputsAnswer400: inputs the solvers cannot answer are the
// client's fault, so each ends in a 400 error envelope within a bounded
// time — never a 500 or a computation holding an admission slot.
// Two simulate bodies whose replications fire billions of events: a
// polling server cycling through near-zero switchovers, and an M/G/1 at
// arrival rate 1e7.
const (
	pollingSpinBody = `{"kind":"polling","polling":{"spec":{"queues":[
		{"rate":0.4,"service_mean":0.6,"hold_cost":2},{"rate":0.3,"service_mean":1,"hold_cost":1}],
		"switch":{"kind":"det","value":1e-9}},"policy":"exhaustive","horizon":300,"burnin":50},"seed":1,"replications":2}`
	mg1FloodBody = `{"kind":"mg1","mg1":{"spec":{"classes":[
		{"rate":1e7,"service_mean":2e-8,"hold_cost":1},{"rate":1e7,"service_mean":2e-8,"hold_cost":2}]},
		"policy":"cmu","horizon":300,"burnin":50},"seed":1,"replications":2}`
)

func TestUnservableInputsAnswer400(t *testing.T) {
	h := New(Config{}).Handler()
	multichain := `{"actions":[{"transitions":[[1,0],[0,1]],"rewards":[1,0]}]}`
	type input struct{ name, path, body string }
	var inputs []input
	// A 1-sample CI95 is +Inf, which JSON cannot encode.
	for _, kind := range scenariotest.SimulateKinds() {
		one, err := api.SetNumber([]byte(scenariotest.SimulateBody(kind, 1)), "replications", 1)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{kind + " replications 1", "/v1/simulate", string(one)})
	}
	for _, tc := range append(inputs, []input{
		// Erlang C loops over the servers: 2e9 of them held a slot for 30+ s.
		{"2e9 servers", "/v1/index", `{"kind":"mmm","mmm":{"classes":[{"rate":0.1,"service_mean":1,"hold_cost":1}],"servers":2000000000}}`},
		// Relative value iteration does not converge on a multichain MDP.
		{"multichain mdp index", "/v1/index", indexEnvelope("mdp", multichain)},
		{"multichain mdp simulate", "/v1/simulate", `{"kind":"mdp","mdp":{"spec":` + multichain +
			`,"policy":"optimal","horizon":100,"burnin":10},"seed":1,"replications":4}`},
		// Both were once charged their horizon (work 600) and then ran for
		// minutes: the budget counts events, horizon × 2·Σλ (+ 1/E[switch]).
		{"polling 1e-9 switchover", "/v1/simulate", pollingSpinBody},
		{"mg1 rates 1e7", "/v1/simulate", mg1FloodBody},
	}...) {
		begin := time.Now()
		w := post(t, h, tc.path, tc.body)
		elapsed := time.Since(begin)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: code %d, want 400 (%s)", tc.name, w.Code, w.Body)
			continue
		}
		var env api.ErrorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || env.Err.Code != api.ErrCodeBadRequest {
			t.Errorf("%s: body %q is not a bad_request envelope", tc.name, w.Body)
		}
		if elapsed > time.Second {
			t.Errorf("%s: answered in %v, want milliseconds", tc.name, elapsed)
		}
	}
}

// TestComputeTimeoutEndsReplications: with the work budget off, the
// ComputeTimeout still ends a runaway replication from inside its event
// loop, answering the 503 unavailable envelope promptly.
func TestComputeTimeoutEndsReplications(t *testing.T) {
	h := New(Config{MaxSimWork: -1, ComputeTimeout: 100 * time.Millisecond}).Handler()
	for name, body := range map[string]string{"polling": pollingSpinBody, "mg1": mg1FloodBody} {
		begin := time.Now()
		w := post(t, h, "/v1/simulate", body)
		elapsed := time.Since(begin)
		if w.Code != http.StatusServiceUnavailable {
			t.Errorf("%s: code %d, want 503 (%s)", name, w.Code, w.Body)
			continue
		}
		var env api.ErrorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || env.Err.Code != api.ErrCodeUnavailable {
			t.Errorf("%s: body %q is not an unavailable envelope", name, w.Body)
		}
		if elapsed > 2*time.Second {
			t.Errorf("%s: answered in %v after a 100ms compute timeout", name, elapsed)
		}
	}
}

// TestMethodNotAllowedOnEveryRoute is the regression suite for the
// method-scoped patterns: every /v1 route must answer wrong-method
// requests with 405, an Allow header naming the supported verbs, and the
// standard JSON error envelope — not Go's plain-text default and not the
// old accept-anything behavior.
func TestMethodNotAllowedOnEveryRoute(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	// A live sweep id so the {id} routes resolve.
	st := submitSweep(t, h, fmt.Sprintf(sweepBody, 0))
	waitSweep(t, h, st.ID)

	routes := []struct {
		path  string
		allow string // exact Allow header
	}{
		{"/v1/index", "POST"},
		{"/v1/simulate", "POST"},
		{"/v1/batch", "POST"},
		{"/v1/sweep", "POST"},
		{"/v1/sweep/" + st.ID, "GET, DELETE"},
		{"/v1/sweep/" + st.ID + "/results", "GET"},
		{"/v1/stats", "GET"},
	}
	for _, rt := range routes {
		for _, method := range []string{http.MethodGet, http.MethodPut, http.MethodPatch} {
			if strings.Contains(rt.allow, method) {
				continue
			}
			req := httptest.NewRequest(method, rt.path, nil)
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusMethodNotAllowed {
				t.Errorf("%s %s: code %d, want 405", method, rt.path, w.Code)
				continue
			}
			if got := w.Header().Get("Allow"); got != rt.allow {
				t.Errorf("%s %s: Allow = %q, want %q", method, rt.path, got, rt.allow)
			}
			var env api.ErrorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
				t.Errorf("%s %s: non-envelope 405 body %q", method, rt.path, w.Body)
				continue
			}
			if env.Err.Code != api.ErrCodeMethodNotAllowed {
				t.Errorf("%s %s: code %q, want %q", method, rt.path, env.Err.Code, api.ErrCodeMethodNotAllowed)
			}
		}
	}
}

// TestErrorEnvelopeShape pins the standardized error body
// {"error":{"code","message"}} across representative failure classes.
func TestErrorEnvelopeShape(t *testing.T) {
	s := New(Config{})
	h := s.Handler()

	check := func(w *httptest.ResponseRecorder, wantStatus int, wantCode string) {
		t.Helper()
		if w.Code != wantStatus {
			t.Fatalf("code %d, want %d (%s)", w.Code, wantStatus, w.Body)
		}
		// The raw shape: "error" must be an object with exactly code+message.
		var raw struct {
			Err map[string]json.RawMessage `json:"error"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &raw); err != nil || raw.Err == nil {
			t.Fatalf("body %q is not the object envelope (%v)", w.Body, err)
		}
		var env api.ErrorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
			t.Fatal(err)
		}
		if env.Err.Code != wantCode || env.Err.Message == "" {
			t.Errorf("envelope %+v, want code %q with a message", env.Err, wantCode)
		}
	}

	check(post(t, h, "/v1/index", `not json`), http.StatusBadRequest, api.ErrCodeBadRequest)
	check(post(t, h, "/v1/index", `{"kind":"quantum","quantum":{}}`), http.StatusBadRequest, api.ErrCodeBadRequest)

	req := httptest.NewRequest(http.MethodGet, "/v1/sweep/swp-nope", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	check(w, http.StatusNotFound, api.ErrCodeNotFound)
}
