package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stochsched/internal/scenario"
	"stochsched/internal/scenario/scenariotest"
	"stochsched/internal/service"
)

// For an absorbing two-state project the Gittins index of each state is its
// own reward (the project pays that reward forever), so both algorithms must
// return the rewards — an exact, hand-checkable fixture.
const absorbing = `{"kind":"bandit","bandit":{
  "beta": 0.9,
  "transitions": [[1, 0], [0, 1]],
  "rewards": [0.7, 0.2]
}}`

// checkAbsorbing requires both index columns of body to equal the rewards.
func checkAbsorbing(t *testing.T, body []byte) {
	t.Helper()
	var resp struct {
		Restart []float64 `json:"gittins_restart"`
		Largest []float64 `json:"gittins_largest_index"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	want := []float64{0.7, 0.2}
	if len(resp.Restart) != len(want) || len(resp.Largest) != len(want) {
		t.Fatalf("want %d states, got %s", len(want), body)
	}
	for i, w := range want {
		if math.Abs(resp.Restart[i]-w) > 1e-5 {
			t.Errorf("restart[%d] = %v, want %v", i, resp.Restart[i], w)
		}
		if math.Abs(resp.Largest[i]-w) > 1e-5 {
			t.Errorf("largest[%d] = %v, want %v", i, resp.Largest[i], w)
		}
	}
}

// indexInput runs readInput + IndexLocal, the body of `stochsched index`.
func indexInput(file string) ([]byte, error) {
	raw, err := readInput(file)
	if err != nil {
		return nil, err
	}
	return IndexLocal(raw)
}

func TestIndexFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "index.json")
	if err := os.WriteFile(path, []byte(absorbing), 0o644); err != nil {
		t.Fatal(err)
	}
	body, err := indexInput(path)
	if err != nil {
		t.Fatal(err)
	}
	checkAbsorbing(t, body)
}

func TestIndexStdin(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stdin.json")
	if err := os.WriteFile(path, []byte(absorbing), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdin := os.Stdin
	os.Stdin = f
	defer func() { os.Stdin = stdin }()
	body, err := indexInput("-")
	if err != nil {
		t.Fatal(err)
	}
	checkAbsorbing(t, body)
}

func TestIndexRejectsBadSpecs(t *testing.T) {
	bad := []string{
		`not json`,
		`{"kind":"bandit","bandit":{"beta": 1.5, "transitions": [[1]], "rewards": [1]}}`,
		`{"kind":"bandit","bandit":{"beta": 0.9, "transitions": [[0.5, 0.4], [0, 1]], "rewards": [1, 0]}}`,
		`{"kind":"bandit","bandit":{"beta": 0.9, "transitions": [[1, 0], [0, 1]], "rewards": [1]}}`,
		`{"kind":"bandit","bandit":{"beta": 0.9}}`,
		`{"beta": 0.9, "transitions": [[1, 0], [0, 1]], "rewards": [1, 0]}`, // no envelope
		`{"kind":"polling","polling":{}}`,                                   // no analytic index
	}
	for _, in := range bad {
		if _, err := IndexLocal([]byte(in)); err == nil {
			t.Errorf("body %q accepted", in)
		}
	}
	if _, err := indexInput(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestIndexMatchesDaemon: for every kind with an analytic index, the
// subcommand prints exactly the bytes a default-configured daemon answers
// to POST /v1/index.
func TestIndexMatchesDaemon(t *testing.T) {
	daemon := service.New(service.Config{}).Handler()
	for _, kind := range scenario.IndexKinds() {
		body := scenariotest.IndexBody(kind)
		local, err := IndexLocal([]byte(body))
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		w := httptest.NewRecorder()
		daemon.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/index", strings.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: daemon answered %d: %s", kind, w.Code, w.Body)
		}
		if !bytes.Equal(local, w.Body.Bytes()) {
			t.Errorf("%s: stochsched index differs from POST /v1/index:\n%s\n%s", kind, local, w.Body)
		}
	}
}
