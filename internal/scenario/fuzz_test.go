package scenario

import (
	"encoding/json"
	"testing"

	"stochsched/internal/scenario/scenariotest"
	"stochsched/pkg/api"
)

// FuzzParseRequest: on any body, ParseRequest, Hash and CheckPayload never
// panic, and an accepted body hashes the same after a round trip through
// its wire type (json.Marshal of the api.SimulateRequest it decodes to,
// then a re-parse). Run with `make fuzz`.
func FuzzParseRequest(f *testing.F) {
	for _, kind := range scenariotest.SimulateKinds() {
		f.Add(scenariotest.SimulateBody(kind, 1))
	}
	for _, body := range simulateContract() {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		req, err := ParseRequest([]byte(body), contractLimits)
		if err != nil {
			return
		}
		if err := req.Scenario.CheckPayload(req.Payload); err != nil {
			t.Fatalf("accepted payload fails CheckPayload: %v", err)
		}
		var w api.SimulateRequest
		roundTrip(t, body, &w, func(b []byte) (string, error) {
			again, err := ParseRequest(b, contractLimits)
			if err != nil {
				return "", err
			}
			return again.Hash(), nil
		}, req.Hash())
	})
}

// FuzzParseIndexRequest is FuzzParseRequest for /v1/index bodies.
func FuzzParseIndexRequest(f *testing.F) {
	for _, kind := range IndexKinds() {
		f.Add(scenariotest.IndexBody(kind))
	}
	for _, body := range indexContract() {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		req, err := ParseIndexRequest([]byte(body))
		if err != nil {
			return
		}
		var w api.IndexRequest
		roundTrip(t, body, &w, func(b []byte) (string, error) {
			again, err := ParseIndexRequest(b)
			if err != nil {
				return "", err
			}
			return again.Hash(), nil
		}, req.Hash())
	})
}

// roundTrip decodes an accepted body into its wire struct w, re-encodes it
// with json.Marshal, and requires parse to accept the encoding with the
// same hash.
func roundTrip(t *testing.T, body string, w any, parse func([]byte) (string, error), hash string) {
	t.Helper()
	if err := json.Unmarshal([]byte(body), w); err != nil {
		t.Fatalf("accepted body does not decode into %T: %v", w, err)
	}
	enc, err := json.Marshal(w)
	if err != nil {
		t.Fatalf("re-encoding %T: %v", w, err)
	}
	again, err := parse(enc)
	if err != nil {
		t.Fatalf("re-encoded body %s rejected: %v", enc, err)
	}
	if again != hash {
		t.Fatalf("hash %s after re-encoding %s, want %s", again, enc, hash)
	}
}
