package service

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestGoldenBodies pins every endpoint's response to the checked-in golden
// used by the CI smoke job (scripts/service_smoke.sh), so a drift in
// encoding or solver output fails `go test` before it fails CI. Regenerate
// with REGEN=1 scripts/service_smoke.sh.
func TestGoldenBodies(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Go may contract floating-point expressions (FMA) on other
		// architectures, shifting last-ulp digits; the goldens are
		// byte-exact amd64 output, matching CI's runners.
		t.Skipf("goldens are amd64-exact; running on %s", runtime.GOARCH)
	}
	h := New(Config{}).Handler()
	for _, tc := range []struct{ stem, ep, golden string }{
		{"simulate", "simulate", ""},
		// The registry's non-mg1 simulate kinds, through the same endpoint.
		{"simulate_restless", "simulate", ""},
		{"simulate_batch", "simulate", ""},
		{"simulate_jackson", "simulate", ""},
		{"simulate_polling", "simulate", ""},
		{"simulate_mdp", "simulate", ""},
		{"simulate_flowshop", "simulate", ""},
		// The remaining served DES paths: mmm under both policies, mg1 with
		// feedback (klimov), jackson lbfs with probabilistic routes, and the
		// gated and limited polling regimes.
		{"simulate_mmm_cmu", "simulate", ""},
		{"simulate_mmm_fifo", "simulate", ""},
		{"simulate_klimov", "simulate", ""},
		{"simulate_jackson_lbfs", "simulate", ""},
		{"simulate_polling_gated", "simulate", ""},
		{"simulate_polling_limited", "simulate", ""},
		// Target-precision mode with antithetic draws: the golden pins the
		// stopping rule's spend (replications_used) end to end.
		{"simulate_adaptive", "simulate", ""},
		// The analytic indexes of the network and MDP kinds; the bandit,
		// restless and mg1 ones are pinned by TestIndexGoldenCompat.
		{"jackson_index", "index", ""},
		{"mdp_index", "index", ""},
		// A heterogeneous batch has its own golden.
		{"batch", "batch", ""},
	} {
		req, err := os.ReadFile(filepath.Join("testdata", tc.stem+"_req.json"))
		if err != nil {
			t.Fatal(err)
		}
		goldenStem := tc.golden
		if goldenStem == "" {
			goldenStem = tc.stem
		}
		golden, err := os.ReadFile(filepath.Join("testdata", goldenStem+"_golden.json"))
		if err != nil {
			t.Fatal(err)
		}
		w := post(t, h, "/v1/"+tc.ep, string(req))
		if w.Code != http.StatusOK {
			t.Errorf("/v1/%s (%s): code %d: %s", tc.ep, tc.stem, w.Code, w.Body)
			continue
		}
		if !bytes.Equal(w.Body.Bytes(), golden) {
			t.Errorf("/v1/%s drifted from testdata/%s_golden.json:\ngot  %s\nwant %s",
				tc.ep, tc.stem, w.Body.Bytes(), golden)
		}
	}
}

// TestSweepGoldenRows pins the first and last NDJSON rows of the smoke
// sweeps (the mg1 policy comparison, the restless fleet comparison, the
// jackson network load sweep, and the decorrelated crn=false variant of
// the mg1 comparison) to the same goldens
// scripts/service_smoke.sh checks, so a drift in sweep row encoding or
// simulation output fails `go test` before CI.
func TestSweepGoldenRows(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("goldens are amd64-exact; running on %s", runtime.GOARCH)
	}
	for _, stem := range []string{"sweep", "sweep_restless", "sweep_jackson", "sweep_crn"} {
		req, err := os.ReadFile(filepath.Join("testdata", stem+"_req.json"))
		if err != nil {
			t.Fatal(err)
		}
		h := New(Config{}).Handler()
		st := submitSweep(t, h, string(req))
		if final := waitSweep(t, h, st.ID); final.State != "done" {
			t.Fatalf("%s ended %q: %+v", stem, final.State, final)
		}
		lines := bytes.Split(bytes.TrimRight(sweepResults(t, h, st.ID), "\n"), []byte("\n"))
		first := append(append([]byte(nil), lines[0]...), '\n')
		last := append(append([]byte(nil), lines[len(lines)-1]...), '\n')
		for _, part := range []struct {
			name string
			got  []byte
		}{{"first", first}, {"last", last}} {
			golden, err := os.ReadFile(filepath.Join("testdata", stem+"_"+part.name+"_golden.json"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(part.got, golden) {
				t.Errorf("%s %s row drifted from testdata/%s_%s_golden.json:\ngot  %s\nwant %s",
					stem, part.name, stem, part.name, part.got, golden)
			}
		}
	}
}

// TestIndexGoldenCompat pins the analytic indexes the retired per-family
// routes used to serve: /v1/index answers each of their goldens byte for
// byte (spec_hash included, so cache keys and ETags are unchanged), and a
// repeat of the same request is served from the cache.
func TestIndexGoldenCompat(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("goldens are amd64-exact; running on %s", runtime.GOARCH)
	}
	for _, tc := range []struct{ stem, golden string }{
		{"index", "gittins"}, // a bandit request
		{"whittle", "whittle"},
		{"priority", "priority"},
	} {
		req, err := os.ReadFile(filepath.Join("testdata", tc.stem+"_req.json"))
		if err != nil {
			t.Fatal(err)
		}
		golden, err := os.ReadFile(filepath.Join("testdata", tc.golden+"_golden.json"))
		if err != nil {
			t.Fatal(err)
		}
		h := New(Config{}).Handler()
		for _, wantCache := range []string{"miss", "hit"} {
			w := post(t, h, "/v1/index", string(req))
			if w.Code != http.StatusOK {
				t.Fatalf("/v1/index (%s): code %d: %s", tc.stem, w.Code, w.Body)
			}
			if !bytes.Equal(w.Body.Bytes(), golden) {
				t.Errorf("/v1/index (%s) drifted from testdata/%s_golden.json:\ngot  %s\nwant %s",
					tc.stem, tc.golden, w.Body.Bytes(), golden)
			}
			if got := w.Header().Get("X-Cache"); got != wantCache {
				t.Errorf("/v1/index (%s): X-Cache = %q, want %q", tc.stem, got, wantCache)
			}
		}
	}
}
