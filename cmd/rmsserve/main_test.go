package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fdrms/internal/obs"
	"fdrms/rms"
)

func testStore(t *testing.T, n, d int) *rms.Store {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	pts := make([]rms.Point, n)
	for i := range pts {
		vals := make([]float64, d)
		for j := range vals {
			vals[j] = rng.Float64()
		}
		pts[i] = rms.Point{ID: i, Values: vals}
	}
	store, err := rms.NewStore(d, pts, rms.Options{K: 1, R: 5, Epsilon: 0.05, MaxUtilities: 128, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	return store
}

func get(t *testing.T, srv *httptest.Server, path string, wantCode int) map[string]any {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, wantCode)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil && wantCode == 200 {
		t.Fatalf("GET %s: decoding: %v", path, err)
	}
	return body
}

func TestServeEndpoints(t *testing.T) {
	store := testStore(t, 200, 3)
	srv := httptest.NewServer(newMux(memBackend{store: store}, nil, nil, false))
	defer srv.Close()

	if resp, err := srv.Client().Get(srv.URL + "/healthz"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	}

	res := get(t, srv, "/result", 200)
	if res["generation"].(float64) != 1 {
		t.Fatalf("initial generation = %v, want 1", res["generation"])
	}
	answer := res["result"].([]any)
	if len(answer) == 0 || len(answer) > 5 {
		t.Fatalf("answer size %d, want 1..5", len(answer))
	}

	st := get(t, srv, "/stats", 200)
	if st["n"].(float64) != 200 {
		t.Fatalf("stats n = %v, want 200", st["n"])
	}

	top := get(t, srv, "/topk?u=0.5,0.3,0.2&k=7", 200)
	tuples := top["topk"].([]any)
	if len(tuples) != 7 {
		t.Fatalf("topk returned %d tuples, want 7", len(tuples))
	}
	prev := tuples[0].(map[string]any)["score"].(float64)
	for _, tu := range tuples[1:] {
		s := tu.(map[string]any)["score"].(float64)
		if s > prev {
			t.Fatal("topk scores not in decreasing order")
		}
		prev = s
	}

	reg := get(t, srv, "/regret?u=0.5,0.3,0.2", 200)
	ratio := reg["regret_ratio"].(float64)
	if ratio < 0 || ratio > 1 {
		t.Fatalf("regret ratio %v outside [0, 1]", ratio)
	}

	// Bad inputs map to 400, not 500.
	get(t, srv, "/topk?u=0.5,0.3", 400)      // wrong dimension
	get(t, srv, "/topk?u=0.5,0.3,nope", 400) // unparsable
	get(t, srv, "/topk?u=0.5,0.3,0.2&k=bad", 400)
	get(t, srv, "/topk?u=0.5,0.3,0.2&k=0", 400)
	get(t, srv, "/regret?u=-1,0.3,0.2", 400) // negative component
	get(t, srv, "/regret", 400)              // missing u
}

// A k above maxTopK is refused with 400 before any generation is pinned;
// k = maxTopK is served.
func TestServeTopKRejectsOversizedK(t *testing.T) {
	store := testStore(t, 200, 3)
	srv := httptest.NewServer(newMux(memBackend{store: store}, nil, nil, false))
	defer srv.Close()

	before := store.Current()
	get(t, srv, fmt.Sprintf("/topk?u=0.5,0.3,0.2&k=%d", maxTopK+1), 400)
	if store.Current() != before {
		t.Fatalf("a refused /topk moved the generation from %d to %d", before.ID(), store.Current().ID())
	}
	top := get(t, srv, fmt.Sprintf("/topk?u=0.5,0.3,0.2&k=%d", maxTopK), 200)
	if got := len(top["topk"].([]any)); got != 200 {
		t.Fatalf("k = %d over 200 tuples returned %d", maxTopK, got)
	}
	if top["generation"].(float64) != float64(before.ID()) {
		t.Fatalf("k = %d served generation %v, want %d", maxTopK, top["generation"], before.ID())
	}
}

func TestServeUpdateAdvancesGeneration(t *testing.T) {
	store := testStore(t, 100, 2)
	srv := httptest.NewServer(newMux(memBackend{store: store}, nil, nil, false))
	defer srv.Close()

	body := `{"insert": [{"id": 1000, "values": [2.0, 2.0]}], "delete": [0, 1]}`
	resp, err := srv.Client().Post(srv.URL+"/update", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("update: status %d, body %v", resp.StatusCode, out)
	}
	if out["generation"].(float64) != 2 || out["n"].(float64) != 99 {
		t.Fatalf("update response %v, want generation 2 and n 99", out)
	}

	// The dominating insert must now appear in the answer and in top-1.
	top := get(t, srv, "/topk?u=0.5,0.5&k=1", 200)
	first := top["topk"].([]any)[0].(map[string]any)
	if first["id"].(float64) != 1000 {
		t.Fatalf("top-1 id = %v, want the dominating insert 1000", first["id"])
	}
	if top["generation"].(float64) != 2 {
		t.Fatalf("topk generation = %v, want 2", top["generation"])
	}

	// A malformed batch changes nothing.
	resp2, err := srv.Client().Post(srv.URL+"/update", "application/json",
		strings.NewReader(`{"insert": [{"id": 1001, "values": [1.0]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != 400 {
		t.Fatalf("malformed update: status %d, want 400", resp2.StatusCode)
	}
	if g := get(t, srv, "/result", 200); g["generation"].(float64) != 2 {
		t.Fatalf("generation advanced to %v after a rejected batch", g["generation"])
	}
}

func TestServeConcurrentReadsDuringUpdates(t *testing.T) {
	store := testStore(t, 150, 2)
	srv := httptest.NewServer(newMux(memBackend{store: store}, nil, nil, false))
	defer srv.Close()

	done := make(chan error, 1)
	go func() {
		for b := 0; b < 10; b++ {
			body := fmt.Sprintf(`{"insert": [{"id": %d, "values": [0.5, 0.5]}], "delete": [%d]}`, 2000+b, b)
			resp, err := srv.Client().Post(srv.URL+"/update", "application/json", strings.NewReader(body))
			if err != nil {
				done <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != 200 {
				done <- fmt.Errorf("update %d: status %d", b, resp.StatusCode)
				return
			}
		}
		done <- nil
	}()

	lastGen := 0.0
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if g := get(t, srv, "/result", 200); g["generation"].(float64) != 11 {
				t.Fatalf("final generation = %v, want 11", g["generation"])
			}
			return
		default:
		}
		res := get(t, srv, "/regret?u=0.6,0.4", 200)
		if g := res["generation"].(float64); g < lastGen {
			t.Fatalf("generation went backwards: %v after %v", g, lastGen)
		} else {
			lastGen = g
		}
	}
}

// A wrong method on a registered path must answer 405 with an Allow header
// and the server's JSON error shape — not a bare 404.
func TestServeMethodNotAllowed(t *testing.T) {
	store := testStore(t, 50, 2)
	reg := obs.NewRegistry()
	tel := rms.NewTelemetry(reg)
	store.SetTelemetry(tel)
	srv := httptest.NewServer(newMux(memBackend{store: store}, tel, reg, false))
	defer srv.Close()

	cases := []struct {
		method, path, allow string
	}{
		{"POST", "/result", "GET"},
		{"DELETE", "/topk", "GET"},
		{"POST", "/healthz", "GET"},
		{"GET", "/update", "POST"},
		{"PUT", "/metrics", "GET"},
		{"POST", "/debug/vars", "GET"},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, srv.URL+c.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s: status %d, want 405", c.method, c.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != c.allow {
			t.Fatalf("%s %s: Allow = %q, want %q", c.method, c.path, got, c.allow)
		}
		var body map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("%s %s: non-JSON 405 body: %v", c.method, c.path, err)
		}
		resp.Body.Close()
		if body["error"] == "" {
			t.Fatalf("%s %s: 405 body carries no error message", c.method, c.path)
		}
	}

	// Unknown paths still 404.
	resp, err := srv.Client().Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /nope: status %d, want 404", resp.StatusCode)
	}
}

// /metrics must expose every instrumented layer's families and /debug/vars
// the batch traces, after traffic has flowed through the store.
func TestServeMetricsAndDebugVars(t *testing.T) {
	store := testStore(t, 100, 2)
	reg := obs.NewRegistry()
	tel := rms.NewTelemetry(reg)
	store.SetTelemetry(tel)
	srv := httptest.NewServer(newMux(memBackend{store: store}, tel, reg, false))
	defer srv.Close()

	body := `{"insert": [{"id": 3000, "values": [1.5, 1.5]}], "delete": [0]}`
	resp, err := srv.Client().Post(srv.URL+"/update", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("update: status %d", resp.StatusCode)
	}
	get(t, srv, "/topk?u=0.5,0.5&k=3", 200)

	mresp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != 200 {
		t.Fatalf("metrics: status %d", mresp.StatusCode)
	}
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	raw, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	scrape := string(raw)
	for _, prefix := range []string{"fdrms_topk_", "fdrms_pool_", "fdrms_setcover_", "fdrms_wal_", "fdrms_store_"} {
		if !strings.Contains(scrape, prefix) {
			t.Fatalf("scrape is missing family prefix %q", prefix)
		}
	}
	if !strings.Contains(scrape, "fdrms_store_publishes_total 1") {
		t.Fatal("scrape does not count the committed update")
	}

	dv := get(t, srv, "/debug/vars", 200)
	traces, ok := dv["traces"].([]any)
	if !ok || len(traces) != 1 {
		t.Fatalf("debug/vars traces = %v, want exactly one record", dv["traces"])
	}
	tr := traces[0].(map[string]any)
	if tr["ops"].(float64) != 2 || tr["inserts"].(float64) != 1 || tr["deletes"].(float64) != 1 {
		t.Fatalf("trace record %v, want ops 2 / inserts 1 / deletes 1", tr)
	}
	phase, ok := dv["phase"].(map[string]any)
	if !ok || phase["runs"].(float64) == 0 {
		t.Fatalf("debug/vars phase = %v, want a run counted", dv["phase"])
	}
}

// -pprof mounts the profiling handlers; without it the paths are 404.
func TestServePprofOptIn(t *testing.T) {
	store := testStore(t, 30, 2)
	on := httptest.NewServer(newMux(memBackend{store: store}, nil, nil, true))
	defer on.Close()
	resp, err := on.Client().Get(on.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("pprof cmdline with -pprof: status %d, want 200", resp.StatusCode)
	}

	off := httptest.NewServer(newMux(memBackend{store: store}, nil, nil, false))
	defer off.Close()
	resp, err = off.Client().Get(off.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof cmdline without -pprof: status %d, want 404", resp.StatusCode)
	}
}

// Utility components must be finite: +Inf used to pass the check and come
// back as +Inf scores that JSON cannot carry, an empty 200.
func TestServeRejectsNonFiniteUtility(t *testing.T) {
	store := testStore(t, 100, 2)
	srv := httptest.NewServer(newMux(memBackend{store: store}, nil, nil, false))
	defer srv.Close()
	for _, path := range []string{
		"/topk?u=inf,0&k=2",
		"/topk?u=0.5,NaN",
		"/regret?u=0.5,+Inf",
		"/regret?u=-inf,0.5",
	} {
		if body := get(t, srv, path, 400); body["error"] == nil {
			t.Fatalf("GET %s: 400 without a JSON error body", path)
		}
	}
}

// A body JSON cannot encode is a 500 with a JSON error: finite utilities
// can still overflow a score to +Inf.
func TestServeUnencodableResponseIs500(t *testing.T) {
	store := testStore(t, 50, 2)
	if err := store.Insert(rms.Point{ID: 1000, Values: []float64{0.9, 0.9}}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newMux(memBackend{store: store}, nil, nil, false))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/topk?u=1e308,1e308&k=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("500 body is not JSON: %v", err)
	}
	if resp.StatusCode != http.StatusInternalServerError || body["error"] == nil {
		t.Fatalf("overflowing score: status %d, body %v; want 500 with an error", resp.StatusCode, body)
	}
}

// POST /update refuses a hostile tuple as a whole with 400 and publishes
// nothing.
func TestServeUpdateRejectsHostileTuple(t *testing.T) {
	store := testStore(t, 100, 2)
	srv := httptest.NewServer(newMux(memBackend{store: store}, nil, nil, false))
	defer srv.Close()
	body := `{"insert": [{"id": 1000, "values": [0.5, 0.5]}, {"id": 1001, "values": [0.5, -0.5]}]}`
	resp, err := srv.Client().Post(srv.URL+"/update", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("hostile update: status %d, want 400", resp.StatusCode)
	}
	if g := get(t, srv, "/result", 200); g["generation"].(float64) != 1 {
		t.Fatalf("generation advanced to %v after a rejected batch", g["generation"])
	}
}

// A POST /update body over the cap is refused with 413 in the JSON error
// shape, and the store does not change. The body is generated as it is
// sent, so the client never holds it.
func TestServeUpdateRejectsOversizedBody(t *testing.T) {
	store := testStore(t, 100, 2)
	srv := httptest.NewServer(newMux(memBackend{store: store}, nil, nil, false))
	defer srv.Close()
	prefix := `{"insert": [{"id": 1000, "values": [0.5, 0.5]}], "delete": [`
	body := io.MultiReader(strings.NewReader(prefix), io.LimitReader(spaces{}, maxUpdateBody+1-int64(len(prefix))))
	resp, err := srv.Client().Post(srv.URL+"/update", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var msg map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&msg); err != nil {
		t.Fatalf("413 body is not the JSON error shape: %v", err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge || msg["error"] == "" {
		t.Fatalf("oversized update: status %d, body %v; want 413 with an error", resp.StatusCode, msg)
	}
	if g := get(t, srv, "/stats", 200); g["generation"].(float64) != 1 || g["n"].(float64) != 100 {
		t.Fatalf("store changed after a refused body: generation %v, n %v", g["generation"], g["n"])
	}
}

// spaces streams JSON whitespace forever, so the decoder keeps reading.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// The handlers read through Generation, which records fdrms_store_read_ns
// once telemetry is attached: one /topk and one /regret count one each.
func TestServeReadsRecordReadLatency(t *testing.T) {
	store := testStore(t, 100, 2)
	reg := obs.NewRegistry()
	tel := rms.NewTelemetry(reg)
	store.SetTelemetry(tel)
	srv := httptest.NewServer(newMux(memBackend{store: store}, tel, reg, false))
	defer srv.Close()
	get(t, srv, "/topk?u=0.5,0.5&k=3", 200)
	get(t, srv, "/regret?u=0.5,0.5", 200)
	for _, kind := range []string{"topk", "regret"} {
		if got := reg.Histogram("fdrms_store_read_ns", "", obs.L("kind", kind)).Count(); got != 1 {
			t.Fatalf("fdrms_store_read_ns{kind=%q} counted %d reads, want 1", kind, got)
		}
	}
}

// A primary whose log failed turns read-only: POST /update answers 503
// "outcome unknown", never 400, for the write that hit the failure and every
// later one; /readyz answers 503 with the reason; reads keep serving the
// last generation.
func TestServeFailStopAnswers503(t *testing.T) {
	pts := make([]rms.Point, 50)
	for i := range pts {
		pts[i] = rms.Point{ID: i, Values: []float64{float64(i%7) / 7, float64(i%5) / 5}}
	}
	dir := filepath.Join(t.TempDir(), "wal")
	ds, err := rms.OpenDurable(dir, 2, pts, rms.Options{K: 1, R: 5, Epsilon: 0.05, MaxUtilities: 128, Seed: 1},
		rms.DurableOptions{SyncEveryBatch: true, SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	srv := httptest.NewServer(newMux(&durableBackend{ds: ds}, nil, nil, false))
	defer srv.Close()
	post := func(body string) (int, map[string]any) {
		t.Helper()
		resp, err := srv.Client().Post(srv.URL+"/update", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}
	if code, out := post(`{"insert": [{"id": 1000, "values": [0.5, 0.5]}]}`); code != 200 {
		t.Fatalf("update before the failure: status %d, body %v", code, out)
	}
	gen := get(t, srv, "/result", 200)["generation"]

	// Every append rotates, so with the directory gone the next one cannot
	// create its segment. Restoring the directory does not revive the log.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		code, out := post(`{"insert": [{"id": 1001, "values": [0.6, 0.6]}]}`)
		if msg, _ := out["error"].(string); code != 503 || !strings.Contains(msg, "outcome unknown") {
			t.Fatalf("update %d after the log failed: status %d, body %v; want 503 outcome unknown", i, code, out)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if ready := get(t, srv, "/readyz", 503); ready["ready"] != false || ready["reason"] == nil {
		t.Fatalf("/readyz of a failed primary: %v, want not ready with a reason", ready)
	}
	if g := get(t, srv, "/result", 200)["generation"]; g != gen {
		t.Fatalf("/result generation %v after the failure, want %v", g, gen)
	}
	if code, _ := post(`{"insert": [{"id": 1002, "values": [0.5]}]}`); code != 400 {
		t.Fatalf("invalid tuple on a failed primary: status %d, want 400", code)
	}
}
