package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"copernicus/internal/gen"
	"copernicus/internal/mtx"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Options{Scale: 64})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// doJSON issues a request and decodes the JSON response body.
func doJSON(t *testing.T, method, url string, body io.Reader) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode, out
}

// mtxFixture serializes a small band matrix as Matrix Market text.
func mtxFixture(t *testing.T, seed uint64) string {
	t.Helper()
	var buf bytes.Buffer
	if err := mtx.Write(&buf, gen.Band(32, 4, seed)); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// getStats fetches /v1/stats and unpacks the nested counters.
func getStats(t *testing.T, base string) (plans map[string]any, cache map[string]any) {
	t.Helper()
	code, body := doJSON(t, "GET", base+"/v1/stats", nil)
	if code != http.StatusOK {
		t.Fatalf("stats: %d %v", code, body)
	}
	return body["engine_plans"].(map[string]any), body["sweep_cache"].(map[string]any)
}

func TestBuiltinSuitesRegistered(t *testing.T) {
	s, ts := newTestServer(t)
	code, body := doJSON(t, "GET", ts.URL+"/v1/matrices", nil)
	if code != http.StatusOK {
		t.Fatalf("list: %d %v", code, body)
	}
	// 20 SuiteSparse surrogates + 5 random densities + 7 band widths.
	if n := len(body["matrices"].([]any)); n != 32 {
		t.Fatalf("registered %d built-ins, want 32", n)
	}
	if s.Registry().Len() != 32 {
		t.Fatalf("registry len %d", s.Registry().Len())
	}
	code, info := doJSON(t, "GET", ts.URL+"/v1/matrices/2C", nil)
	if code != http.StatusOK || info["source"] != "builtin" {
		t.Fatalf("builtin 2C: %d %v", code, info)
	}
	// Lookup by case-insensitive name.
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/matrices/2cubes_sphere", nil); code != http.StatusOK {
		t.Fatalf("name lookup: %d", code)
	}
}

func TestUploadSweepAdviseFlow(t *testing.T) {
	_, ts := newTestServer(t)
	fixture := mtxFixture(t, 7)

	// Upload.
	code, body := doJSON(t, "POST", ts.URL+"/v1/matrices?name=myband", strings.NewReader(fixture))
	if code != http.StatusCreated {
		t.Fatalf("upload: %d %v", code, body)
	}
	info := body["matrix"].(map[string]any)
	id := info["id"].(string)
	if !strings.HasPrefix(id, "m-") || info["source"] != "upload" {
		t.Fatalf("upload info: %v", info)
	}

	// Duplicate upload dedupes to the same ID, even with extra comments.
	dup := strings.Replace(fixture, "%generated by copernicus\n", "%different comment\n%another\n", 1)
	code, body = doJSON(t, "POST", ts.URL+"/v1/matrices", strings.NewReader(dup))
	if code != http.StatusOK || body["deduplicated"] != true {
		t.Fatalf("dup upload: %d %v", code, body)
	}
	if got := body["matrix"].(map[string]any)["id"]; got != id {
		t.Fatalf("dup upload id %v, want %v", got, id)
	}

	// Sweep two formats at one partition size.
	sweepReq := fmt.Sprintf(`{"matrix":%q,"formats":["CSR","COO"],"partitions":[8]}`, id)
	code, body = doJSON(t, "POST", ts.URL+"/v1/sweep", strings.NewReader(sweepReq))
	if code != http.StatusOK {
		t.Fatalf("sweep: %d %v", code, body)
	}
	if body["cached"] != false {
		t.Fatal("first sweep reported cached")
	}
	results := body["results"].([]any)
	if len(results) != 2 {
		t.Fatalf("sweep returned %d results, want 2", len(results))
	}
	first := results[0].(map[string]any)
	if first["format"] != "CSR" || first["p"] != float64(8) || first["sigma"].(float64) <= 0 {
		t.Fatalf("bad result: %v", first)
	}

	// Identical repeat: served from the result cache.
	code, body = doJSON(t, "POST", ts.URL+"/v1/sweep", strings.NewReader(sweepReq))
	if code != http.StatusOK || body["cached"] != true {
		t.Fatalf("warm sweep not cached: %d %v", code, body)
	}

	// A different format at the same (matrix, p) misses the result cache
	// but must hit the engine's plan cache — the amortized regime: no
	// re-partition, no re-encode of the point.
	plansBefore, _ := getStats(t, ts.URL)
	code, body = doJSON(t, "POST", ts.URL+"/v1/sweep",
		strings.NewReader(fmt.Sprintf(`{"matrix":%q,"formats":["ELL"],"partitions":[8]}`, id)))
	if code != http.StatusOK || body["cached"] != false {
		t.Fatalf("ELL sweep: %d %v", code, body)
	}
	plansAfter, _ := getStats(t, ts.URL)
	if plansAfter["misses"] != plansBefore["misses"] {
		t.Fatalf("warm point rebuilt its plan: misses %v -> %v", plansBefore["misses"], plansAfter["misses"])
	}
	if plansAfter["hits"].(float64) <= plansBefore["hits"].(float64) {
		t.Fatal("warm point did not register a plan-cache hit")
	}

	// Advise over the same point.
	code, body = doJSON(t, "GET", ts.URL+"/v1/advise?matrix="+id+"&p=8", nil)
	if code != http.StatusOK {
		t.Fatalf("advise: %d %v", code, body)
	}
	if body["format"] == "" || body["reason"] == "" {
		t.Fatalf("advise missing recommendation: %v", body)
	}
	if n := len(body["ranking"].([]any)); n != 7 {
		t.Fatalf("advise ranked %d formats, want the 7 sparse ones", n)
	}
	// A repeated advise is fully cached.
	code, body = doJSON(t, "GET", ts.URL+"/v1/advise?matrix="+id+"&p=8", nil)
	if code != http.StatusOK || body["cached"] != true {
		t.Fatalf("warm advise not cached: %d %v", code, body)
	}

	// Characterize one point.
	code, body = doJSON(t, "GET", ts.URL+"/v1/characterize?matrix="+id+"&format=COO&p=8", nil)
	if code != http.StatusOK {
		t.Fatalf("characterize: %d %v", code, body)
	}
	if r := body["result"].(map[string]any); r["format"] != "COO" {
		t.Fatalf("characterize result: %v", r)
	}
}

func TestErrorPaths(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name         string
		method, path string
		body         string
		want         int
	}{
		{"sweep unknown matrix", "POST", "/v1/sweep", `{"matrix":"nope"}`, http.StatusNotFound},
		{"sweep missing matrix", "POST", "/v1/sweep", `{}`, http.StatusBadRequest},
		{"sweep bad json", "POST", "/v1/sweep", `{"matrix":`, http.StatusBadRequest},
		{"sweep unknown field", "POST", "/v1/sweep", `{"matrix":"2C","fmt":["CSR"]}`, http.StatusBadRequest},
		{"sweep unknown format", "POST", "/v1/sweep", `{"matrix":"2C","formats":["ZIP"]}`, http.StatusBadRequest},
		{"sweep bad partition", "POST", "/v1/sweep", `{"matrix":"2C","partitions":[0]}`, http.StatusBadRequest},
		{"sweep huge partition", "POST", "/v1/sweep", `{"matrix":"2C","partitions":[4096]}`, http.StatusBadRequest},
		{"get unknown matrix", "GET", "/v1/matrices/nope", "", http.StatusNotFound},
		{"characterize unknown matrix", "GET", "/v1/characterize?matrix=nope", "", http.StatusNotFound},
		{"characterize bad format", "GET", "/v1/characterize?matrix=2C&format=ZIP", "", http.StatusBadRequest},
		{"characterize bad p", "GET", "/v1/characterize?matrix=2C&p=junk", "", http.StatusBadRequest},
		{"advise unknown matrix", "GET", "/v1/advise?matrix=nope", "", http.StatusNotFound},
		{"advise bad objective", "GET", "/v1/advise?matrix=2C&objective=vibes", "", http.StatusBadRequest},
		// Every sweep-shaped endpoint validates one selection the same
		// way. Advise has no format parameter (it ranks the sparse set),
		// and only the JSON bodies can carry an unknown field.
		{"sweep get missing matrix", "GET", "/v1/sweep?formats=CSR", "", http.StatusBadRequest},
		{"job missing matrix", "POST", "/v1/jobs/sweep", `{}`, http.StatusBadRequest},
		{"characterize missing matrix", "GET", "/v1/characterize?format=CSR&p=8", "", http.StatusBadRequest},
		{"advise missing matrix", "GET", "/v1/advise?p=8", "", http.StatusBadRequest},
		{"sweep get unknown matrix", "GET", "/v1/sweep?matrix=nope", "", http.StatusNotFound},
		{"job unknown matrix", "POST", "/v1/jobs/sweep", `{"matrix":"nope"}`, http.StatusNotFound},
		{"sweep get unknown format", "GET", "/v1/sweep?matrix=2C&formats=CSR,ZIP", "", http.StatusBadRequest},
		{"job unknown format", "POST", "/v1/jobs/sweep", `{"matrix":"2C","formats":["ZIP"]}`, http.StatusBadRequest},
		{"sweep get bad partition token", "GET", "/v1/sweep?matrix=2C&partitions=8,x", "", http.StatusBadRequest},
		{"job bad partition token", "POST", "/v1/jobs/sweep", `{"matrix":"2C","partitions":["x"]}`, http.StatusBadRequest},
		{"job bad partition", "POST", "/v1/jobs/sweep", `{"matrix":"2C","partitions":[0]}`, http.StatusBadRequest},
		{"advise bad p", "GET", "/v1/advise?matrix=2C&p=junk", "", http.StatusBadRequest},
		{"sweep get threads on analytic", "GET", "/v1/sweep?matrix=2C&threads=1", "", http.StatusBadRequest},
		{"job threads on analytic", "POST", "/v1/jobs/sweep", `{"matrix":"2C","threads":1}`, http.StatusBadRequest},
		{"characterize threads on analytic", "GET", "/v1/characterize?matrix=2C&threads=1", "", http.StatusBadRequest},
		{"advise threads on analytic", "GET", "/v1/advise?matrix=2C&threads=1", "", http.StatusBadRequest},
		{"sweep get non-integer threads", "GET", "/v1/sweep?matrix=2C&backend=native&threads=two", "", http.StatusBadRequest},
		{"job non-integer threads", "POST", "/v1/jobs/sweep", `{"matrix":"2C","backend":"native","threads":"two"}`, http.StatusBadRequest},
		{"characterize non-integer threads", "GET", "/v1/characterize?matrix=2C&backend=native&threads=two", "", http.StatusBadRequest},
		{"advise non-integer threads", "GET", "/v1/advise?matrix=2C&backend=native&threads=two", "", http.StatusBadRequest},
		{"sweep get bad kernel", "GET", "/v1/sweep?matrix=2C&kernel=fft", "", http.StatusBadRequest},
		{"job bad kernel", "POST", "/v1/jobs/sweep", `{"matrix":"2C","kernel":"fft"}`, http.StatusBadRequest},
		{"characterize bad kernel", "GET", "/v1/characterize?matrix=2C&kernel=fft", "", http.StatusBadRequest},
		{"advise bad kernel", "GET", "/v1/advise?matrix=2C&kernel=fft", "", http.StatusBadRequest},
		{"job unknown field", "POST", "/v1/jobs/sweep", `{"matrix":"2C","fmt":["CSR"]}`, http.StatusBadRequest},
		{"upload garbage", "POST", "/v1/matrices", "not a matrix market file", http.StatusBadRequest},
		{"upload skew diagonal", "POST", "/v1/matrices",
			"%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n1 1 3\n", http.StatusBadRequest},
		{"upload oversized header", "POST", "/v1/matrices",
			"%%MatrixMarket matrix coordinate real general\n99999999 99999999 1\n1 1 1\n", http.StatusBadRequest},
		{"delete builtin", "DELETE", "/v1/matrices/2C", "", http.StatusForbidden},
		{"delete unknown", "DELETE", "/v1/matrices/nope", "", http.StatusNotFound},
	}
	for _, tc := range cases {
		var body io.Reader
		if tc.body != "" {
			body = strings.NewReader(tc.body)
		}
		code, resp := doJSON(t, tc.method, ts.URL+tc.path, body)
		if code != tc.want {
			t.Errorf("%s: status %d, want %d (%v)", tc.name, code, tc.want, resp)
		}
		if resp["error"] == "" {
			t.Errorf("%s: no error message", tc.name)
		}
	}
}

// TestConcurrentIdenticalSweeps: the singleflight acceptance criterion —
// N concurrent identical sweep requests must produce exactly one engine
// sweep, with every response carrying identical results.
func TestConcurrentIdenticalSweeps(t *testing.T) {
	_, ts := newTestServer(t)
	const callers = 8
	req := `{"matrix":"B8","formats":["CSR","COO","ELL"],"partitions":[8]}`

	var wg sync.WaitGroup
	bodies := make([]string, callers)
	codes := make([]int, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(req))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			codes[i] = resp.StatusCode
			var parsed struct {
				Results json.RawMessage `json:"results"`
			}
			if err := json.Unmarshal(raw, &parsed); err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			bodies[i] = string(parsed.Results)
		}(i)
	}
	wg.Wait()

	for i := 0; i < callers; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("caller %d: status %d", i, codes[i])
		}
		if bodies[i] != bodies[0] {
			t.Fatalf("caller %d results diverge", i)
		}
	}

	plans, cache := getStats(t, ts.URL)
	if cache["misses"] != float64(1) {
		t.Fatalf("sweep computed %v times, want exactly 1 (singleflight)", cache["misses"])
	}
	if got := cache["hits"].(float64) + cache["shared"].(float64); got != callers-1 {
		t.Fatalf("hits+shared = %v, want %d", got, callers-1)
	}
	// One engine sweep means exactly one plan build: the one (matrix, p)
	// point of the request.
	if plans["misses"] != float64(1) {
		t.Fatalf("plan misses = %v, want 1", plans["misses"])
	}
}

// TestDeleteUploadEndsPlanLifecycle: deleting an uploaded matrix drops
// its engine plans and cached sweeps, without touching other entries.
func TestDeleteUploadEndsPlanLifecycle(t *testing.T) {
	s, ts := newTestServer(t)

	code, body := doJSON(t, "POST", ts.URL+"/v1/matrices", strings.NewReader(mtxFixture(t, 11)))
	if code != http.StatusCreated {
		t.Fatalf("upload: %d %v", code, body)
	}
	id := body["matrix"].(map[string]any)["id"].(string)

	// Warm one point for the upload and one for a builtin.
	for _, m := range []string{id, "B8"} {
		code, resp := doJSON(t, "POST", ts.URL+"/v1/sweep",
			strings.NewReader(fmt.Sprintf(`{"matrix":%q,"formats":["CSR"],"partitions":[8]}`, m)))
		if code != http.StatusOK {
			t.Fatalf("sweep %s: %d %v", m, code, resp)
		}
	}
	if got := s.Engine().PlanStats().Cached; got != 2 {
		t.Fatalf("cached plans = %d, want 2", got)
	}

	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/matrices/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d", resp.StatusCode)
	}

	if got := s.Engine().PlanStats().Cached; got != 1 {
		t.Fatalf("cached plans after delete = %d, want 1 (builtin only)", got)
	}
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/matrices/"+id, nil); code != http.StatusNotFound {
		t.Fatalf("deleted matrix still resolves: %d", code)
	}
	// The builtin's cached sweep survives.
	code, body = doJSON(t, "POST", ts.URL+"/v1/sweep",
		strings.NewReader(`{"matrix":"B8","formats":["CSR"],"partitions":[8]}`))
	if code != http.StatusOK || body["cached"] != true {
		t.Fatalf("builtin sweep lost its cache: %d %v", code, body)
	}
}

// TestUploadCannotHijackBuiltinName: an upload named after an existing
// matrix stays addressable by its content ID but must not redirect the
// existing name, and deleting it must not strip the original's name.
func TestUploadCannotHijackBuiltinName(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := doJSON(t, "POST", ts.URL+"/v1/matrices?name=2cubes_sphere",
		strings.NewReader(mtxFixture(t, 13)))
	if code != http.StatusCreated {
		t.Fatalf("upload: %d %v", code, body)
	}
	id := body["matrix"].(map[string]any)["id"].(string)
	if got := body["matrix"].(map[string]any)["name"]; got != id {
		t.Fatalf("colliding name kept: %v", got)
	}

	code, info := doJSON(t, "GET", ts.URL+"/v1/matrices/2cubes_sphere", nil)
	if code != http.StatusOK || info["id"] != "2C" {
		t.Fatalf("builtin name hijacked: %d %v", code, info)
	}

	// A case-variant of a built-in ID is reserved too: naming an upload
	// "kr" must not capture case-insensitive lookups of builtin "KR".
	code, body = doJSON(t, "POST", ts.URL+"/v1/matrices?name=kr",
		strings.NewReader(mtxFixture(t, 17)))
	if code != http.StatusCreated {
		t.Fatalf("upload kr: %d %v", code, body)
	}
	code, info = doJSON(t, "GET", ts.URL+"/v1/matrices/kr", nil)
	if code != http.StatusOK || info["id"] != "KR" {
		t.Fatalf("builtin ID case-variant hijacked: %d %v", code, info)
	}

	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/matrices/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/matrices/2cubes_sphere", nil); code != http.StatusOK {
		t.Fatalf("builtin name lost after deleting the colliding upload: %d", code)
	}
}

// TestUploadTooLargeIs413: a body over the byte cap returns 413 even
// when the truncation lands mid-line (which parses as a short entry).
func TestUploadTooLargeIs413(t *testing.T) {
	s := New(Options{Scale: 64, MaxUploadBytes: 70})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	long := mtxFixture(t, 7) // well over 70 bytes, cut mid-entry by the cap
	code, body := doJSON(t, "POST", ts.URL+"/v1/matrices", strings.NewReader(long))
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload: %d %v, want 413", code, body)
	}
	if !strings.Contains(body["error"].(string), "exceeds 70 bytes") {
		t.Fatalf("misleading error: %v", body["error"])
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := doJSON(t, "GET", ts.URL+"/v1/healthz", nil)
	if code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, body)
	}
}

// TestStatsReportsPlanResidentBytes: GET /v1/stats surfaces the plan
// cache's total resident bytes alongside the hit/miss counters, so
// operators can watch the (now nnz-scaled) memory the engine pins.
func TestStatsReportsPlanResidentBytes(t *testing.T) {
	_, ts := newTestServer(t)
	plans, _ := getStats(t, ts.URL)
	if _, ok := plans["resident_bytes"]; !ok {
		t.Fatal("engine_plans missing resident_bytes")
	}
	if plans["resident_bytes"].(float64) != 0 {
		t.Fatalf("resident_bytes = %v before any sweep, want 0", plans["resident_bytes"])
	}
	code, body := doJSON(t, "POST", ts.URL+"/v1/sweep",
		strings.NewReader(`{"matrix":"B8","formats":["CSR"],"partitions":[8]}`))
	if code != http.StatusOK {
		t.Fatalf("sweep: %d %v", code, body)
	}
	plans, _ = getStats(t, ts.URL)
	if rb := plans["resident_bytes"].(float64); rb <= 0 {
		t.Fatalf("resident_bytes = %v after sweep, want > 0", rb)
	}
}
