package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"copernicus/internal/faults"
	"copernicus/internal/jobs"
)

// TestReadyzLifecycle: readyz answers ready on a fresh server and flips
// to draining the moment Shutdown begins — while healthz stays 200, so
// orchestrators route traffic away without killing the process.
func TestReadyzLifecycle(t *testing.T) {
	s, ts := newTestServer(t)
	code, body := doJSON(t, http.MethodGet, ts.URL+"/v1/readyz", nil)
	if code != http.StatusOK || body["status"] != "ready" {
		t.Fatalf("fresh readyz = %d %v", code, body)
	}

	s.Shutdown()
	code, body = doJSON(t, http.MethodGet, ts.URL+"/v1/readyz", nil)
	if code != http.StatusServiceUnavailable || body["status"] != "draining" {
		t.Fatalf("draining readyz = %d %v", code, body)
	}
	code, _ = doJSON(t, http.MethodGet, ts.URL+"/v1/healthz", nil)
	if code != http.StatusOK {
		t.Fatalf("healthz must stay %d during drain, got %d", http.StatusOK, code)
	}
}

// blockJobs fills the manager's runner with a task that parks until
// release is closed, then stuffs the queue to capacity.
func blockJobs(t *testing.T, s *Server, queueCap int) (release chan struct{}) {
	t.Helper()
	release = make(chan struct{})
	park := func(ctx context.Context, report func(int, jobs.GroupTiming)) (any, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, nil
	}
	// One job to occupy the single runner; wait until it actually leaves
	// the queue so the fills below land in queue slots, not the runner.
	ji, err := s.Jobs().Submit("parked runner", 1, park)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		cur, _ := s.Jobs().Get(ji.ID)
		if cur.State == jobs.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("runner never picked up the parked job (state %s)", cur.State)
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < queueCap; i++ {
		if _, err := s.Jobs().Submit("parked queue", 1, park); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	t.Cleanup(func() { close(release) })
	return release
}

// TestReadyzSaturationAndQueueFull: with the job queue at capacity,
// readyz reports saturated 503 and a further job submission is answered
// 429 with the documented body shape.
func TestReadyzSaturationAndQueueFull(t *testing.T) {
	s := New(Options{Scale: 64, JobQueue: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	blockJobs(t, s, 2)

	code, body := doJSON(t, http.MethodGet, ts.URL+"/v1/readyz", nil)
	if code != http.StatusServiceUnavailable || body["status"] != "saturated" {
		t.Fatalf("saturated readyz = %d %v", code, body)
	}

	// One more submission over HTTP: 429 with the uniform error body.
	req := `{"matrix":"2C","formats":["CSR"],"partitions":[8]}`
	code, body = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs/sweep", strings.NewReader(req))
	if code != http.StatusTooManyRequests {
		t.Fatalf("queue-full submit = %d %v", code, body)
	}
	msg, ok := body["error"].(string)
	if !ok || !strings.Contains(msg, "job queue full") || !strings.Contains(msg, "retry later") {
		t.Fatalf("429 body shape = %v", body)
	}
	if len(body) != 1 {
		t.Fatalf("429 body must be the uniform {\"error\":...} shape, got %v", body)
	}
}

// TestHandlerPanicRecovered: a panic inside a handler's compute is
// answered as a structured 500 and counted on /v1/stats; the server
// keeps serving.
func TestHandlerPanicRecovered(t *testing.T) {
	defer faults.DisarmAll()
	faults.Point("service.sweep").Arm(faults.Injection{Kind: faults.KindPanic, Times: 1})

	_, ts := newTestServer(t)
	code, body := doJSON(t, http.MethodGet, ts.URL+"/v1/sweep?matrix=2C&formats=CSR&partitions=8", nil)
	if code != http.StatusInternalServerError {
		t.Fatalf("panicked sweep = %d %v", code, body)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "panic") {
		t.Fatalf("500 body should say a panic was contained: %v", body)
	}

	// The process survived; the same request now succeeds and the panic
	// shows up in the failure counters.
	code, _ = doJSON(t, http.MethodGet, ts.URL+"/v1/sweep?matrix=2C&formats=CSR&partitions=8", nil)
	if code != http.StatusOK {
		t.Fatalf("post-panic sweep = %d", code)
	}
	_, stats := doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil)
	failures, _ := stats["failures"].(map[string]any)
	if failures == nil {
		t.Fatalf("stats missing failures section: %v", stats)
	}
	if n, _ := failures["handler_panics"].(float64); n < 1 {
		t.Fatalf("handler_panics = %v, want >= 1", failures["handler_panics"])
	}
	if _, ok := failures["jobs"]; !ok {
		t.Fatalf("failures missing jobs stats: %v", failures)
	}
	if _, ok := failures["native_measure"]; !ok {
		t.Fatalf("failures missing native_measure stats: %v", failures)
	}
}

// TestBadPartitionIs400: partition sizes the encoders would have
// panicked on are a client-attributable 400 through every service path.
func TestBadPartitionIs400(t *testing.T) {
	_, ts := newTestServer(t)
	for _, url := range []string{
		"/v1/sweep?matrix=2C&formats=SELL&partitions=9",
		"/v1/sweep?matrix=2C&formats=BCSR&partitions=6",
		"/v1/characterize?matrix=2C&format=SELL&p=9",
		"/v1/sweep?matrix=2C&formats=CSR&partitions=2",
	} {
		code, body := doJSON(t, http.MethodGet, ts.URL+url, nil)
		if code != http.StatusBadRequest {
			t.Errorf("%s = %d %v, want 400", url, code, body)
		}
	}
}

// TestNDJSONMidStreamErrorLine: a fault injected after the first sweep
// group truncates the NDJSON stream with a final in-band {"error": ...}
// line — the rows before it are a valid prefix.
func TestNDJSONMidStreamErrorLine(t *testing.T) {
	defer faults.DisarmAll()
	// The first core.sweep.group call succeeds, the second fails: with
	// two partitions there are two groups, so the stream carries the
	// first group's rows then the error line.
	faults.Point("core.sweep.group").Arm(faults.Injection{After: 2})

	_, ts := newTestServer(t)
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/sweep?matrix=2C&formats=CSR,COO&partitions=8,16", nil)
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (rows started, so the error must be in-band)", resp.StatusCode)
	}

	var rows, errLines int
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		line := bytes.TrimSpace(scanner.Bytes())
		if len(line) == 0 {
			continue
		}
		var obj map[string]any
		if err := json.Unmarshal(line, &obj); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if msg, ok := obj["error"].(string); ok {
			errLines++
			if !strings.Contains(msg, "injected fault") {
				t.Fatalf("error line should carry the cause: %q", msg)
			}
			if scanner.Scan() {
				t.Fatalf("error line must terminate the stream, got %q after it", scanner.Text())
			}
			break
		}
		rows++
	}
	if rows != 2 || errLines != 1 {
		t.Fatalf("rows=%d errLines=%d, want the first group's 2 rows then one error line", rows, errLines)
	}
}

// TestJobSSECarriesAttempt: the SSE progress feed exposes the attempt
// counters, and a job that panics on every attempt ends quarantined
// with attempt == max_attempts.
func TestJobSSECarriesAttempt(t *testing.T) {
	defer faults.DisarmAll()
	faults.Point("jobs.run").Arm(faults.Injection{Kind: faults.KindPanic})

	s := New(Options{Scale: 64, JobRetries: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	req := `{"matrix":"2C","formats":["CSR"],"partitions":[8]}`
	code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs/sweep", strings.NewReader(req))
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d %v", code, body)
	}
	job := body["job"].(map[string]any)
	id := job["id"].(string)

	deadline := time.Now().Add(5 * time.Second)
	for {
		ji, ok := s.Jobs().Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if ji.State.Terminal() {
			if ji.State != jobs.StateQuarantined {
				t.Fatalf("state = %s, want quarantined", ji.State)
			}
			if ji.Attempt != 2 || ji.MaxAttempts != 2 {
				t.Fatalf("attempt = %d/%d, want 2/2", ji.Attempt, ji.MaxAttempts)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", ji.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The job record over HTTP carries the attempt budget too.
	code, body = doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+id, nil)
	if code != http.StatusOK {
		t.Fatalf("job get = %d", code)
	}
	rec := body["job"].(map[string]any)
	if rec["state"] != "quarantined" || rec["attempt"].(float64) != 2 || rec["max_attempts"].(float64) != 2 {
		t.Fatalf("job record = %v", rec)
	}
	st := s.Jobs().Stats()
	if st.Quarantined != 1 || st.PanicsRecovered != 2 {
		t.Fatalf("jobs stats = %+v", st)
	}
}

// TestJobPassesServiceSweepPoint: jobs compute through the same seam as
// the synchronous paths, so a panic armed at service.sweep fails the
// job's first attempt; the retry completes, and its rows equal a clean
// synchronous sweep's.
func TestJobPassesServiceSweepPoint(t *testing.T) {
	defer faults.DisarmAll()
	const req = `{"matrix":"2C","formats":["CSR","COO"],"partitions":[8,16]}`
	_, clean := newTestServer(t)
	code, want := doJSON(t, http.MethodPost, clean.URL+"/v1/sweep", strings.NewReader(req))
	if code != http.StatusOK {
		t.Fatalf("clean sweep = %d %v", code, want)
	}

	faults.Point("service.sweep").Arm(faults.Injection{Kind: faults.KindPanic, Times: 1})
	s, ts := newTestServer(t)
	code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs/sweep", strings.NewReader(req))
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d %v", code, body)
	}
	id := body["job"].(map[string]any)["id"].(string)
	deadline := time.Now().Add(10 * time.Second)
	for {
		ji, ok := s.Jobs().Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if ji.State.Terminal() {
			if ji.State != jobs.StateDone || ji.Attempt != 2 {
				t.Fatalf("job = %s on attempt %d, want done on attempt 2", ji.State, ji.Attempt)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", ji.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if hits := faults.Point("service.sweep").Hits(); hits != 2 {
		t.Fatalf("service.sweep hits = %d, want 2 (the panicked attempt and the retry)", hits)
	}
	if st := s.Jobs().Stats(); st.PanicsRecovered != 1 {
		t.Fatalf("jobs stats = %+v, want one recovered panic", st)
	}
	code, got := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+id, nil)
	if code != http.StatusOK {
		t.Fatalf("job get = %d %v", code, got)
	}
	gotRows, _ := json.Marshal(got["results"])
	wantRows, _ := json.Marshal(want["results"])
	if !bytes.Equal(gotRows, wantRows) {
		t.Fatalf("retried job rows diverge from a clean sweep:\n got %s\nwant %s", gotRows, wantRows)
	}
}

// TestRequestTimeoutCapsCompute: a compute request that overruns the
// server-side deadline cap is answered 503, and the cap is per request —
// the next (unstalled) request on the same server succeeds.
func TestRequestTimeoutCapsCompute(t *testing.T) {
	defer faults.DisarmAll()
	// Stall the compute past the 50ms cap. The injected sleep itself is
	// not context-aware, so the response lands once it elapses — what
	// matters is that the expired cap turns the sweep into a 503 instead
	// of a 200 computed on a dead budget.
	faults.Point("service.sweep").Arm(faults.Injection{Kind: faults.KindDelay, Delay: 300 * time.Millisecond, Times: 1})

	s := New(Options{Scale: 64, RequestTimeout: 50 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	code, body := doJSON(t, http.MethodGet, ts.URL+"/v1/sweep?matrix=2C&formats=CSR&partitions=8", nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("timed-out sweep = %d %v", code, body)
	}

	// The next (unstalled) request succeeds under the same cap.
	code, _ = doJSON(t, http.MethodGet, ts.URL+"/v1/sweep?matrix=2C&formats=CSR&partitions=8", nil)
	if code != http.StatusOK {
		t.Fatalf("post-timeout sweep = %d", code)
	}
}

// TestComputeCtxDeadline: computeCtx derives a capped deadline from the
// configured RequestTimeout, and a negative option disables the cap.
func TestComputeCtxDeadline(t *testing.T) {
	s := New(Options{Scale: 64, RequestTimeout: 50 * time.Millisecond})
	r, _ := http.NewRequest(http.MethodGet, "/v1/sweep", nil)
	ctx, cancel := s.computeCtx(r)
	defer cancel()
	dl, ok := ctx.Deadline()
	if !ok {
		t.Fatal("computeCtx must carry a deadline when a cap is configured")
	}
	if until := time.Until(dl); until > 50*time.Millisecond {
		t.Fatalf("deadline %v past the 50ms cap", until)
	}

	s2 := New(Options{Scale: 64, RequestTimeout: -1})
	ctx2, cancel2 := s2.computeCtx(r)
	defer cancel2()
	if _, ok := ctx2.Deadline(); ok {
		t.Fatal("negative RequestTimeout must disable the cap")
	}
}
