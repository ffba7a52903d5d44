package chaos

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"copernicus/internal/backend"
	"copernicus/internal/core"
	"copernicus/internal/faults"
	"copernicus/internal/formats"
	"copernicus/internal/gen"
	"copernicus/internal/jobs"
	"copernicus/internal/resilience"
	"copernicus/internal/scenario"
	"copernicus/internal/service"
	"copernicus/internal/workloads"
)

// cleanSlate disarms every fault point and resets the process-wide
// native measurement state before and after a chaos test, so fault
// plans never bleed between tests.
func cleanSlate(t *testing.T) {
	t.Helper()
	faults.DisarmAll()
	backend.ResetNativeMeasureStats()
	t.Cleanup(func() {
		faults.DisarmAll()
		backend.ResetNativeMeasureStats()
	})
}

// chaosServer builds a service over a real HTTP listener.
func chaosServer(t *testing.T, o service.Options) (*service.Server, *httptest.Server) {
	t.Helper()
	if o.Scale == 0 {
		o.Scale = 64
	}
	s := service.New(o)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown()
	})
	return s, ts
}

// getJSON fetches url and decodes the JSON body.
func getJSON(t *testing.T, ts *httptest.Server, path string) (int, map[string]any) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil && err != io.EOF {
		t.Fatalf("GET %s: decode: %v", path, err)
	}
	return resp.StatusCode, body
}

// TestChaosBitIdentityAcrossContainedFaults: an engine that survived a
// storm of contained warmup panics — alternating between the encode and
// the verify stage of the fused per-tile pass — produces results
// bit-identical to a never-faulted engine: containment abandons work
// unpublished instead of leaking partial state into plans, and a worker
// that panics mid-pass hands its slab and decode tile back to the pool
// in a state the retry's passes encode and decode through correctly.
func TestChaosBitIdentityAcrossContainedFaults(t *testing.T) {
	cleanSlate(t)
	m := gen.Random(192, 0.05, 41)
	kinds := []formats.Kind{formats.CSR, formats.ELL, formats.COO}
	ctx := context.Background()
	// One (workload, kernel, p) group.
	sweep := func(e *core.Engine) ([]core.Result, error) {
		return e.SweepKernelsWith(ctx, backend.Analytic{}, []workloads.Workload{{ID: "m", M: m}},
			[]scenario.Spec{scenario.Default()}, kinds, []int{16})
	}

	ref := core.New()
	want, err := sweep(ref)
	if err != nil {
		t.Fatal(err)
	}

	e := core.New()
	points := []string{"hlsim.encode.tile", "hlsim.verify.tile"}
	for i := 0; i < 6; i++ {
		point := points[i%2]
		faults.Point(point).Arm(faults.Injection{Kind: faults.KindPanic, Times: 1})
		_, err := sweep(e)
		var pe *resilience.PanicError
		if !errors.As(err, &pe) || pe.Point != point {
			t.Fatalf("storm run %d: err = %v, want contained PanicError at %s", i, err, point)
		}
	}
	faults.DisarmAll()
	got, err := sweep(e)
	if err != nil {
		t.Fatalf("post-storm sweep: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-storm results differ from a never-faulted engine:\n got %+v\nwant %+v", got, want)
	}
}

// TestChaosEnvPlanRetriesNativeMeasurement: a fault plan in the
// COPERNICUS_FAULTS grammar arms a one-shot transient measurement
// failure; the native backend retries behind the scenes and the request
// still answers a measured result, with the retry on the books.
func TestChaosEnvPlanRetriesNativeMeasurement(t *testing.T) {
	cleanSlate(t)
	if err := faults.ArmPlan("backend.native.measure:error:times=1,transient"); err != nil {
		t.Fatal(err)
	}
	_, ts := chaosServer(t, service.Options{})

	code, body := getJSON(t, ts, "/v1/characterize?matrix=2C&format=CSR&p=8&backend=native")
	if code != http.StatusOK {
		t.Fatalf("characterize = %d %v", code, body)
	}
	res := body["result"].(map[string]any)
	if res["measured"] != true {
		t.Fatalf("transient fault should be retried into a measured result: %v", res)
	}
	if res["degraded"] == true {
		t.Fatalf("one transient failure must not degrade: %v", res)
	}
	st := backend.NativeMeasureStats()
	if st.Retries < 1 || st.Failures < 1 {
		t.Fatalf("native stats = %+v, want the retry recorded", st)
	}
}

// TestChaosNativeDegradationAnnotatedInRows: persistent measurement
// failure past a low-threshold breaker degrades native rows to the
// analytic model — annotated in the response, numerically equal to the
// analytic backend's own rows, and visible on /v1/stats — instead of
// failing the sweep.
func TestChaosNativeDegradationAnnotatedInRows(t *testing.T) {
	cleanSlate(t)
	backend.SetMeasureBreaker(resilience.NewBreaker(1, time.Minute))
	if err := faults.ArmPlan("backend.native.measure:error:transient"); err != nil {
		t.Fatal(err)
	}
	_, ts := chaosServer(t, service.Options{})

	code, body := getJSON(t, ts, "/v1/sweep?matrix=2C&formats=CSR,COO&partitions=8&backend=native")
	if code != http.StatusOK {
		t.Fatalf("degraded sweep must still answer 200, got %d %v", code, body)
	}
	rows := body["results"].([]any)
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	code, analytic := getJSON(t, ts, "/v1/sweep?matrix=2C&formats=CSR,COO&partitions=8")
	if code != http.StatusOK {
		t.Fatalf("analytic sweep = %d", code)
	}
	arows := analytic["results"].([]any)
	for i, raw := range rows {
		row := raw.(map[string]any)
		if row["degraded"] != true || row["measured"] == true {
			t.Fatalf("row %d not annotated as degraded: %v", i, row)
		}
		reason, _ := row["degraded_reason"].(string)
		if !strings.Contains(reason, "analytic fallback") {
			t.Fatalf("row %d degraded_reason = %q", i, reason)
		}
		if row["seconds"] != arows[i].(map[string]any)["seconds"] {
			t.Fatalf("row %d: degraded seconds %v != analytic %v", i, row["seconds"], arows[i].(map[string]any)["seconds"])
		}
	}

	_, stats := getJSON(t, ts, "/v1/stats")
	nm := stats["failures"].(map[string]any)["native_measure"].(map[string]any)
	if nm["degraded"].(float64) < 2 {
		t.Fatalf("stats native_measure = %v, want >= 2 degraded evaluations", nm)
	}
	if br := nm["breaker"].(map[string]any); br["state"] != "open" {
		t.Fatalf("breaker should be open after persistent failure: %v", br)
	}
}

// TestChaosPanicStormServiceSurvives: a burst of handler-compute panics
// is absorbed as structured 500s; the process stays healthy throughout
// and serves normally once the storm passes.
func TestChaosPanicStormServiceSurvives(t *testing.T) {
	cleanSlate(t)
	const storm = 4
	if err := faults.ArmPlan("service.sweep:panic:times=4"); err != nil {
		t.Fatal(err)
	}
	s, ts := chaosServer(t, service.Options{})

	for i := 0; i < storm; i++ {
		code, body := getJSON(t, ts, "/v1/sweep?matrix=2C&formats=CSR&partitions=8")
		if code != http.StatusInternalServerError {
			t.Fatalf("storm request %d = %d %v, want 500", i, code, body)
		}
		if code, _ := getJSON(t, ts, "/v1/healthz"); code != http.StatusOK {
			t.Fatalf("healthz flapped mid-storm (request %d)", i)
		}
	}
	code, _ := getJSON(t, ts, "/v1/sweep?matrix=2C&formats=CSR&partitions=8")
	if code != http.StatusOK {
		t.Fatalf("post-storm sweep = %d", code)
	}
	if n := s.HandlerPanics(); n != storm {
		t.Fatalf("handler panics = %d, want %d", n, storm)
	}
}

// TestChaosJobFleetQuarantineThenRecovery: with every job attempt
// panicking, a fleet of submissions lands in quarantine with the
// attempt budget spent and the runners alive; once the fault clears the
// same service completes new jobs normally.
func TestChaosJobFleetQuarantineThenRecovery(t *testing.T) {
	cleanSlate(t)
	if err := faults.ArmPlan("jobs.run:panic"); err != nil {
		t.Fatal(err)
	}
	s, ts := chaosServer(t, service.Options{JobRetries: 2, JobWorkers: 2, JobQueue: 8})

	submit := func(p int) string {
		t.Helper()
		body := strings.NewReader(fmt.Sprintf(`{"matrix":"2C","formats":["CSR"],"partitions":[%d]}`, p))
		resp, err := ts.Client().Post(ts.URL+"/v1/jobs/sweep", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit = %d %v", resp.StatusCode, out)
		}
		return out["job"].(map[string]any)["id"].(string)
	}
	waitTerminal := func(id string) jobs.Info {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			ji, ok := s.Jobs().Get(id)
			if !ok {
				t.Fatalf("job %s disappeared", id)
			}
			if ji.State.Terminal() {
				return ji
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %s", id, ji.State)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	ids := []string{submit(4), submit(8), submit(8)}
	for _, id := range ids {
		ji := waitTerminal(id)
		if ji.State != jobs.StateQuarantined {
			t.Fatalf("job %s = %s, want quarantined", id, ji.State)
		}
		if ji.Attempt != ji.MaxAttempts || ji.Attempt != 2 {
			t.Fatalf("job %s attempt %d/%d, want the full 2/2 budget", id, ji.Attempt, ji.MaxAttempts)
		}
	}
	st := s.Jobs().Stats()
	if st.Quarantined != 3 || st.PanicsRecovered != 6 {
		t.Fatalf("jobs stats = %+v, want 3 quarantined / 6 recovered panics", st)
	}

	faults.DisarmAll()
	if ji := waitTerminal(submit(8)); ji.State != jobs.StateDone {
		t.Fatalf("post-storm job = %s (%s), runners should have survived the storm", ji.State, ji.Error)
	}
}

// TestChaosReadyzTracksSaturationAndDrain: readiness degrades with the
// job queue and with shutdown, while liveness holds — the service tells
// an orchestrator to route away without being killed.
func TestChaosReadyzTracksSaturationAndDrain(t *testing.T) {
	cleanSlate(t)
	s, ts := chaosServer(t, service.Options{JobQueue: 1})

	if code, body := getJSON(t, ts, "/v1/readyz"); code != http.StatusOK {
		t.Fatalf("fresh readyz = %d %v", code, body)
	}

	// Saturate: one parked job on the runner, one filling the queue.
	release := make(chan struct{})
	park := func(ctx context.Context, report func(int, jobs.GroupTiming)) (any, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, nil
	}
	ji, err := s.Jobs().Submit("parked", 1, park)
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
			t.Fatalf("runner never started the parked job")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Jobs().Submit("queued", 1, park); err != nil {
		t.Fatal(err)
	}
	if code, body := getJSON(t, ts, "/v1/readyz"); code != http.StatusServiceUnavailable || body["status"] != "saturated" {
		t.Fatalf("saturated readyz = %d %v", code, body)
	}
	close(release)

	s.Shutdown()
	if code, body := getJSON(t, ts, "/v1/readyz"); code != http.StatusServiceUnavailable || body["status"] != "draining" {
		t.Fatalf("draining readyz = %d %v", code, body)
	}
	if code, _ := getJSON(t, ts, "/v1/healthz"); code != http.StatusOK {
		t.Fatal("healthz must stay 200 through the drain")
	}
}

// TestChaosNoGoroutineLeakAfterStorm: a mixed fault storm (handler
// panics, mid-sweep group faults, job panics) followed by shutdown
// returns the process to its baseline goroutine count — containment
// never strands workers.
func TestChaosNoGoroutineLeakAfterStorm(t *testing.T) {
	cleanSlate(t)
	base := runtime.NumGoroutine()

	func() {
		s := service.New(service.Options{Scale: 64, JobRetries: 2})
		ts := httptest.NewServer(s.Handler())
		defer func() {
			ts.Close()
			s.Shutdown()
		}()

		if err := faults.ArmPlan("service.sweep:panic:times=2; core.sweep.group:error:after=2,times=1; jobs.run:panic:times=2"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			resp, err := ts.Client().Get(ts.URL + "/v1/sweep?matrix=2C&formats=CSR,COO&partitions=8,16")
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		resp, err := ts.Client().Post(ts.URL+"/v1/jobs/sweep", "application/json",
			strings.NewReader(`{"matrix":"2C","formats":["CSR"],"partitions":[8]}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		deadline := time.Now().Add(10 * time.Second)
		for {
			if st := s.Jobs().Stats(); st.Queued == 0 && st.Running == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("jobs never drained")
			}
			time.Sleep(5 * time.Millisecond)
		}
		ts.Client().CloseIdleConnections()
	}()

	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base+3 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d after storm+shutdown, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
