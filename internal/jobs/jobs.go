// Package jobs is the asynchronous execution subsystem of the
// characterization service: a bounded-queue job manager that runs
// long sweeps in the background with live progress, cancellation, and
// subscription-based event delivery.
//
// A job is a cancelable task with a known total amount of work (sweep
// points). Submit enqueues it; a fixed pool of runner goroutines drains
// the queue; Get/List snapshot progress; Cancel aborts a queued or
// running job through its context; Subscribe feeds a server-sent-events
// stream. The manager itself is anchored to a root context — cancel it
// (service shutdown) and every queued and running job is canceled too,
// which is what lets a draining server abandon in-flight work instead of
// running it to completion.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"copernicus/internal/faults"
	"copernicus/internal/resilience"
)

// State is a job's lifecycle phase.
type State string

// Job lifecycle states. Queued and Running are active; Done, Failed,
// Canceled and Quarantined are terminal. Quarantined is the retry dead
// end: the task kept failing retryably (panics, transient faults) until
// the attempt budget ran out, so the job is parked rather than silently
// re-queued — the record says exactly how many attempts were burned.
const (
	StateQueued      State = "queued"
	StateRunning     State = "running"
	StateDone        State = "done"
	StateFailed      State = "failed"
	StateCanceled    State = "canceled"
	StateQuarantined State = "quarantined"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled || s == StateQuarantined
}

// ptJobRun lets the chaos suite fail or panic job attempts: armed
// transient, it exercises the retry path; armed as a panic, the per-job
// recovery; armed persistently, quarantine.
var ptJobRun = faults.Point("jobs.run")

// GroupTiming records one completed (workload, p) group of a sweep job:
// how many points it contributed and how long its compute took.
type GroupTiming struct {
	Workload string  `json:"workload"`
	P        int     `json:"p"`
	Points   int     `json:"points"`
	Seconds  float64 `json:"seconds"`
}

// Info is an immutable snapshot of a job's state and progress.
type Info struct {
	ID    string `json:"id"`
	Label string `json:"label"`
	State State  `json:"state"`
	// Done counts completed sweep points out of Total.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Error carries the failure (or cancellation) cause for terminal
	// non-Done states.
	Error string `json:"error,omitempty"`
	// Attempt is the 1-based execution attempt this snapshot describes;
	// MaxAttempts is the configured budget. Attempt is 0 while queued and
	// stays at the final attempt in terminal states, so a quarantined job
	// reads Attempt == MaxAttempts.
	Attempt     int           `json:"attempt,omitempty"`
	MaxAttempts int           `json:"max_attempts,omitempty"`
	CreatedAt   time.Time     `json:"created_at"`
	StartedAt   *time.Time    `json:"started_at,omitempty"`
	FinishedAt  *time.Time    `json:"finished_at,omitempty"`
	Groups      []GroupTiming `json:"groups,omitempty"`
}

// Task is the work a job performs. It must honor ctx cancellation
// promptly and report progress via report as groups of points complete.
// The returned value is retained as the job's result on success.
type Task func(ctx context.Context, report func(points int, g GroupTiming)) (any, error)

// Submission errors.
var (
	// ErrQueueFull rejects a Submit when the bounded queue is at
	// capacity — the service's load-shedding signal (HTTP 429).
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrShuttingDown rejects a Submit after the manager's root context
	// was canceled.
	ErrShuttingDown = errors.New("jobs: manager shutting down")
)

type job struct {
	mu     sync.Mutex
	info   Info
	result any
	task   Task
	ctx    context.Context
	cancel context.CancelFunc
	subs   map[chan Info]struct{}
}

// snapshotLocked deep-copies the mutable Groups slice so callers never
// observe a concurrent append.
func (j *job) snapshotLocked() Info {
	out := j.info
	out.Groups = append([]GroupTiming(nil), j.info.Groups...)
	return out
}

// broadcastLocked pushes the current snapshot to every subscriber with
// latest-wins semantics: a slow consumer misses intermediate updates but
// always observes the newest (and, eventually, the terminal) state, and
// progress counts it does observe are monotone.
func (j *job) broadcastLocked() {
	if len(j.subs) == 0 {
		return
	}
	snap := j.snapshotLocked()
	for ch := range j.subs {
		select {
		case ch <- snap:
		default:
			select {
			case <-ch: // drop the stale update
			default:
			}
			select {
			case ch <- snap:
			default:
			}
		}
	}
}

// Manager runs submitted jobs on a fixed pool of runner goroutines with
// a bounded admission queue. Safe for concurrent use.
type Manager struct {
	root context.Context
	// notify wakes an idle runner after a Submit (buffered 1; runners
	// re-scan pending until empty, so a dropped send is never a lost
	// wakeup).
	notify chan struct{}

	mu sync.Mutex
	// pending is the admission queue, guarded by mu so admission
	// (Submit), cancellation (which frees the slot immediately), and the
	// runners' pop/drain are atomic with each other — a job can neither
	// be stranded queued after shutdown nor hold a queue slot once
	// canceled.
	pending  []*job
	queueCap int
	jobs     map[string]*job
	order    []string // insertion order, for List and record retention
	seq      int

	maxRecords int
	retries    Retries
	wg         sync.WaitGroup

	// Failure observability, surfaced via Stats on /v1/stats.
	running     atomic.Int64
	retried     atomic.Uint64
	quarantined atomic.Uint64
	panics      atomic.Uint64
}

// Retries configures per-job retry: a failed attempt whose error is
// retryable (resilience.Retryable — recovered panics and transient
// faults; never cancellations or plain task errors) is re-run from
// scratch with jittered exponential backoff, up to Max attempts total.
// Exhausting the budget quarantines the job. Configure once at manager
// construction time, before jobs run.
type Retries struct {
	// Max is the total attempt budget per job, first try included;
	// values below 1 mean 1 (no retry).
	Max int
	// BaseDelay/MaxDelay shape the full-jitter backoff between attempts
	// (zero BaseDelay retries immediately).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Seed makes the backoff schedule deterministic for tests.
	Seed uint64
}

// Defaults for NewManager's zero parameters.
const (
	DefaultQueue = 16
	// DefaultRecords bounds retained terminal job records; the oldest
	// terminal records are evicted first. Active jobs are never evicted.
	DefaultRecords = 64
)

// NewManager starts a manager with `workers` runner goroutines and a
// bounded queue of `queueCap` jobs (zeros take DefaultQueue and one
// worker). Canceling root cancels every queued and running job and
// rejects further submissions; Wait blocks until the runners exit.
func NewManager(root context.Context, workers, queueCap int) *Manager {
	if root == nil {
		root = context.Background()
	}
	if workers < 1 {
		workers = 1
	}
	if queueCap < 1 {
		queueCap = DefaultQueue
	}
	m := &Manager{
		root:       root,
		notify:     make(chan struct{}, 1),
		queueCap:   queueCap,
		jobs:       make(map[string]*job),
		maxRecords: DefaultRecords,
	}
	for i := 0; i < workers; i++ {
		m.wg.Add(1)
		go m.runner()
	}
	return m
}

// SetRetries configures the per-job retry budget. Call before submitting
// jobs — the policy is read when a job starts running.
func (m *Manager) SetRetries(r Retries) {
	if r.Max < 1 {
		r.Max = 1
	}
	m.mu.Lock()
	m.retries = r
	m.mu.Unlock()
}

// Queued returns the number of jobs currently waiting in the admission
// queue — the service's readiness measure (readyz reports saturation
// when it reaches the queue capacity).
func (m *Manager) Queued() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.queuedLocked()
}

// Stats is the manager's failure-observability snapshot.
type Stats struct {
	Queued          int    `json:"queued"`
	Running         int    `json:"running"`
	Retries         uint64 `json:"retries"`
	Quarantined     uint64 `json:"quarantined"`
	PanicsRecovered uint64 `json:"panics_recovered"`
}

// Stats snapshots queue depth, in-flight jobs, and the lifetime failure
// counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Queued:          m.Queued(),
		Running:         int(m.running.Load()),
		Retries:         m.retried.Load(),
		Quarantined:     m.quarantined.Load(),
		PanicsRecovered: m.panics.Load(),
	}
}

// Wait blocks until every runner goroutine has exited (after the root
// context is canceled and in-flight jobs have wound down).
func (m *Manager) Wait() { m.wg.Wait() }

// popLocked removes and returns the oldest still-queued pending job,
// discarding entries that went terminal while waiting (canceled queued
// jobs do not occupy a runner). If runnable work remains it re-notifies,
// so sibling runners wake too. Callers hold m.mu.
func (m *Manager) popLocked() *job {
	for len(m.pending) > 0 {
		j := m.pending[0]
		m.pending = m.pending[1:]
		j.mu.Lock()
		queued := j.info.State == StateQueued
		j.mu.Unlock()
		if !queued {
			continue
		}
		if len(m.pending) > 0 {
			select {
			case m.notify <- struct{}{}:
			default:
			}
		}
		return j
	}
	return nil
}

// queuedLocked counts pending jobs still in StateQueued — the admission
// measure, so canceled-but-not-yet-discarded entries never consume
// capacity. Callers hold m.mu.
func (m *Manager) queuedLocked() int {
	n := 0
	for _, j := range m.pending {
		j.mu.Lock()
		if j.info.State == StateQueued {
			n++
		}
		j.mu.Unlock()
	}
	return n
}

func (m *Manager) runner() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		j := m.popLocked()
		m.mu.Unlock()
		if j != nil {
			m.runJob(j)
			continue
		}
		select {
		case <-m.root.Done():
			// Drain under the admission lock: Submit either observed a
			// live root (so its job is in pending here) or observes the
			// cancellation and rejects — nothing can strand in "queued".
			m.mu.Lock()
			for {
				j := m.popLocked()
				if j == nil {
					break
				}
				j.finishCanceled(context.Cause(m.root))
			}
			m.mu.Unlock()
			return
		case <-m.notify:
		}
	}
}

// finishCanceled marks a still-queued job canceled.
func (j *job) finishCanceled(cause error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.info.State != StateQueued {
		return
	}
	now := time.Now()
	j.info.State = StateCanceled
	j.info.FinishedAt = &now
	if cause == nil {
		cause = context.Canceled
	}
	j.info.Error = cause.Error()
	j.broadcastLocked()
}

func (m *Manager) runJob(j *job) {
	if j.ctx.Err() != nil {
		// Canceled (or the manager shut down) between enqueue and
		// dequeue: never start the task.
		j.finishCanceled(context.Cause(j.ctx))
		return
	}
	m.mu.Lock()
	retries := m.retries
	m.mu.Unlock()
	if retries.Max < 1 {
		retries.Max = 1
	}
	j.mu.Lock()
	if j.info.State != StateQueued { // canceled while queued
		j.mu.Unlock()
		return
	}
	now := time.Now()
	j.info.State = StateRunning
	j.info.StartedAt = &now
	j.info.Attempt = 1
	j.info.MaxAttempts = retries.Max
	j.broadcastLocked()
	task, ctx := j.task, j.ctx
	j.mu.Unlock()
	m.running.Add(1)
	defer m.running.Add(-1)

	report := func(points int, g GroupTiming) {
		j.mu.Lock()
		j.info.Done += points
		j.info.Groups = append(j.info.Groups, g)
		j.broadcastLocked()
		j.mu.Unlock()
	}

	// Each attempt runs the task under panic containment: a panic in the
	// task (or anything it calls that isn't already contained below) is
	// recovered into a *resilience.PanicError and classified like any
	// other attempt error — the runner goroutine and the process survive.
	// A retry restarts the job from scratch, so the attempt's partial
	// progress is rolled back first (subscribers see Done reset and the
	// attempt counter advance).
	pol := resilience.Policy{
		MaxAttempts: retries.Max,
		BaseDelay:   retries.BaseDelay,
		MaxDelay:    retries.MaxDelay,
		Seed:        retries.Seed,
		OnRetry: func(attempt int, _ error, _ time.Duration) {
			m.retried.Add(1)
			j.mu.Lock()
			j.info.Attempt = attempt + 1
			j.info.Done = 0
			j.info.Groups = nil
			j.broadcastLocked()
			j.mu.Unlock()
		},
	}
	var res any
	err := resilience.Retry(ctx, pol, func(ctx context.Context) (aerr error) {
		defer func() {
			if pe := resilience.Recovered(ptJobRun.Name(), recover()); pe != nil {
				m.panics.Add(1)
				aerr = pe
			}
		}()
		if ferr := ptJobRun.Hit(); ferr != nil {
			return ferr
		}
		r, terr := task(ctx, report)
		if terr != nil {
			return terr
		}
		res = r
		return nil
	})

	j.mu.Lock()
	end := time.Now()
	j.info.FinishedAt = &end
	switch {
	case err == nil:
		j.info.State = StateDone
		j.result = res
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		j.info.State = StateCanceled
		j.info.Error = err.Error()
	case resilience.Retryable(err):
		// The attempt budget ran out on an error that says "try again":
		// park the job instead of pretending the failure was diagnostic.
		m.quarantined.Add(1)
		j.info.State = StateQuarantined
		j.info.Error = fmt.Sprintf("quarantined after %d attempts: %v", j.info.Attempt, err)
	default:
		j.info.State = StateFailed
		j.info.Error = err.Error()
	}
	j.broadcastLocked()
	j.mu.Unlock()
	j.cancel() // release the job context's resources
}

// Submit enqueues a job. total is the number of progress points the task
// will report (sweep points); label is a human-readable description
// surfaced in Info. Returns ErrQueueFull when the bounded queue is at
// capacity and ErrShuttingDown after the root context is canceled. The
// returned Info is the job as enqueued, in StateQueued: a runner may
// start it before Submit returns.
func (m *Manager) Submit(label string, total int, task Task) (Info, error) {
	ctx, cancel := context.WithCancel(m.root)
	m.mu.Lock()
	// The shutdown check and the enqueue are atomic with the runners'
	// drain (both under m.mu): either the drain sees this job, or this
	// check sees the cancellation — a job can never strand in "queued".
	if m.root.Err() != nil {
		m.mu.Unlock()
		cancel()
		return Info{}, ErrShuttingDown
	}
	if m.queuedLocked() >= m.queueCap {
		m.mu.Unlock()
		cancel()
		return Info{}, ErrQueueFull
	}
	m.seq++
	j := &job{
		info: Info{
			ID:        fmt.Sprintf("job-%d", m.seq),
			Label:     label,
			State:     StateQueued,
			Total:     total,
			CreatedAt: time.Now(),
		},
		task:   task,
		ctx:    ctx,
		cancel: cancel,
		subs:   make(map[chan Info]struct{}),
	}
	// No runner can see j before it is pending, so its snapshot needs
	// no lock here; taken later it could already be running or done.
	snap := j.snapshotLocked()
	m.pending = append(m.pending, j)
	m.jobs[j.info.ID] = j
	m.order = append(m.order, j.info.ID)
	m.evictRecordsLocked()
	m.mu.Unlock()
	select {
	case m.notify <- struct{}{}:
	default:
	}
	return snap, nil
}

// evictRecordsLocked trims retained *terminal* job records beyond
// maxRecords, oldest first. Active jobs always stay addressable.
func (m *Manager) evictRecordsLocked() {
	if len(m.order) <= m.maxRecords {
		return
	}
	kept := m.order[:0]
	excess := len(m.order) - m.maxRecords
	for _, id := range m.order {
		j := m.jobs[id]
		if excess > 0 && j != nil && func() bool {
			j.mu.Lock()
			defer j.mu.Unlock()
			return j.info.State.Terminal()
		}() {
			delete(m.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
}

// Get snapshots one job by ID.
func (m *Manager) Get(id string) (Info, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Info{}, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapshotLocked(), true
}

// Result returns a done job's task result alongside its snapshot. The
// result is non-nil only in StateDone.
func (m *Manager) Result(id string) (any, Info, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, Info{}, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.snapshotLocked(), true
}

// List snapshots every retained job in submission order.
func (m *Manager) List() []Info {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	js := make([]*job, 0, len(ids))
	for _, id := range ids {
		if j, ok := m.jobs[id]; ok {
			js = append(js, j)
		}
	}
	m.mu.Unlock()
	out := make([]Info, 0, len(js))
	for _, j := range js {
		j.mu.Lock()
		out = append(out, j.snapshotLocked())
		j.mu.Unlock()
	}
	return out
}

// Cancel aborts a queued or running job: queued jobs transition to
// canceled immediately (freeing their admission-queue slot for new
// submissions); running jobs have their context canceled and reach the
// canceled state when the task unwinds. Canceling a terminal job is a
// no-op. The returned snapshot reflects the post-cancel state.
func (m *Manager) Cancel(id string) (Info, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Info{}, false
	}
	j.mu.Lock()
	switch j.info.State {
	case StateQueued:
		now := time.Now()
		j.info.State = StateCanceled
		j.info.FinishedAt = &now
		j.info.Error = "canceled by request"
		j.broadcastLocked()
	case StateRunning:
		// The task observes ctx and unwinds; runJob publishes the
		// terminal state.
	}
	snap := j.snapshotLocked()
	j.mu.Unlock()
	j.cancel()
	return snap, true
}

// Delete removes a terminal job's record. It refuses (returning false
// with ok=true) while the job is active; unknown IDs return ok=false.
func (m *Manager) Delete(id string) (deleted, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, found := m.jobs[id]
	if !found {
		return false, false
	}
	j.mu.Lock()
	terminal := j.info.State.Terminal()
	j.mu.Unlock()
	if !terminal {
		return false, true
	}
	delete(m.jobs, id)
	for i, oid := range m.order {
		if oid == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	return true, true
}

// Subscribe registers for a job's progress events. The returned channel
// carries Info snapshots — the current state immediately, then every
// update with latest-wins coalescing — and is never closed; consumers
// should stop on a Terminal snapshot (guaranteed to be delivered) and
// must call the returned unsubscribe function.
func (m *Manager) Subscribe(id string) (<-chan Info, func(), bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, nil, false
	}
	ch := make(chan Info, 1)
	j.mu.Lock()
	j.subs[ch] = struct{}{}
	ch <- j.snapshotLocked() // buffered: cannot block
	j.mu.Unlock()
	unsub := func() {
		j.mu.Lock()
		delete(j.subs, ch)
		j.mu.Unlock()
	}
	return ch, unsub, true
}
