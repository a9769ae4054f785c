package fabric

// The job manager both daemons share. A jobTable holds every submitted
// job in submission order, admits at most MaxActive of them to run at
// once, settles the cancel-while-queued race, and serves the /v1 job
// routes plus /healthz. What differs between the daemons is only how a
// job executes — its execution: `faultexp serve` runs one local
// sweep.Job into an in-memory result log, the coordinator streams
// shards from workers into a durable store — and the jobDaemon hooks
// that turn a POST into a job, forget a removed one, and complete the
// health body.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"faultexp/internal/sweep"
)

// execution is how one held job runs.
type execution interface {
	// run executes the job to a terminal state. admitted=false means
	// the job was cancelled (or the daemon stopped) before it got a
	// slot: nothing may be computed, only the streams settled.
	run(ctx context.Context, admitted bool)
	// stop asks a running job to drain; it must return promptly.
	stop()
	// done is closed once the job reaches a terminal state.
	done() <-chan struct{}
	snapshot() sweep.Snapshot
	// shards is the per-shard progress (nil for a single-node job).
	shards() []ShardView
	// line blocks until result record i exists, returning ok=false
	// once the stream is over or ctx (the reader's request) ends.
	line(ctx context.Context, i int) ([]byte, bool)
}

// jobDaemon is what a jobTable needs from the daemon that owns it.
type jobDaemon interface {
	// create turns a POST /v1/jobs request into a job not yet in the
	// table (an empty id lets the table number it). On failure it has
	// already written the error response and returns nil.
	create(w http.ResponseWriter, r *http.Request) *heldJob
	// forget drops what outlives a removed job outside the table (the
	// coordinator's store directory).
	forget(id string) error
	// health completes the shared /healthz body.
	health(h Health) any
}

// heldJob is one job in the table.
type heldJob struct {
	id      string
	created time.Time
	exec    execution

	// cancelled is closed by cancel, after exec.stop has returned.
	cancelOnce sync.Once
	cancelled  chan struct{}

	// mu guards the admission/cancellation handshake between the run
	// goroutine (beginRun) and DELETE (requestCancel): exactly one of
	// "admitted to a slot" and "cancelled while queued" wins, so a
	// queued job's DELETE can safely wait for the (immediate) terminal
	// state instead of racing a start it cannot see.
	mu              sync.Mutex
	admitted        bool
	cancelRequested bool
}

func newHeldJob(id string, created time.Time, exec execution) *heldJob {
	return &heldJob{id: id, created: created, exec: exec, cancelled: make(chan struct{})}
}

func (j *heldJob) cancel() {
	j.cancelOnce.Do(func() {
		j.mu.Lock()
		j.cancelRequested = true
		j.mu.Unlock()
		j.exec.stop()
		close(j.cancelled)
	})
}

// requestCancel cancels the job and reports whether it was still queued
// (never admitted to a slot). When queued=true the run goroutine is
// guaranteed to take the admitted=false path, so the caller may wait on
// exec.done() for a prompt, acknowledged terminal state. sync.Once makes
// the ordering sound for concurrent DELETEs: cancel() returns only after
// cancelRequested is set, and beginRun checks it under mu.
func (j *heldJob) requestCancel() (queued bool) {
	j.cancel()
	j.mu.Lock()
	defer j.mu.Unlock()
	return !j.admitted
}

// beginRun claims the admission slot for a real run. It fails exactly
// when a cancel was requested first — the queued-DELETE case.
func (j *heldJob) beginRun() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.cancelRequested {
		return false
	}
	j.admitted = true
	return true
}

// JobView is the JSON shape of one job in responses, on serve, worker
// and coordinator alike. snapshot.cells_done is the contiguous prefix a
// results stream could deliver right now.
type JobView struct {
	ID       string         `json:"id"`
	Created  time.Time      `json:"created"`
	Snapshot sweep.Snapshot `json:"snapshot"`
	// Shards is a coordinator job's per-shard progress (absent on serve
	// and worker jobs).
	Shards []ShardView `json:"shards,omitempty"`
	// Removed marks a DELETE response for a job that was already
	// terminal: the job (and its stored results) left the store.
	Removed bool `json:"removed,omitempty"`
}

func (j *heldJob) view() JobView {
	return JobView{ID: j.id, Created: j.created, Snapshot: j.exec.snapshot(), Shards: j.exec.shards()}
}

// jobTable owns every held job and the bounded admission pool: at most
// cap(sem) jobs execute at once (later ones sit in JobPending until a
// slot frees, FIFO by goroutine wakeup), and with maxJobs > 0 at most
// maxJobs are held at all.
type jobTable struct {
	ctx     context.Context
	sem     chan struct{}
	maxJobs int // 0 = keep every job
	service string
	daemon  jobDaemon

	mu    sync.Mutex
	jobs  map[string]*heldJob
	order []string
	seq   int
}

func newJobTable(ctx context.Context, service string, maxActive, maxJobs int, d jobDaemon) *jobTable {
	return &jobTable{
		ctx:     ctx,
		sem:     make(chan struct{}, maxActive),
		maxJobs: maxJobs,
		service: service,
		daemon:  d,
		jobs:    map[string]*heldJob{},
	}
}

var errTooManyJobs = errors.New("job store full")

// add holds j (numbering it when it has no id yet) and, when run is
// set, queues it for admission. A full table first evicts finished
// jobs, oldest first; only when every held job is still queued or
// running does it refuse.
func (t *jobTable) add(j *heldJob, run bool) error {
	t.mu.Lock()
	if t.maxJobs > 0 && len(t.jobs) >= t.maxJobs {
		t.evictTerminalLocked(len(t.jobs) - t.maxJobs + 1)
		if len(t.jobs) >= t.maxJobs {
			t.mu.Unlock()
			return errTooManyJobs
		}
	}
	if j.id == "" {
		t.seq++
		j.id = fmt.Sprintf("job-%d", t.seq)
	}
	t.jobs[j.id] = j
	t.order = append(t.order, j.id)
	t.mu.Unlock()
	if run {
		go t.run(j)
	}
	return nil
}

// evictTerminalLocked drops up to n of the oldest terminal jobs (their
// result logs with them). Active jobs are never evicted. Caller holds
// t.mu.
func (t *jobTable) evictTerminalLocked(n int) {
	kept := t.order[:0]
	for _, id := range t.order {
		if n > 0 && t.jobs[id].exec.snapshot().State.Terminal() {
			delete(t.jobs, id)
			n--
			continue
		}
		kept = append(kept, id)
	}
	t.order = kept
}

// run waits for a slot and executes the job. A job cancelled while
// queued (DELETE, or the daemon stopping) runs with admitted=false, so
// it still reaches a terminal state and its streams close.
func (t *jobTable) run(j *heldJob) {
	acquired := false
	select {
	case t.sem <- struct{}{}:
		acquired = true
		defer func() { <-t.sem }()
	case <-j.cancelled:
	case <-t.ctx.Done():
	}
	j.exec.run(t.ctx, acquired && j.beginRun())
}

func (t *jobTable) get(id string) (*heldJob, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.jobs[id]
	return j, ok
}

// list returns the jobs in submission order.
func (t *jobTable) list() []*heldJob {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*heldJob, 0, len(t.order))
	for _, id := range t.order {
		out = append(out, t.jobs[id])
	}
	return out
}

// remove drops one job from the table (the DELETE-a-finished-job path).
func (t *jobTable) remove(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.jobs, id)
	kept := t.order[:0]
	for _, o := range t.order {
		if o != id {
			kept = append(kept, o)
		}
	}
	t.order = kept
}

// cancelAll cancels every held job; each drains at a cell boundary.
func (t *jobTable) cancelAll() {
	for _, j := range t.list() {
		j.cancel()
	}
}

// Health is the GET /healthz body of serve and worker daemons, and the
// shared part of the coordinator's: enough for a fleet operator (or the
// coordinator itself) to spot version and kernel skew before any cell
// bytes mix. KernelVersion is the sweep measurement-kernel stamp — two
// daemons disagreeing on it may produce different bytes for the same
// cell, so the coordinator refuses to dispatch to a kernel-skewed
// worker.
type Health struct {
	Service       string `json:"service"`
	Version       string `json:"version"`
	KernelVersion string `json:"kernel_version"`
	MaxActive     int    `json:"max_active"`
	ActiveJobs    int    `json:"active_jobs"`
	HeldJobs      int    `json:"held_jobs"`
}

// BuildVersion reports the module version the running binary was built
// as, from the linker-embedded build info ("devel" for a plain local
// build).
func BuildVersion() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	v := bi.Main.Version
	if v == "" || v == "(devel)" {
		v = "devel"
	}
	return v
}

func (t *jobTable) health() Health {
	h := Health{
		Service:       t.service,
		Version:       BuildVersion(),
		KernelVersion: sweep.KernelVersion,
		MaxActive:     cap(t.sem),
	}
	for _, j := range t.list() {
		h.HeldJobs++
		if j.exec.snapshot().State == sweep.JobRunning {
			h.ActiveJobs++
		}
	}
	return h
}

// mux registers the /v1 job routes and /healthz.
func (t *jobTable) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", t.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", t.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", t.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/results", t.handleResults)
	mux.HandleFunc("DELETE /v1/jobs/{id}", t.handleCancel)
	mux.HandleFunc("GET /healthz", t.handleHealth)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (t *jobTable) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, t.daemon.health(t.health()))
}

func (t *jobTable) handleSubmit(w http.ResponseWriter, r *http.Request) {
	j := t.daemon.create(w, r)
	if j == nil {
		return
	}
	if err := t.add(j, true); err != nil {
		httpError(w, http.StatusServiceUnavailable, "job store full: all %d held jobs are still queued or running; cancel one (DELETE /v1/jobs/{id}) or retry later", t.maxJobs)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, http.StatusCreated, j.view())
}

func (t *jobTable) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := t.list()
	views := make([]JobView, len(jobs))
	for i, j := range jobs {
		views[i] = j.view()
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

// lookup finds the job named by the {id} path value, writing the 404
// itself when there is none.
func (t *jobTable) lookup(w http.ResponseWriter, r *http.Request) (*heldJob, bool) {
	j, ok := t.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
	}
	return j, ok
}

func (t *jobTable) handleGet(w http.ResponseWriter, r *http.Request) {
	if j, ok := t.lookup(w, r); ok {
		writeJSON(w, http.StatusOK, j.view())
	}
}

// handleCancel: DELETE on a running job cancels it and returns at once
// (the job stays queryable so clients can watch the drain); DELETE on a
// still-queued job cancels it without waiting for admission, and the
// response already shows the cancelled terminal state; DELETE on a job
// already in a terminal state removes it — from memory, and on the
// coordinator from the durable store too.
func (t *jobTable) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := t.lookup(w, r)
	if !ok {
		return
	}
	v := j.view()
	if v.Snapshot.State.Terminal() {
		t.remove(j.id)
		if err := t.daemon.forget(j.id); err != nil {
			httpError(w, http.StatusInternalServerError, "removing %s from the store: %v", j.id, err)
			return
		}
		v.Removed = true
		writeJSON(w, http.StatusOK, v)
		return
	}
	if j.requestCancel() {
		// The job never reached a slot, so it terminates without
		// computing anything — await that (it is immediate) so the
		// response acknowledges the cancellation instead of racing it
		// with a stale "pending" snapshot.
		select {
		case <-j.exec.done():
		case <-t.ctx.Done():
		}
	}
	writeJSON(w, http.StatusOK, j.view())
}

// handleResults streams the job's JSONL live: records already produced
// flush immediately, later ones as they land, and the response ends
// when the job reaches a terminal state. ?from=K skips the first K
// records — the re-attach path for clients that lost a stream (the
// records are deterministic, so the spliced stream is byte-identical to
// an unbroken one).
func (t *jobTable) handleResults(w http.ResponseWriter, r *http.Request) {
	j, ok := t.lookup(w, r)
	if !ok {
		return
	}
	from := 0
	if tok := r.URL.Query().Get("from"); tok != "" {
		n, err := strconv.Atoi(tok)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, "bad from=%q, want a cell index ≥ 0", tok)
			return
		}
		from = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	for i := from; ; i++ {
		line, ok := j.exec.line(r.Context(), i)
		if !ok {
			return
		}
		if _, err := w.Write(line); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}
