// Package fabric is the distributed sweep fabric: one job manager
// behind three daemons, the client the coordinator drives workers with,
// and the durable on-disk job store.
//
// The job manager (jobs.go) holds every job in submission order, admits
// at most MaxActive at once, and serves the same /v1 job routes and
// /healthz for every daemon. It runs a job in one of two ways. Server —
// `faultexp serve` and `faultexp worker` — runs it as one local
// sweep.Job streaming into an in-memory result log. Coordinator — run
// by `faultexp coordinator` — splits the grid into `-shard i/m` slices,
// dispatches them to a worker fleet, keeps every streamed line in a
// durable store, and serves back a merged result stream byte-identical
// to a single-node run.
//
// The whole package leans on one invariant from internal/sweep: a
// cell's bytes depend only on (grid seed, semantic cell key), never on
// which process computed it or when. That makes shards mergeable by
// pure interleave, any output prefix resumable (ScanResume), and a
// fleet run bit-for-bit equal to a laptop run.
package fabric

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"faultexp/internal/cache"
	"faultexp/internal/sweep"
)

// resultLog is the in-memory result sink a served job streams into: a
// sweep.Writer that keeps every encoded JSONL line, plus a condition
// variable so any number of HTTP readers can follow the stream live —
// including readers that attach mid-run or re-attach with ?from= after
// a dropped connection. The coordinator reuses it as the per-shard
// line log (appendLine) feeding the merged stream.
type resultLog struct {
	mu    sync.Mutex
	cond  *sync.Cond
	lines [][]byte
	bytes int64
	// maxBytes caps the retained result bytes (0 = unlimited): a served
	// job is an in-memory sink, so without a cap one huge grid could
	// hold the daemon's heap hostage for as long as the job stays in
	// the store.
	maxBytes  int64
	truncated bool
	done      bool
}

func newResultLog(maxBytes int64) *resultLog {
	l := &resultLog{maxBytes: maxBytes}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// Write implements sweep.Writer. The stored line is exactly what
// NewJSONL would have written — json.Marshal plus a newline — which is
// what makes the HTTP stream byte-identical to the CLI output. A write
// that would push the log past maxBytes fails the job instead: the
// returned error aborts the run (surfacing in the job snapshot), and a
// final parseable record with an Err field closes the stream so a
// follower sees why it stopped short rather than a silent truncation.
func (l *resultLog) Write(r *sweep.Result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.truncated {
		return fmt.Errorf("fabric: result log over -max-result-bytes=%d", l.maxBytes)
	}
	if l.maxBytes > 0 && l.bytes+int64(len(b)) > l.maxBytes {
		l.truncated = true
		tail, _ := json.Marshal(&sweep.Result{Err: fmt.Sprintf("result stream truncated: output exceeds -max-result-bytes=%d", l.maxBytes)})
		l.lines = append(l.lines, append(tail, '\n'))
		l.cond.Broadcast()
		return fmt.Errorf("fabric: result log over -max-result-bytes=%d", l.maxBytes)
	}
	l.bytes += int64(len(b))
	l.lines = append(l.lines, b)
	l.cond.Broadcast()
	return nil
}

// Flush implements sweep.Writer (lines are visible as soon as they are
// written; there is nothing buffered to push).
func (l *resultLog) Flush() error { return nil }

// appendLine stores one already-encoded JSONL line (newline included)
// — the coordinator's path, where lines arrive verbatim from worker
// streams and must not be re-encoded.
func (l *resultLog) appendLine(b []byte) {
	l.mu.Lock()
	l.bytes += int64(len(b))
	l.lines = append(l.lines, b)
	l.cond.Broadcast()
	l.mu.Unlock()
}

// count returns how many lines the log holds.
func (l *resultLog) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.lines)
}

// finish marks the stream complete and wakes every follower.
func (l *resultLog) finish() {
	l.mu.Lock()
	l.done = true
	l.cond.Broadcast()
	l.mu.Unlock()
}

// next blocks until line i exists, the log is finished, or ctx (the
// HTTP request's context) is cancelled; ok=false means the stream is
// over for this reader.
func (l *resultLog) next(ctx context.Context, i int) (line []byte, ok bool) {
	// Wake the cond wait when the reader disappears, so a dropped
	// connection doesn't park a goroutine for the rest of a long run.
	stopWatch := context.AfterFunc(ctx, func() {
		l.mu.Lock()
		l.cond.Broadcast()
		l.mu.Unlock()
	})
	defer stopWatch()
	l.mu.Lock()
	defer l.mu.Unlock()
	for i >= len(l.lines) && !l.done && ctx.Err() == nil {
		l.cond.Wait()
	}
	if i < len(l.lines) && ctx.Err() == nil {
		return l.lines[i], true
	}
	return nil, false
}

// localJob is how serve and worker execute a job: one local sweep.Job
// streaming into a resultLog.
type localJob struct {
	job *sweep.Job
	log *resultLog
}

// run starts the job — pre-cancelled when it was never admitted, so
// Wait/Snapshot/streams all resolve through the ordinary cancelled
// terminal state without computing anything — and completes its log.
func (l *localJob) run(ctx context.Context, admitted bool) {
	if !admitted {
		l.job.Cancel()
	}
	if err := l.job.Start(ctx); err == nil {
		l.job.Wait()
	}
	l.log.finish()
}

func (l *localJob) stop()                    { l.job.Cancel() }
func (l *localJob) done() <-chan struct{}    { return l.job.Done() }
func (l *localJob) snapshot() sweep.Snapshot { return l.job.Snapshot() }
func (l *localJob) shards() []ShardView      { return nil }
func (l *localJob) line(ctx context.Context, i int) ([]byte, bool) {
	return l.log.next(ctx, i)
}

// Config sizes a Server.
type Config struct {
	// MaxActive bounds the jobs executing concurrently; submissions
	// beyond it queue as pending. Defaults to 2.
	MaxActive int
	// MaxJobs bounds the jobs held in memory at all; when full,
	// finished jobs are evicted oldest-first and POST fails only if
	// every held job is still active. Defaults to 64.
	MaxJobs int
	// MaxResultBytes caps the retained result bytes per job (0 =
	// unlimited).
	MaxResultBytes int64
	// Cache/Flight, when set, are shared by every job: the cache makes
	// overlapping grids incremental across jobs and server restarts;
	// the flight dedups identical cells in concurrent jobs.
	Cache  *cache.Cache
	Flight *cache.Flight
}

// Server is the job manager run as `faultexp serve` (a standalone
// daemon) and `faultexp worker` (the same surface, driven by a
// coordinator via the shard/skip query parameters on POST /v1/jobs):
// each job executes as one local sweep.Job, and the table stays
// memory-only, bounded by MaxJobs.
type Server struct {
	jobs *jobTable
	cfg  Config
}

// NewServer builds a Server whose jobs run under ctx (cancelling it
// cancels every job).
func NewServer(ctx context.Context, cfg Config) *Server {
	if cfg.MaxActive < 1 {
		cfg.MaxActive = 2
	}
	if cfg.MaxJobs < 1 {
		cfg.MaxJobs = 64
	}
	s := &Server{cfg: cfg}
	s.jobs = newJobTable(ctx, "faultexp", cfg.MaxActive, cfg.MaxJobs, s)
	return s
}

// Handler serves the /v1 job routes plus /healthz.
func (s *Server) Handler() http.Handler { return s.jobs.mux() }

// CancelAll is the shutdown path: every job drains at a cell boundary.
func (s *Server) CancelAll() { s.jobs.cancelAll() }

// create accepts a grid spec. Two query parameters form the worker
// protocol the coordinator speaks — they restrict the run without
// touching the spec JSON (which stays the exact schema the CLI -spec
// flag takes):
//
//	?shard=i/m  run only round-robin shard i of m (sweep.WithShard)
//	?skip=K     skip the first K cells of that shard — the resume path,
//	            where K is the verified length of an earlier attempt's
//	            streamed prefix (sweep.WithSkipCells)
func (s *Server) create(w http.ResponseWriter, r *http.Request) *heldJob {
	// sweep.Load applies the full spec contract: unknown fields, family
	// registry, measures, models, rates, trials — same as -spec files.
	spec, err := sweep.Load(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return nil
	}
	log := newResultLog(s.cfg.MaxResultBytes)
	opts := []sweep.JobOption{sweep.WithWriter(log), sweep.WithCache(s.cfg.Cache), sweep.WithFlight(s.cfg.Flight)}
	if tok := r.URL.Query().Get("shard"); tok != "" {
		sh, err := sweep.ParseShard(tok)
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return nil
		}
		opts = append(opts, sweep.WithShard(sh))
	}
	if tok := r.URL.Query().Get("skip"); tok != "" {
		n, err := strconv.Atoi(tok)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, "bad skip=%q, want a cell count ≥ 0", tok)
			return nil
		}
		opts = append(opts, sweep.WithSkipCells(n))
	}
	job, err := sweep.NewJob(spec, opts...)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return nil
	}
	return newHeldJob("", time.Now(), &localJob{job: job, log: log})
}

// forget has nothing to do: a served job lives only in memory.
func (s *Server) forget(string) error { return nil }

func (s *Server) health(h Health) any { return h }
