package main

// The timed run of the in-process workloads (curves, kernels, wide):
// set-up is measured on its own, then the workload's sweep.Job runs
// back to back at workers = GOMAXPROCS until the time is up.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime/debug"
	"time"

	"faultexp/internal/cache"
	"faultexp/internal/gen"
	"faultexp/internal/graph"
	"faultexp/internal/sweep"
	"faultexp/internal/xrand"
)

// setupShare is the share of a run's measured time spent setting up:
// after each timed job the in-process workloads set up for this share
// of the job's wall time, and the fleet sets up for this share of
// --seconds before and again after its timed phase. setup_s is the
// median of every set-up. Set-up takes from under a millisecond to
// tens of milliseconds and the machine's speed varies in streaks of a
// fraction of a second, so set-ups spread over the whole run are as
// steady as the timed jobs, and one short window is not.
const setupShare = 0.15

// setupSampler collects a run's set-up times.
type setupSampler struct {
	// setup sets up once and returns how long that took.
	setup func() (time.Duration, error)
	times []float64
}

// sample sets up repeatedly, at least once, until d has passed. Before
// each set-up the heap is collected and returned to the operating
// system, so every set-up, like a fresh process's, faults in the memory
// it builds into.
func (s *setupSampler) sample(d time.Duration) error {
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < d; n++ {
		debug.FreeOSMemory()
		t, err := s.setup()
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		s.times = append(s.times, t.Seconds())
	}
	return nil
}

// stampWriter is the sweep.Writer of every measured job: JSONL into
// memory, with the time each record arrived.
type stampWriter struct {
	buf   bytes.Buffer
	enc   *sweep.JSONLWriter
	times []time.Time
}

func newStampWriter() *stampWriter {
	w := &stampWriter{}
	w.enc = sweep.NewJSONL(&w.buf)
	return w
}

func (w *stampWriter) Write(r *sweep.Result) error {
	w.times = append(w.times, time.Now())
	return w.enc.Write(r)
}

func (w *stampWriter) Flush() error { return w.enc.Flush() }

// jobRun is one completed in-process job.
type jobRun struct {
	out   []byte
	cells []sweep.Cell
	// trials is the Monte-Carlo volume the job delivered.
	trials int
	wall   time.Duration
	first  time.Duration
	// recordP50 is the median time from Start to a record.
	recordP50 time.Duration
}

// runJob loads specJSON and runs it as one sweep.Job; workers 0 keeps
// the spec's own worker count.
func runJob(specJSON []byte, workers int, rc *cache.Cache) (jobRun, error) {
	spec, err := sweep.Load(bytes.NewReader(specJSON))
	if err != nil {
		return jobRun{}, err
	}
	w := newStampWriter()
	opts := []sweep.JobOption{sweep.WithWriter(w), sweep.WithCache(rc)}
	if workers > 0 {
		opts = append(opts, sweep.WithWorkers(workers))
	}
	job, err := sweep.NewJob(spec, opts...)
	if err != nil {
		return jobRun{}, err
	}
	t0 := time.Now()
	if err := job.Start(context.Background()); err != nil {
		return jobRun{}, err
	}
	_, err = job.Wait()
	wall := time.Since(t0)
	if err != nil {
		return jobRun{}, fmt.Errorf("job: %w", err)
	}
	cells := spec.Cells()
	run := jobRun{out: w.buf.Bytes(), cells: cells, trials: len(cells) * spec.Trials, wall: wall}
	if len(w.times) > 0 {
		since := make([]float64, len(w.times))
		for i, at := range w.times {
			since[i] = float64(at.Sub(t0))
		}
		run.first = w.times[0].Sub(t0)
		run.recordP50 = time.Duration(median(since))
	}
	return run, nil
}

// checkOutput is the correctness gate on one job's JSONL: ScanResume
// must accept it as a complete run of the job's cells, and no record may
// carry an err.
func checkOutput(out []byte, cells []sweep.Cell) error {
	st, err := sweep.ScanResume(bytes.NewReader(out), cells)
	if err != nil {
		return err
	}
	if st.Done != len(cells) || st.Truncated {
		return fmt.Errorf("output holds %d of %d cells (torn tail: %v)", st.Done, len(cells), st.Truncated)
	}
	for i, line := range bytes.SplitAfter(out, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var r sweep.Result
		if err := json.Unmarshal(line, &r); err != nil {
			return fmt.Errorf("record %d: %w", i, err)
		}
		if r.Err != "" {
			return fmt.Errorf("record %d (%s/%s/%s rate %v) failed: %s", i, r.Family, r.Measure, r.Model, r.Rate, r.Err)
		}
	}
	return nil
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// budgetOf is the size budget the engine builds the spec's graphs under.
func budgetOf(spec *sweep.Spec) gen.Budget {
	if p, err := sweep.ParsePrecision(spec.Precision); err == nil && p.Sampled {
		return gen.SampledBudget
	}
	return gen.DefaultBudget
}

// buildGraph builds one family graph with the call and seed the engine
// uses.
func buildGraph(spec *sweep.Spec, f sweep.FamilySpec) (*graph.Graph, error) {
	g, _, err := gen.FromFamilyBudget(f.Family, f.Size, f.K, budgetOf(spec), xrand.New(sweep.GraphSeed(spec.Seed, f)))
	if err != nil {
		return nil, fmt.Errorf("building %s: %w", f, err)
	}
	return g, nil
}

// csrBytes is the size of the CSR arrays (int32 offsets and adjacency)
// of a graph with n vertices and m edges.
func csrBytes(n, m int64) int64 { return 4*(n+1) + 8*m }

// setupOnce is the in-process set-up: load, validate and plan the spec,
// then build every family graph. It returns the largest graph's CSR
// bytes.
func setupOnce(specJSON []byte) (largest int64, err error) {
	spec, err := sweep.Load(bytes.NewReader(specJSON))
	if err != nil {
		return 0, err
	}
	if _, err := spec.Plan(sweep.Shard{}); err != nil {
		return 0, err
	}
	for _, f := range spec.Families {
		g, err := buildGraph(spec, f)
		if err != nil {
			return 0, err
		}
		largest = max(largest, csrBytes(int64(g.N()), int64(g.M())))
	}
	return largest, nil
}

const (
	// inprocMinJobs is the fewest jobs a run times; the digest of their
	// outputs is printed so runs of one seed can be compared.
	inprocMinJobs = 4
	// inprocMaxSpecs is how many specs a run generates; no run comes
	// near it.
	inprocMaxSpecs = 1000
)

// resetPeakRSS resets the process's peak resident set (VmHWM) to its
// current resident set.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

func timedInproc(cfg config, o *outcome) error {
	specs, _ := inprocSpecs(cfg.workload, cfg.seed, inprocMaxSpecs)
	spec := specs[0] // the spec of the latest job; set-ups build its graphs
	var largest int64
	setups := setupSampler{setup: func() (time.Duration, error) {
		t0 := time.Now()
		l, err := setupOnce(spec)
		largest = max(largest, l)
		return time.Since(t0), err
	}}
	if err := setups.sample(0); err != nil {
		return err
	}
	// peak_rss_mb is the median of the jobs' own peaks when the kernel
	// lets the peak be reset between jobs, else the run's peak.
	perJobPeak := true
	var walls, firsts, records, rates, peaks []float64
	var outs bytes.Buffer // every job's output digest
	var first string
	measured := 0.0 // seconds of timed jobs
	for iter := 0; iter < inprocMinJobs || measured < cfg.seconds; iter++ {
		spec = specs[iter%len(specs)]
		// Every job starts from a heap returned to the operating system,
		// whatever the set-ups before it left.
		debug.FreeOSMemory()
		if perJobPeak && resetPeakRSS() != nil {
			perJobPeak = false
		}
		run, err := runJob(spec, cfg.workers, nil)
		if err != nil {
			return err
		}
		peaks = append(peaks, float64(statusKB("VmHWM")))
		o.attempted += len(run.cells)
		if err := checkOutput(run.out, run.cells); err != nil {
			o.wrong(len(run.cells), "iteration %d: %v", iter, err)
		}
		d := digest(run.out)
		if iter == 0 {
			first = d
		}
		if iter < inprocMinJobs {
			outs.WriteString(d)
		}
		walls = append(walls, run.wall.Seconds())
		firsts = append(firsts, run.first.Seconds())
		records = append(records, run.recordP50.Seconds())
		rates = append(rates, float64(run.trials)/run.wall.Seconds())
		measured += run.wall.Seconds()
		if err := setups.sample(time.Duration(setupShare * float64(run.wall))); err != nil {
			return err
		}
	}
	// The first job's spec once more, untimed: the same bytes or the
	// run is not correct.
	again, err := runJob(specs[0], cfg.workers, nil)
	o.attempted += max(len(again.cells), 1)
	if err != nil || digest(again.out) != first {
		o.wrong(max(len(again.cells), 1), "the first job's spec run again gave other bytes (err %v)", err)
	}
	fmt.Printf("# %s seed=%d setups=%d jobs=%d first_%d_jobs_sha256=%s job_walls_s=%.3f\n",
		cfg.workload, cfg.seed, len(setups.times), len(walls), inprocMinJobs, digest(outs.Bytes()), walls)
	o.values["setup_s"] = median(setups.times)
	o.values["trials_per_s"] = median(rates)
	o.values["first_record_ms"] = median(firsts) * 1e3
	// In-process every job has the same trial count, so the median job
	// wall would only be trials_per_s inverted; job_p50_ms is instead
	// the median time from Start to a record, which also moves with the
	// order cells are dispatched and emitted in.
	o.values["job_p50_ms"] = median(records) * 1e3
	peak := int64(median(peaks))
	if !perJobPeak {
		fmt.Println("# the peak resident set cannot be reset here: peak_rss_mb is the run's peak")
		peak = statusKB("VmHWM")
	}
	checkPeakRSS(cfg, o, peak, largest)
	return nil
}
