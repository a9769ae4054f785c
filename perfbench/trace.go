package main

// The traced run (-trace 1): untraced jobs and a traced replay of the
// same cells, one pass of the same specs through a probed fleet, and
// the per-measure table. Every per-layer metric is derived from the
// spans these record; the spans are written out when the run ends.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"faultexp/internal/cache"
	"faultexp/internal/fabric"
	"faultexp/internal/graph"
	"faultexp/internal/sweep"
	"faultexp/internal/xrand"
)

// fleetTraceJobs is how many timed-stream jobs the fleet's traced run
// replays (after its warm-up jobs).
const fleetTraceJobs = 24

func traced(cfg config, o *outcome) error {
	dir, err := os.MkdirTemp(cfg.workdir, cfg.workload+"-trace-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// The specs to replay, in order, and the share of their cells the
	// cache is designed to serve.
	var specs [][]byte
	var warmSpecs [][]byte
	designedHits, allCells := 0, 0
	jobWorkers, replayWorkers := cfg.workers, cfg.workers
	if cfg.workload == "fleet" {
		warm, jobs := fleetStream(cfg.seed, fleetTraceJobs)
		for _, j := range append(warm, jobs...) {
			specs = append(specs, j.spec)
			designedHits += j.designedHits
			allCells += j.cells
		}
		for _, j := range warm {
			warmSpecs = append(warmSpecs, j.spec)
		}
		// Fleet jobs ask for one worker; the engine honours the spec.
		jobWorkers, replayWorkers = 0, 1
	} else {
		specs, _ = inprocSpecs(cfg.workload, cfg.seed, 1)
	}

	// Untraced jobs: the reference bytes, wall time and first-record
	// time. They use a fresh cache, as the replay does, so both compute
	// the same cells.
	rcU, err := cache.Open(filepath.Join(dir, "untraced-cache"))
	if err != nil {
		return err
	}
	var refs [][]byte
	var untracedWall time.Duration
	var firsts []time.Duration
	for i, s := range specs {
		run, err := runJob(s, jobWorkers, rcU)
		if err != nil {
			return fmt.Errorf("untraced job %d: %w", i, err)
		}
		o.attempted += len(run.cells)
		if err := checkOutput(run.out, run.cells); err != nil {
			o.wrong(len(run.cells), "untraced job %d: %v", i, err)
		}
		refs = append(refs, run.out)
		untracedWall += run.wall
		firsts = append(firsts, run.first)
	}

	// The traced replay of the same specs, compared record by record.
	rcT, err := cache.Open(filepath.Join(dir, "traced-cache"))
	if err != nil {
		return err
	}
	rp := newReplayer(replayWorkers, rcT)
	var cell0s []int
	t0 := time.Now()
	for i, s := range specs {
		out, c0, err := rp.replaySpec(s)
		if err != nil {
			o.wrong(1, "replay of job %d: %v", i, err)
		}
		if n := mismatches(out, refs[i]); n > 0 {
			o.wrong(n, "replay of job %d: %d records differ from the untraced job's", i, n)
		}
		cell0s = append(cell0s, c0)
	}
	tracedWall := time.Since(t0)
	wspans := rp.spans()

	// One pass of the same specs through a probed fleet.
	fspans, retries, refused, err := fabricPass(cfg, o, filepath.Join(dir, "fleet"), warmSpecs, specs[len(warmSpecs):], refs[len(warmSpecs):])
	if err != nil {
		return err
	}

	// The per-measure table.
	tp, allocs, err := measureTable(cfg, o)
	if err != nil {
		return err
	}
	tspans := tp.spans()

	v := o.values
	plans := spansNamed(wspans, "sweep.plan")
	v["sweep.plan_ms"] = meanDur(plans) / 1e6
	v["gen.build_ms"] = sumDur(spansNamed(wspans, "gen.build")) / float64(len(plans)) / 1e6
	v["faults.apply_us_per_trial"] = meanDur(spansNamed(wspans, "faults.apply")) / 1e3
	wm, tm := perMeasure(wspans, rp.labels), perMeasure(tspans, tp.labels)
	for _, m := range tableMeasures {
		st := wm[m]
		if st.trials == 0 {
			st = tm[m]
		}
		v["experiments.trial_us."+m] = st.trialNS / float64(st.trials) / 1e3
		v["experiments.setup_ms."+m] = st.setupNS / float64(st.setups) / 1e6
		v["experiments.allocs_per_trial."+m] = allocs[m]
	}
	computed := map[int]bool{} // cells computed rather than served by the cache
	for _, s := range spansNamed(wspans, "experiments.setup") {
		computed[s.Cell] = true
	}
	v["stats.fold_us_per_cell"] = sumDur(spansNamed(wspans, "stats.fold")) / float64(len(computed)) / 1e3
	v["sweep.encode_us_per_record"] = meanDur(spansNamed(wspans, "sweep.encode")) / 1e3
	layer := 0.0
	for _, name := range []string{"gen.build", "experiments.setup", "experiments.trial", "experiments.finish", "stats.fold", "sweep.encode"} {
		layer += sumDur(spansNamed(wspans, name))
	}
	v["sweep.engine_overhead_frac"] = 1 - layer/(float64(untracedWall)*float64(replayWorkers))
	var waits []float64
	for i, c0 := range cell0s {
		waits = append(waits, float64(firsts[i])-cellCompute(wspans, c0))
	}
	v["sweep.first_record_wait_ms"] = mean(waits) / 1e6
	v["cache.hit_frac"] = float64(rp.hits) / float64(rp.gets)
	v["cache.hit_frac_designed"] = 0
	if allCells > 0 {
		v["cache.hit_frac_designed"] = float64(designedHits) / float64(allCells)
	}
	v["cache.key_ns"] = meanDur(spansNamed(wspans, "cache.key"))
	v["cache.get_us"] = meanDur(spansNamed(wspans, "cache.get")) / 1e3
	v["cache.put_us"] = meanDur(spansNamed(wspans, "cache.put")) / 1e3
	v["fabric.submit_ms"] = meanDur(spansNamed(fspans, "fabric.submit")) / 1e6
	v["fabric.shard_ms"] = meanDur(spansNamed(fspans, "fabric.shard")) / 1e6
	var over []float64
	for i, j := range fspans {
		if j.Name != "fabric.job" {
			continue
		}
		slowest := 0.0
		for _, s := range fspans {
			if s.Parent == i && s.Name == "fabric.shard" {
				slowest = max(slowest, s.dur())
			}
		}
		over = append(over, j.dur()-slowest)
	}
	v["fabric.overhead_ms"] = mean(over) / 1e6
	v["fabric.retries"] = float64(retries)
	v["fabric.refused"] = float64(refused)
	v["trace.overhead_frac"] = tracedWall.Seconds()/untracedWall.Seconds() - 1
	fmt.Printf("# %s seed=%d traced_wall_s=%.3f untraced_wall_s=%.3f replayed_cells=%d hit_frac=%.4f designed=%.4f\n",
		cfg.workload, cfg.seed, tracedWall.Seconds(), untracedWall.Seconds(), len(rp.labels), v["cache.hit_frac"], v["cache.hit_frac_designed"])

	path := filepath.Join(cfg.workdir, "spans-"+cfg.workload+".jsonl")
	return writeSpans(path, map[string][]span{"workload": wspans, "fabric": fspans, "table": tspans})
}

// mismatches counts the records of got that differ from want's, plus
// any surplus or missing records.
func mismatches(got, want []byte) int {
	g := bytes.SplitAfter(got, []byte("\n"))
	w := bytes.SplitAfter(want, []byte("\n"))
	n := 0
	for i := 0; i < max(len(g), len(w)); i++ {
		if i >= len(g) || i >= len(w) || !bytes.Equal(g[i], w[i]) {
			n++
		}
	}
	return n
}

func spansNamed(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

func sumDur(spans []span) float64 {
	t := 0.0
	for _, s := range spans {
		t += s.dur()
	}
	return t
}

func meanDur(spans []span) float64 {
	if len(spans) == 0 {
		return 0
	}
	return sumDur(spans) / float64(len(spans))
}

// cellCompute is the replay's critical path to cell id's record: its
// cache probe, its graph build, its slowest trial block (less the
// replayed fault draws, which the job does not make), then its fold,
// finish and encode.
func cellCompute(spans []span, id int) float64 {
	t := 0.0
	units := map[int]float64{} // sweep.unit span index → self time
	for i, s := range spans {
		if s.Cell != id {
			continue
		}
		switch s.Name {
		case "cache.key", "cache.get", "gen.build", "stats.fold", "experiments.finish", "sweep.encode":
			t += s.dur()
		case "sweep.unit":
			units[i] += s.dur()
		case "faults.apply":
			units[spans[s.Parent].Parent] -= s.dur()
		}
	}
	slowest := 0.0
	for _, u := range units {
		slowest = max(slowest, u)
	}
	return t + slowest
}

type measureStats struct {
	trialNS, setupNS float64
	trials, setups   int
}

// perMeasure sums, per measure label, the trials' self time (trial
// minus its replayed fault draw) and the setup time.
func perMeasure(spans []span, labels []string) map[string]measureStats {
	out := map[string]measureStats{}
	for _, s := range spans {
		if s.Cell < 0 {
			continue
		}
		l := labels[s.Cell]
		st := out[l]
		switch s.Name {
		case "experiments.trial":
			st.trialNS += s.dur()
			st.trials++
		case "faults.apply":
			st.trialNS -= s.dur()
		case "experiments.setup":
			st.setupNS += s.dur()
			st.setups++
		default:
			continue
		}
		out[l] = st
	}
	return out
}

// tableSpec is the per-measure table's cell for one label: torus:16x16
// (butterfly:5 for multibutterfly), iid-node faults at rate 0.05, four
// trials.
func tableSpec(label string, seed uint64) []byte {
	measure, sampled := strings.CutSuffix(label, "-sampled")
	s := sweep.Spec{
		Families: []sweep.FamilySpec{{Family: "torus", Size: "16x16"}},
		Measures: []string{measure},
		Models:   []string{sweep.ModelIIDNode},
		Rates:    []float64{0.05},
		Trials:   4,
		Seed:     xrand.SeedFor(seed, "table", label),
	}
	if measure == "multibutterfly" {
		s.Families[0] = sweep.FamilySpec{Family: "butterfly", Size: "5"}
	}
	if sampled {
		s.Precision = "sampled:4"
	}
	return mustJSON(&s)
}

// measureTable replays every table cell on one goroutine, checks it
// against an untraced job, and counts each measure's heap allocations
// per warm trial.
func measureTable(cfg config, o *outcome) (*replayer, map[string]float64, error) {
	tp := newReplayer(1, nil)
	allocs := map[string]float64{}
	for _, label := range tableMeasures {
		spec := tableSpec(label, cfg.seed)
		ref, err := runJob(spec, 1, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("table %s: %w", label, err)
		}
		o.attempted += len(ref.cells)
		if err := checkOutput(ref.out, ref.cells); err != nil {
			o.wrong(len(ref.cells), "table %s: %v", label, err)
		}
		out, _, err := tp.replaySpec(spec)
		if err != nil {
			o.wrong(1, "table %s replay: %v", label, err)
		}
		if n := mismatches(out, ref.out); n > 0 {
			o.wrong(n, "table %s: replay differs from the untraced job", label)
		}
		if allocs[label], err = allocsPerTrial(spec); err != nil {
			return nil, nil, fmt.Errorf("table %s: %w", label, err)
		}
	}
	return tp, allocs, nil
}

// allocsPerTrial counts the heap allocations of the cell's trial loop
// after one warm pass, per trial, on one P so nothing else allocates.
func allocsPerTrial(specJSON []byte) (float64, error) {
	spec, err := sweep.Load(bytes.NewReader(specJSON))
	if err != nil {
		return 0, err
	}
	c := spec.Cells()[0]
	g, err := buildGraph(spec, c.Family)
	if err != nil {
		return 0, err
	}
	setup, _ := sweep.LookupTrials(c.Measure)
	ws, rec := graph.NewWorkspace(), sweep.NewRecorder()
	run, err := setup(g, c, ws, xrand.New(c.Seed), rec)
	if err != nil {
		return 0, err
	}
	if err := sweep.RunTrials(c, ws, rec, run.Trial); err != nil {
		return 0, err
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = sweep.RunTrials(c, ws, rec, run.Trial)
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(c.Trials), err
}

// fabricProbe records the workers' side of the fleet: every shard POST
// and, read from the worker's job view just before the coordinator
// deletes the job, each shard's own elapsed time.
type fabricProbe struct {
	mu     sync.Mutex
	specOf map[string]string // "worker/job id" → digest of the spec
	posts  map[string]int    // spec digest → shard POSTs
	shards map[string][]span // spec digest → fabric.shard spans
	epoch  time.Time
}

func (p *fabricProbe) wrap(worker int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			var v fabric.JobView
			if rec.Code == http.StatusCreated && json.Unmarshal(rec.Body.Bytes(), &v) == nil {
				key := digest(body)
				p.mu.Lock()
				p.posts[key]++
				p.specOf[fmt.Sprint(worker, "/", v.ID)] = key
				p.mu.Unlock()
			}
			for k, vs := range rec.Header() {
				w.Header()[k] = vs
			}
			w.WriteHeader(rec.Code)
			w.Write(rec.Body.Bytes())
		case r.Method == http.MethodDelete && strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, r.URL.Path, nil))
			var v fabric.JobView
			if rec.Code == http.StatusOK && json.Unmarshal(rec.Body.Bytes(), &v) == nil && v.Snapshot.State.Terminal() {
				end := int64(time.Since(p.epoch))
				id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
				p.mu.Lock()
				key := p.specOf[fmt.Sprint(worker, "/", id)]
				// The view gives the shard's duration; the span is placed
				// to end when the view was read.
				p.shards[key] = append(p.shards[key], span{Name: "fabric.shard", Start: end - int64(v.Snapshot.Elapsed), End: end, Cell: -1})
				p.mu.Unlock()
			}
			h.ServeHTTP(w, r)
		default:
			h.ServeHTTP(w, r)
		}
	})
}

// fabricPass runs warm specs one by one and then specs on the closed
// loop through a probed fleet, checks every merged stream against the
// in-process reference bytes, and returns the fabric spans, the count
// of shard retries and the count of refused submissions.
func fabricPass(cfg config, o *outcome, dir string, warm, specs, refs [][]byte) (spans []span, retries, refused int, err error) {
	p := &fabricProbe{specOf: map[string]string{}, posts: map[string]int{}, shards: map[string][]span{}, epoch: time.Now()}
	f, err := startFleet(filepath.Join(dir, "store"), filepath.Join(dir, "cache"), p)
	if err != nil {
		return nil, 0, 0, err
	}
	defer f.stop()
	cl := fabric.NewClient(f.addr)
	for i, s := range warm {
		o.attempted++
		if r := submitAndRead(cl, nil, i, s); r.err != nil {
			o.wrong(1, "fabric pass warm-up job %d: %v", i, r.err)
		}
	}
	jobs := make([]fleetJob, len(specs))
	for i, s := range specs {
		jobs[i] = fleetJob{spec: s}
	}
	results, _ := closedLoop(cl, jobs, 0, len(jobs))

	// The coordinator deletes a worker job just after its stream ends;
	// wait for those deletes, which carry the shard times.
	want := map[string]int{}
	for _, s := range specs {
		sp, err := sweep.Load(bytes.NewReader(s))
		if err != nil {
			return nil, 0, 0, err
		}
		want[digest(s)] = min(fleetWorkers, len(sp.Cells()))
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		p.mu.Lock()
		done := true
		for k, n := range want {
			done = done && len(p.shards[k]) >= n
		}
		p.mu.Unlock()
		if done || time.Now().After(deadline) {
			break
		}
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	for _, r := range results {
		o.attempted++
		if r.refused {
			refused++
			o.fail(1, "fabric pass job %d refused: %v", r.job, r.err)
			continue
		}
		if r.err != nil || !bytes.Equal(r.out, refs[r.job]) {
			o.wrong(1, "fabric pass job %d: merged stream differs from the in-process run (err %v)", r.job, r.err)
		}
		key := digest(specs[r.job])
		start := int64(r.start.Sub(p.epoch))
		spans = append(spans, span{Name: "fabric.job", Start: start, End: start + int64(r.last), Parent: -1, Cell: -1})
		parent := len(spans) - 1
		spans = append(spans, span{Name: "fabric.submit", Start: start, End: start + int64(r.submit), Parent: parent, Cell: -1})
		for _, s := range p.shards[key] {
			s.Parent = parent
			spans = append(spans, s)
		}
		if len(p.shards[key]) < want[key] {
			o.fail(1, "fabric pass job %d: %d of %d shard views recorded", r.job, len(p.shards[key]), want[key])
		}
		retries += p.posts[key] - want[key]
	}
	return spans, retries, refused, nil
}

// writeSpans writes every span as one JSON line, tagged with its group.
func writeSpans(path string, groups map[string][]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, g := range []string{"workload", "table", "fabric"} {
		for _, s := range groups[g] {
			if err := enc.Encode(struct {
				Group string `json:"group"`
				span
			}{g, s}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
