package main

// The traced replay: a workload's cells re-run through the public
// registry, with a span around every call into a layer. The engine's
// own code is not instrumented; the replay repeats what sweep.Job does
// for a cell (build, setup, trials reseeded by sweep.TrialSeed, block
// fold, render, encode, cache key/get/put) and its records must equal
// the untraced job's byte for byte.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"faultexp/internal/cache"
	"faultexp/internal/graph"
	"faultexp/internal/sweep"
	"faultexp/internal/xrand"
)

// span is one timed call. Spans of one cell share its cell id.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index in the run's span list; -1 for a root
	Cell   int    `json:"cell"`   // -1 outside any cell
}

func (s span) dur() float64 { return float64(s.End - s.Start) }

// tracer records spans in memory; one per goroutine.
type tracer struct {
	epoch time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, cell int) int {
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), Parent: parent, Cell: cell})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = int64(time.Since(t.epoch)) }

// noFaultReplay lists the measures whose trials draw their faults
// without sweep.ApplyFaultsWs (an attack pattern, a Byzantine set, or
// percolation's own union-find pass); their trials get no faults.apply
// replay and their self time is the whole trial.
var noFaultReplay = map[string]bool{"separator": true, "agreement": true, "percolation": true}

// cellLabel names a cell's measure, with "-sampled" for the sampled tier.
func cellLabel(c sweep.Cell) string {
	if c.Precision.Sampled {
		return c.Measure + "-sampled"
	}
	return c.Measure
}

// replayer replays specs on a fixed number of goroutines, each with its
// own tracer, a workspace for its trials and a second one for the
// replayed fault draws.
type replayer struct {
	rc      *cache.Cache // nil: no cache calls
	main    *tracer      // plan and build spans
	tracers []*tracer
	wss     []*graph.Workspace
	drawWss []*graph.Workspace
	labels  []string // cell label by cell id
	hits    int      // cache probes served
	gets    int      // cache probes made
}

func newReplayer(workers int, rc *cache.Cache) *replayer {
	epoch := time.Now()
	rp := &replayer{rc: rc, main: &tracer{epoch: epoch}}
	for w := 0; w < workers; w++ {
		rp.tracers = append(rp.tracers, &tracer{epoch: epoch})
		rp.wss = append(rp.wss, graph.NewWorkspace())
		rp.drawWss = append(rp.drawWss, graph.NewWorkspace())
	}
	return rp
}

// spans merges every tracer's spans into one list, remapping parents.
func (rp *replayer) spans() []span {
	var out []span
	for _, t := range append([]*tracer{rp.main}, rp.tracers...) {
		off := len(out)
		for _, s := range t.spans {
			if s.Parent >= 0 {
				s.Parent += off
			}
			out = append(out, s)
		}
	}
	return out
}

// unitOut is one trial block's recorder, or the error that stopped it.
type unitOut struct {
	rec    *sweep.Recorder
	finish sweep.FinishFunc
	err    error
}

// replaySpec replays one spec in the job's order: plan, cache probe,
// build the graphs of families with a miss, run the missed cells' trial
// blocks on the replayer's goroutines, then fold, finish, encode and
// write back each cell in cell order. It returns the records as the job
// would write them, plus the id of the spec's cell 0.
func (rp *replayer) replaySpec(specJSON []byte) (out []byte, cell0 int, err error) {
	t := rp.main
	p := t.begin("sweep.plan", -1, -1)
	spec, err := sweep.Load(bytes.NewReader(specJSON))
	if err == nil {
		_, err = spec.Plan(sweep.Shard{})
	}
	t.end(p)
	if err != nil {
		return nil, 0, err
	}
	cells := spec.Cells()
	base := len(rp.labels)
	for _, c := range cells {
		rp.labels = append(rp.labels, cellLabel(c))
	}

	lines := make([][]byte, len(cells))
	keys := make([]cache.Key, len(cells))
	if rp.rc != nil {
		var h cache.Hasher
		for i := range cells {
			s := t.begin("cache.key", -1, base+i)
			keys[i] = sweep.CellCacheKey(&h, spec.RateMode, cells[i])
			t.end(s)
			s = t.begin("cache.get", -1, base+i)
			payload, ok := rp.rc.Get(keys[i])
			t.end(s)
			rp.gets++
			if ok {
				if _, ok := sweep.CachedResult(payload, &cells[i]); ok {
					lines[i] = append(payload, '\n')
					rp.hits++
				}
			}
		}
	}

	graphs := map[string]*graph.Graph{}
	type unit struct{ cell, lo, hi int }
	var units []unit
	first := map[int]int{} // cell → index of its first unit
	for i, c := range cells {
		if lines[i] != nil {
			continue
		}
		key := c.Family.String()
		if graphs[key] == nil {
			b := t.begin("gen.build", -1, base+i)
			g, err := buildGraph(spec, c.Family)
			t.end(b)
			if err != nil {
				return nil, 0, err
			}
			graphs[key] = g
		}
		block := c.TrialBlock
		if block <= 0 || block >= c.Trials {
			block = c.Trials
		}
		first[i] = len(units)
		for lo := 0; lo < c.Trials; lo += block {
			units = append(units, unit{i, lo, min(lo+block, c.Trials)})
		}
	}

	outs := make([]unitOut, len(units))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range rp.tracers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				u := int(next.Add(1) - 1)
				if u >= len(units) {
					return
				}
				c := cells[units[u].cell]
				outs[u] = replayUnit(rp.tracers[w], rp.wss[w], rp.drawWss[w], graphs[c.Family.String()], c, units[u].lo, units[u].hi, base+units[u].cell)
			}
		}(w)
	}
	wg.Wait()

	var errs []error
	for i, c := range cells {
		if lines[i] != nil {
			continue
		}
		id := base + i
		var acc *sweep.Recorder
		var finish sweep.FinishFunc
		for u := first[i]; u < len(units) && units[u].cell == i; u++ {
			o := outs[u]
			if o.err != nil {
				errs = append(errs, fmt.Errorf("cell %d: %w", i, o.err))
				continue
			}
			s := t.begin("stats.fold", -1, id)
			if acc == nil {
				acc, finish = o.rec, o.finish
			} else {
				acc.MergeFrom(o.rec)
			}
			t.end(s)
		}
		if acc == nil {
			continue
		}
		line, err := rp.emit(acc, finish, c, graphs[c.Family.String()], keys[i], id)
		if err != nil {
			errs = append(errs, fmt.Errorf("cell %d: %w", i, err))
		}
		lines[i] = line
	}
	return bytes.Join(lines, nil), base, errors.Join(errs...)
}

// replayUnit runs trials [lo, hi) of cell c: setup from the cell seed,
// then each trial reseeded by sweep.TrialSeed, with the trial's fault
// draw replayed after it so its cost can be told apart from the
// kernel's.
func replayUnit(t *tracer, ws, drawWs *graph.Workspace, g *graph.Graph, c sweep.Cell, lo, hi, id int) unitOut {
	root := t.begin("sweep.unit", -1, id)
	defer t.end(root)
	setup, ok := sweep.LookupTrials(c.Measure)
	if !ok {
		return unitOut{err: fmt.Errorf("measure %q is not trial-grained", c.Measure)}
	}
	rec := sweep.NewRecorder()
	s := t.begin("experiments.setup", root, id)
	run, err := setup(g, c, ws, xrand.New(c.Seed), rec)
	t.end(s)
	if err != nil {
		return unitOut{err: fmt.Errorf("setup: %w", err)}
	}
	var rng xrand.RNG
	for tr := lo; tr < hi; tr++ {
		ts := t.begin("sweep.trial", root, id)
		e := t.begin("experiments.trial", ts, id)
		rng.Reseed(sweep.TrialSeed(c.Seed, tr))
		err = run.Trial(tr, ws, &rng, rec)
		t.end(e)
		if err == nil && !noFaultReplay[c.Measure] {
			// On a workspace of its own, so the next trial meets ws as
			// this trial left it and the draw does not reuse the
			// buffers the trial's own draw just filled. The graph's
			// arrays are still warm from the trial: the split is an
			// approximation.
			f := t.begin("faults.apply", ts, id)
			rng.Reseed(sweep.TrialSeed(c.Seed, tr))
			_, _, err = sweep.ApplyFaultsWs(g, c.Model, c.Rate, drawWs, &rng)
			t.end(f)
		}
		t.end(ts)
		if err != nil {
			return unitOut{err: fmt.Errorf("trial %d: %w", tr, err)}
		}
	}
	return unitOut{rec: rec, finish: run.Finish}
}

// emit finishes a cell's folded recorder into its JSONL record and
// writes it back to the cache.
func (rp *replayer) emit(acc *sweep.Recorder, finish sweep.FinishFunc, c sweep.Cell, g *graph.Graph, key cache.Key, id int) ([]byte, error) {
	t := rp.main
	if finish != nil {
		s := t.begin("experiments.finish", -1, id)
		err := finish(acc)
		t.end(s)
		if err != nil {
			return nil, err
		}
	}
	s := t.begin("stats.fold", -1, id)
	metrics, err := acc.Metrics()
	t.end(s)
	if err != nil {
		return nil, err
	}
	s = t.begin("sweep.encode", -1, id)
	res := result(c, g, metrics)
	b, err := json.Marshal(res)
	t.end(s)
	if err != nil {
		return nil, err
	}
	if rp.rc != nil && res.Err == "" {
		s = t.begin("cache.put", -1, id)
		err = rp.rc.Put(key, b)
		t.end(s)
		if err != nil {
			return nil, err
		}
	}
	return append(b, '\n'), nil
}

// result renders a cell's record as the engine does: identity fields,
// then the metrics with non-finite values dropped and named.
func result(c sweep.Cell, g *graph.Graph, metrics map[string]float64) *sweep.Result {
	res := &sweep.Result{
		Family: c.Family.Family, Size: c.Family.Size, N: g.N(), M: g.M(),
		Measure: c.Measure, Model: c.Model, Rate: c.Rate, Trials: c.Trials,
		Seed: c.Seed, TrialBlock: c.TrialBlock,
	}
	if c.Precision.Sampled {
		res.Precision = c.Precision.String()
	}
	var dropped []string
	for k, v := range metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			dropped = append(dropped, k)
			delete(metrics, k)
		}
	}
	if len(dropped) > 0 {
		sort.Strings(dropped)
		res.Nonfinite = strings.Join(dropped, ",")
	}
	if len(metrics) == 0 {
		res.Err = "no finite metrics"
		return res
	}
	res.Metrics = metrics
	return res
}
