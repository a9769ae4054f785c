package sweep

// This file is the execution substrate: the measure registry (cell
// functions are registered by internal/experiments, or by tests), the
// shared fault-injection helper, and the per-cell execution kernel
// (runCell). The run loop itself — expand, execute on a bounded pool,
// stream in cell order — lives on the Job type (job.go).

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"faultexp/internal/faults"
	"faultexp/internal/graph"
	"faultexp/internal/xrand"
)

// CellFunc runs one grid cell's measurement on graph g (the fault-free
// family instance) and returns named metrics. It must derive all
// randomness from rng and must not retain g. ws is the executing
// worker's private scratch workspace: trial loops should route fault
// injection and subgraph work through it (ApplyFaultsWs, the graph
// *Into methods) so the steady-state path does not allocate. Nothing
// built in ws may be referenced after the function returns.
type CellFunc func(g *graph.Graph, c Cell, ws *graph.Workspace, rng *xrand.RNG) (map[string]float64, error)

var (
	regMu    sync.Mutex
	registry = map[string]CellFunc{}
)

// Register adds a measure to the global registry; duplicate names panic
// (a wiring bug, mirroring harness.Registry).
func Register(name string, fn CellFunc) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic("sweep: duplicate measure " + name)
	}
	registry[name] = fn
}

// Lookup returns the registered cell function for a measure name.
func Lookup(name string) (CellFunc, bool) {
	regMu.Lock()
	defer regMu.Unlock()
	fn, ok := registry[name]
	return fn, ok
}

// Measures returns the registered measure names, sorted.
func Measures() []string {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ApplyFaultsWs injects one fault pattern of the given model at the
// given rate into ws-owned buffers and returns the surviving subgraph
// (with provenance) and the number of failed elements. For
// ModelAdversarial the rate is the node budget as a fraction of n. The
// returned Sub lives in workspace memory — any later build on ws may
// clobber it, and it must not outlive the enclosing CellFunc.
func ApplyFaultsWs(g *graph.Graph, model string, rate float64, ws *graph.Workspace, rng *xrand.RNG) (*graph.Sub, int, error) {
	m, ok := faults.ModelByName(model)
	if !ok {
		return nil, 0, fmt.Errorf("sweep: unknown fault model %q", model)
	}
	sub, failed := m.Inject(g, rate, ws, rng)
	return sub, failed, nil
}

// ApplyFaults is ApplyFaultsWs on a throwaway workspace, for callers
// outside a trial loop; the result is uniquely owned.
func ApplyFaults(g *graph.Graph, model string, rate float64, rng *xrand.RNG) (*graph.Sub, int, error) {
	return ApplyFaultsWs(g, model, rate, graph.NewWorkspace(), rng)
}

// Result is one streamed output record: the cell's coordinates plus its
// measured metrics. Field order (and sorted metric keys) make the JSON
// encoding byte-stable.
type Result struct {
	Family  string  `json:"family"`
	Size    string  `json:"size"`
	N       int     `json:"n"`
	M       int     `json:"m"`
	Measure string  `json:"measure"`
	Model   string  `json:"model"`
	Rate    float64 `json:"rate"`
	Trials  int     `json:"trials"`
	Seed    uint64  `json:"seed"`
	// Precision is the measurement tier ("sampled:k"); empty (omitted)
	// for exact cells, so historical output is byte-identical.
	Precision string `json:"precision,omitempty"`
	// TrialBlock records the trial-parallel block partition that
	// produced this record (0/omitted = the serial trial fold, so
	// historical output is byte-identical). Part of the resume
	// contract: serial and trial-parallel records never splice into
	// one stream, since their _mean/_std bytes can differ in the last
	// ulp.
	TrialBlock int                `json:"trial_block,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
	// Nonfinite lists (comma-joined, sorted) the metric keys whose
	// values were NaN/±Inf and therefore dropped from Metrics — a
	// half-broken measure is visibly different from a clean one.
	Nonfinite string `json:"nonfinite,omitempty"`
	Err       string `json:"err,omitempty"`
}

// MetricNames returns the result's metric keys, sorted — the iteration
// order every writer uses.
func (r *Result) MetricNames() []string {
	out := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Summary is the aggregate outcome of a grid run.
type Summary struct {
	Cells  int // cells executed
	Errors int // cells whose Result carries an Err
}

// runCell executes one cell on the worker's workspace, converting panics
// and errors into the result's Err field so a single pathological cell
// cannot kill a grid.
func runCell(g *graph.Graph, c Cell, ws *graph.Workspace) (res *Result) {
	res = &Result{
		Family:     c.Family.Family,
		Size:       c.Family.Size,
		N:          g.N(),
		M:          g.M(),
		Measure:    c.Measure,
		Model:      c.Model,
		Rate:       c.Rate,
		Trials:     c.Trials,
		Seed:       c.Seed,
		TrialBlock: c.TrialBlock,
	}
	if c.Precision.Sampled {
		res.Precision = c.Precision.String()
	}
	defer func() {
		if p := recover(); p != nil {
			res.Metrics = nil
			res.Err = fmt.Sprintf("panic: %v", p)
		}
	}()
	fn, ok := Lookup(c.Measure)
	if !ok {
		res.Err = fmt.Sprintf("unknown measure %q", c.Measure)
		return res
	}
	metrics, err := fn(g, c, ws, xrand.New(c.Seed))
	if err != nil {
		res.Err = err.Error()
		return res
	}
	finishResult(res, metrics)
	return res
}

// finishResult installs a metric map on a result, shared by the
// independent (runCell) and coupled (runCoupledGroup) paths. Non-finite
// values cannot ride in JSON, so they are dropped from Metrics — but
// their *names* are recorded in Nonfinite, so a cell where one measure
// overflowed is distinguishable from a clean one. A result with no
// finite metrics gets an Err instead, keeping the cell visible in every
// output format (a long-format CSV row only exists per metric or per
// error).
func finishResult(res *Result, metrics map[string]float64) {
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
		return
	}
	res.Metrics = metrics
}
