package main

// The benchmark's catalog: its workloads, the end-to-end metrics a user
// sees, and the per-layer metrics of the traced run, each with the
// end-to-end metric and workload it is expected to move. BENCHMARK.json
// at the repository root mirrors this catalog (TestBenchmarkJSONMatchesCatalog
// keeps the two in step); `-describe` prints it with the targets and the
// held-out seed, which BENCHMARK.json has no field for.

// heldOutSeed is never used while tuning the benchmark or a change; a
// performance claim is re-checked on it before it is accepted.
const heldOutSeed = 20041027

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"curves", "the paper's section 3 random-fault curves: each trial is a fault draw plus one components or union-find pass, so faults, graph, ufind and engine per-cell work dominate"},
	{"kernels", "prune, lambda2 and exact diameter on 1k-vertex graphs under iid and adversarial faults: the kernels dominate, engine cost is negligible"},
	{"wide", "sampled:4 diameter and gamma on a 2^20-vertex torus, trial-parallel: large graph build, bitset frontier BFS and the block fold"},
	{"fleet", "coordinator and two workers on loopback sharing one result cache, two closed-loop clients refining curves: HTTP, durable store, shard merge and cache hits"},
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Target names the end-to-end metric and workload a per-layer
	// metric is expected to move.
	Target string `json:"target,omitempty"`
}

var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "trials_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "first_record_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "job_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

// tableMeasures lists every trial-grained measure (sweep.TrialMeasures,
// checked by TestTableCoversTrialMeasures) plus the two sampled-tier
// kernels the wide workload runs. Each gets trial time, setup time and
// allocations per trial.
var tableMeasures = []string{
	"agreement", "conjecture", "counting", "diameter", "dilation", "gamma",
	"lambda2", "loadbalance", "multibutterfly", "percolation", "predictor",
	"prune", "prune2", "residual", "routing", "separator", "shatter", "span",
	"upfal", "diameter-sampled", "gamma-sampled",
}

// measureTarget is the end-to-end metric a measure's trial and setup
// time should move: the workload that runs the measure, or none.
func measureTarget(label string) string {
	switch label {
	case "gamma", "shatter", "percolation":
		return "trials_per_s on curves"
	case "prune", "lambda2", "diameter":
		return "trials_per_s and first_record_ms on kernels"
	case "diameter-sampled", "gamma-sampled":
		return "trials_per_s on wide"
	}
	return "none: measured only in the per-measure table"
}

func perLayerMetrics() []metricDef {
	out := []metricDef{
		{Name: "sweep.plan_ms", Unit: "ms", Better: "lower", Target: "setup_s: most on wide, little on curves"},
		{Name: "gen.build_ms", Unit: "ms", Better: "lower", Target: "setup_s: most on wide, little on curves"},
		{Name: "faults.apply_us_per_trial", Unit: "us", Better: "lower", Target: "trials_per_s on curves; little on kernels"},
	}
	for _, m := range tableMeasures {
		out = append(out, metricDef{Name: "experiments.trial_us." + m, Unit: "us", Better: "lower", Target: measureTarget(m)})
	}
	for _, m := range tableMeasures {
		out = append(out, metricDef{Name: "experiments.setup_ms." + m, Unit: "ms", Better: "lower", Target: measureTarget(m)})
	}
	for _, m := range tableMeasures {
		out = append(out, metricDef{Name: "experiments.allocs_per_trial." + m, Unit: "count", Better: "lower", Target: "a count, not a speed: " + measureTarget(m)})
	}
	return append(out,
		metricDef{Name: "stats.fold_us_per_cell", Unit: "us", Better: "lower", Target: "trials_per_s on curves and wide"},
		metricDef{Name: "sweep.encode_us_per_record", Unit: "us", Better: "lower", Target: "trials_per_s on curves"},
		metricDef{Name: "sweep.engine_overhead_frac", Unit: "frac", Better: "lower", Target: "trials_per_s on curves; about 0 on kernels"},
		metricDef{Name: "sweep.first_record_wait_ms", Unit: "ms", Better: "lower", Target: "first_record_ms on curves and kernels"},
		metricDef{Name: "cache.hit_frac", Unit: "frac", Better: "higher", Target: "job_p50_ms on fleet"},
		metricDef{Name: "cache.hit_frac_designed", Unit: "frac", Better: "higher", Target: "the share cache.hit_frac is designed to reach"},
		metricDef{Name: "cache.key_ns", Unit: "ns", Better: "lower", Target: "job_p50_ms on fleet"},
		metricDef{Name: "cache.get_us", Unit: "us", Better: "lower", Target: "job_p50_ms on fleet"},
		metricDef{Name: "cache.put_us", Unit: "us", Better: "lower", Target: "job_p50_ms on fleet"},
		metricDef{Name: "fabric.submit_ms", Unit: "ms", Better: "lower", Target: "job_p50_ms on fleet"},
		metricDef{Name: "fabric.shard_ms", Unit: "ms", Better: "lower", Target: "job_p50_ms on fleet"},
		metricDef{Name: "fabric.overhead_ms", Unit: "ms", Better: "lower", Target: "job_p50_ms on fleet"},
		metricDef{Name: "fabric.retries", Unit: "count", Better: "lower", Target: "job_p50_ms on fleet"},
		metricDef{Name: "fabric.refused", Unit: "count", Better: "lower", Target: "failed operations on fleet"},
		metricDef{Name: "trace.overhead_frac", Unit: "frac", Better: "lower", Target: "none: the cost of tracing itself"},
	)
}
