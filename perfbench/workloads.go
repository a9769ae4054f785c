package main

// Workload generators. Every input is a pure function of the --seed
// argument; the engine sees only the generated spec JSON.

import (
	"encoding/json"
	"math"
	"math/rand/v2"

	"faultexp/internal/sweep"
)

// inprocSpecs returns the first n spec JSONs of an in-process
// workload's job sequence; ok is false for the fleet workload, which
// runs a job stream instead. The specs differ only in the grid seed,
// which the seed picks, so every fault draw (and every randomized
// graph) differs between seeds and between jobs while the work per job
// stays level. Every job gets its own grid seed because some figures
// depend on it in ways no single grid seed shows: wide's peak memory
// moved between 180 and 285 MB from one grid seed to the next, and
// repeated itself job after job under any one of them.
func inprocSpecs(name string, seed uint64, n int) (specs [][]byte, ok bool) {
	var s sweep.Spec
	switch name {
	case "curves":
		s = sweep.Spec{
			Families: []sweep.FamilySpec{
				{Family: "torus", Size: "64x64"},
				{Family: "hypercube", Size: "12"},
				{Family: "expander", Size: "64"},
				{Family: "butterfly", Size: "9"},
				{Family: "smallworld", Size: "4096x4"},
			},
			Measures: []string{"gamma", "shatter", "percolation"},
			Models:   []string{sweep.ModelIIDNode, sweep.ModelIIDEdge},
			Rates:    []float64{0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5},
			Trials:   16,
		}
	case "kernels":
		s = sweep.Spec{
			Families: []sweep.FamilySpec{
				{Family: "torus", Size: "32x32"},
				{Family: "butterfly", Size: "7"},
			},
			Measures: []string{"prune", "lambda2", "diameter"},
			Models:   []string{sweep.ModelIIDNode, sweep.ModelAdversarial},
			Rates:    []float64{0.03},
			Trials:   8,
		}
	case "wide":
		s = sweep.Spec{
			Families:      []sweep.FamilySpec{{Family: "torus", Size: "1024x1024"}},
			Measures:      []string{"diameter", "gamma"},
			Models:        []string{sweep.ModelIIDNode},
			Rates:         []float64{0.05},
			Trials:        4,
			Precision:     "sampled:4",
			TrialParallel: true,
			TrialBlock:    2,
		}
	default:
		return nil, false
	}
	r := rand.New(rand.NewPCG(seed, 0x6265))
	for range n {
		s.Seed = r.Uint64()
		specs = append(specs, mustJSON(&s))
	}
	return specs, true
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs are marshalled
	}
	return b
}

// fleetJob is one job of the fleet's stream.
type fleetJob struct {
	spec []byte
	// designedHits is how many of the job's cells repeat an earlier
	// job's cells, so a warm cache serves them.
	designedHits int
	cells        int
	trials       int
}

// The fleet's curves: each group is one (family, measures, model)
// curve that successive jobs refine.
var fleetGroups = []sweep.FamilySpec{
	{Family: "torus", Size: "64x64"},
	{Family: "hypercube", Size: "12"},
}

const (
	fleetTrials   = 32
	fleetOldRates = 4 // rates repeated from an earlier job of the group
	fleetNewRates = 4 // rates no earlier job used
	// fleetLag keeps a job's repeated rates to jobs at least this many
	// positions back in its group's sequence, so with two closed-loop
	// clients those jobs have finished (and filled the cache) before
	// the job that repeats them is submitted.
	fleetLag = 2
)

var fleetMeasures = []string{"gamma", "percolation"}

// fleetStream returns the fleet's warm-up jobs (one per group, all
// rates new: they fill the cache before timing starts) and the first n
// jobs of its timed stream. Job i belongs to group i mod len(groups).
// Its rate list is [old old new new old old new new]: the coordinator
// splits cells round-robin in two, so each shard gets the same mix of
// cache hits and misses and job latency stays unimodal.
func fleetStream(seed uint64, n int) (warm, jobs []fleetJob) {
	r := rand.New(rand.NewPCG(seed, 0x666c))
	gridSeed := r.Uint64()
	used := map[float64]bool{}
	newRate := func() float64 {
		for {
			v := math.Round((0.01+0.44*r.Float64())*1e5) / 1e5
			if !used[v] {
				used[v] = true
				return v
			}
		}
	}
	// history[g] holds the rate lists of group g's jobs, oldest first.
	history := make([][][]float64, len(fleetGroups))
	mk := func(g int, rates []float64, hits int) fleetJob {
		s := sweep.Spec{
			Families: []sweep.FamilySpec{fleetGroups[g]},
			Measures: fleetMeasures,
			Models:   []string{sweep.ModelIIDNode},
			Rates:    rates,
			Trials:   fleetTrials,
			Seed:     gridSeed,
			Workers:  1,
		}
		history[g] = append(history[g], rates)
		per := len(fleetMeasures)
		return fleetJob{spec: mustJSON(&s), designedHits: hits * per, cells: len(rates) * per, trials: fleetTrials}
	}
	for g := range fleetGroups {
		rates := make([]float64, fleetOldRates+fleetNewRates)
		for i := range rates {
			rates[i] = newRate()
		}
		warm = append(warm, mk(g, rates, 0))
	}
	for i := 0; i < n; i++ {
		g := i % len(fleetGroups)
		// Jobs eligible to be repeated: the warm-up plus every group
		// job at least fleetLag positions back.
		hist := history[g]
		eligible := len(hist) - fleetLag + 1
		if eligible < 1 {
			eligible = 1
		}
		var pool []float64
		seen := map[float64]bool{}
		for _, rates := range hist[:eligible] {
			for _, v := range rates {
				if !seen[v] {
					seen[v] = true
					pool = append(pool, v)
				}
			}
		}
		r.Shuffle(len(pool), func(a, b int) { pool[a], pool[b] = pool[b], pool[a] })
		old := pool[:fleetOldRates]
		rates := []float64{old[0], old[1], newRate(), newRate(), old[2], old[3], newRate(), newRate()}
		jobs = append(jobs, mk(g, rates, fleetOldRates))
	}
	return warm, jobs
}
