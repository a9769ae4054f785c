package main

// The fleet workload: a fabric.Coordinator and two fabric.Server
// workers in this process, on loopback, sharing one result cache; two
// closed-loop clients submit the seeded job stream.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"faultexp/internal/cache"
	"faultexp/internal/fabric"
	"faultexp/internal/gen"
	"faultexp/internal/sweep"
)

const (
	fleetWorkers = 2
	fleetClients = 2
	// minFleetJobs keeps clients submitting past the time limit until
	// job_p90 has ten samples beyond it.
	minFleetJobs = 110
	// fleetCap bounds a timed phase that cannot reach minFleetJobs.
	fleetCap = 120 * time.Second
	// fleetHistory is how many finished jobs the durable store holds
	// when the fleet sets up — as many as one timed run submits — so
	// set-up includes the coordinator rebuilding them from the store.
	fleetHistory = minFleetJobs
)

type fleet struct {
	cancel  context.CancelFunc
	servers []*http.Server
	wg      sync.WaitGroup
	addr    string // coordinator host:port
}

// startFleet starts the workers with the cache in cacheDir and the
// coordinator with the durable store in storeDir, rebuilding the jobs
// the store holds, and returns once the coordinator reports every
// worker healthy. probe, when non-nil, records the workers' traffic.
func startFleet(storeDir, cacheDir string, probe *fabricProbe) (*fleet, error) {
	ctx, cancel := context.WithCancel(context.Background())
	f := &fleet{cancel: cancel}
	rc, err := cache.Open(cacheDir)
	if err != nil {
		f.stop()
		return nil, err
	}
	var workers []string
	for i := 0; i < fleetWorkers; i++ {
		var h http.Handler = fabric.NewServer(ctx, fabric.Config{Cache: rc}).Handler()
		if probe != nil {
			h = probe.wrap(i, h)
		}
		addr, err := f.serve(h)
		if err != nil {
			f.stop()
			return nil, err
		}
		workers = append(workers, addr)
	}
	st, err := fabric.OpenStore(storeDir)
	if err != nil {
		f.stop()
		return nil, err
	}
	coord, err := fabric.NewCoordinator(ctx, fabric.CoordinatorConfig{Workers: workers, Store: st})
	if err != nil {
		f.stop()
		return nil, err
	}
	if f.addr, err = f.serve(coord.Handler()); err != nil {
		f.stop()
		return nil, err
	}
	if err := f.waitHealthy(); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

func (f *fleet) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	f.servers = append(f.servers, hs)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		hs.Serve(ln) // returns http.ErrServerClosed once stop shuts it down
	}()
	return ln.Addr().String(), nil
}

func (f *fleet) waitHealthy() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		var h fabric.CoordHealth
		resp, err := http.Get("http://" + f.addr + "/healthz")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
		}
		if err == nil && len(h.Workers) == fleetWorkers {
			ready := true
			for _, w := range h.Workers {
				ready = ready && w.Healthy && w.KernelOK
			}
			if ready {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet workers not healthy after 10s (last: %+v, %v)", h.Workers, err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop shuts every server down and waits for their serve loops.
func (f *fleet) stop() {
	f.cancel()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, hs := range f.servers {
		hs.Shutdown(ctx) // a server still busy after 5s is closed below
		hs.Close()
	}
	f.wg.Wait()
	http.DefaultClient.CloseIdleConnections()
}

// fleetResult is one job as its client saw it.
type fleetResult struct {
	job    int
	out    []byte
	submit time.Duration // POST until the job id came back
	first  time.Duration // POST until the first result line
	last   time.Duration // POST until the last result line
	start  time.Time
	err    error
	// refused marks a submission the coordinator turned away; the
	// client then submits the job again.
	refused bool
}

// submitAndRead sends one job to the coordinator and reads its merged
// result stream to the end. When submitMu is non-nil it is held for the
// POST alone, and the job's clock starts once it is held.
//
// Concurrent POSTs to the coordinator can race in fabric.Store.Create:
// both read the same highest job-<n>, and the second rename fails with
// "file exists" (HTTP 500). Until the store serializes Create, the
// closed-loop clients take turns to submit, so a run's failed count
// reflects the fleet's work and not that race; reading results stays
// concurrent.
func submitAndRead(cl *fabric.Client, submitMu *sync.Mutex, i int, spec []byte) fleetResult {
	ctx := context.Background()
	if submitMu != nil {
		submitMu.Lock()
	}
	r := fleetResult{job: i, start: time.Now()}
	id, err := cl.Submit(ctx, spec, sweep.Shard{}, 0)
	r.submit = time.Since(r.start)
	if submitMu != nil {
		submitMu.Unlock()
	}
	if err != nil {
		r.err, r.refused = err, true
		return r
	}
	body, err := cl.Results(ctx, id, 0)
	if err != nil {
		r.err = err
		return r
	}
	defer body.Close()
	var buf bytes.Buffer
	br := bufio.NewReader(body)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			if buf.Len() == 0 {
				r.first = time.Since(r.start)
			}
			buf.Write(line)
			r.last = time.Since(r.start)
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			r.err = err
			break
		}
	}
	r.out = buf.Bytes()
	return r
}

// closedLoop runs jobs[0..] on fleetClients clients, each submitting its
// next job only after the previous one's last line, until the time is
// up and at least minJobs jobs have been submitted.
func closedLoop(cl *fabric.Client, jobs []fleetJob, seconds float64, minJobs int) ([]fleetResult, time.Duration) {
	var next atomic.Int64
	var mu, submitMu sync.Mutex
	var results []fleetResult
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < fleetClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				el := time.Since(start)
				if (el.Seconds() >= seconds && int(next.Load()) >= minJobs) || el > fleetCap {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				for attempt := 0; attempt < 3; attempt++ {
					r := submitAndRead(cl, &submitMu, i, jobs[i].spec)
					mu.Lock()
					results = append(results, r)
					mu.Unlock()
					if !r.refused {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	return results, time.Since(start)
}

// checkFleetJob applies the correctness gate to one fleet job's merged
// stream.
func checkFleetJob(r fleetResult, j fleetJob) error {
	if r.err != nil {
		return r.err
	}
	spec, err := sweep.Load(bytes.NewReader(j.spec))
	if err != nil {
		return err
	}
	return checkOutput(r.out, spec.Cells())
}

// seedHistory gives each store in storeDirs fleetHistory finished
// jobs. It runs the warm-up jobs through a fleet of its own on the first
// store, with a cache the timed fleet does not see, then registers
// further jobs in every store with fabric.Store.Create and gives each a
// copy of a warm-up job's shard files.
func seedHistory(o *outcome, cacheDir string, warm []fleetJob, storeDirs ...string) error {
	f, err := startFleet(storeDirs[0], cacheDir, nil)
	if err != nil {
		return err
	}
	cl := fabric.NewClient(f.addr)
	for i, j := range warm {
		o.attempted++
		if err := checkFleetJob(submitAndRead(cl, nil, i, j.spec), j); err != nil {
			o.wrong(1, "history job %d: %v", i, err)
		}
	}
	f.stop()
	first, err := fabric.OpenStore(storeDirs[0])
	if err != nil {
		return err
	}
	stored, err := first.Jobs()
	if err != nil {
		return err
	}
	if len(stored) == 0 {
		return fmt.Errorf("history: the store holds no job")
	}
	for i, sd := range storeDirs {
		st, err := fabric.OpenStore(sd)
		if err != nil {
			return err
		}
		k := 0
		if i == 0 {
			k = len(stored)
		}
		for ; k < fleetHistory; k++ {
			src := stored[k%len(stored)]
			sj, err := st.Create(src.Spec, src.SpecJSON, src.Shards)
			if err != nil {
				return err
			}
			for s := 0; s < src.Shards; s++ {
				b, err := os.ReadFile(src.ShardPath(s))
				if err != nil {
					return err
				}
				if err := os.WriteFile(sj.ShardPath(s), b, 0o666); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func timedFleet(cfg config, o *outcome) error {
	// The stream is long enough for any run: a job takes well over
	// fleetCap/maxJobs of a client's time.
	warm, jobs := fleetStream(cfg.seed, 4000)
	dir, err := os.MkdirTemp(cfg.workdir, "fleet-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Set-ups reopen the history store, whose jobs are all finished and
	// which no fleet writes to, each with a fresh cache: half of them
	// before the timed phase and half after it. The timed fleet runs on
	// a store seeded with the same history.
	historyDir, timedDir := filepath.Join(dir, "history"), filepath.Join(dir, "store")
	if err := seedHistory(o, filepath.Join(dir, "history-cache"), warm, historyDir, timedDir); err != nil {
		return fmt.Errorf("history: %w", err)
	}
	var sf *fleet
	reps := 0
	setups := setupSampler{setup: func() (time.Duration, error) {
		if sf != nil {
			sf.stop()
		}
		reps++
		t0 := time.Now()
		var err error
		sf, err = startFleet(historyDir, filepath.Join(dir, fmt.Sprint("cache-", reps)), nil)
		return time.Since(t0), err
	}}
	sampleSetups := func() error {
		err := setups.sample(time.Duration(setupShare * cfg.seconds * float64(time.Second)))
		if sf != nil {
			sf.stop()
			sf = nil
		}
		return err
	}
	if err := sampleSetups(); err != nil {
		return err
	}

	f, err := startFleet(timedDir, filepath.Join(dir, "cache"), nil)
	if err != nil {
		return err
	}
	defer func() {
		if f != nil {
			f.stop()
		}
	}()
	cl := fabric.NewClient(f.addr)
	for i, j := range warm {
		o.attempted++
		if err := checkFleetJob(submitAndRead(cl, nil, i, j.spec), j); err != nil {
			o.wrong(1, "warm-up job %d: %v", i, err)
		}
	}

	results, window := closedLoop(cl, jobs, cfg.seconds, minFleetJobs)
	f.stop()
	f = nil
	if err := sampleSetups(); err != nil {
		return err
	}
	byJob := make([]*fleetResult, len(jobs))
	var lat, firsts []float64
	trials := 0
	done := 0
	for i := range results {
		r := &results[i]
		o.attempted++
		if r.refused {
			o.fail(1, "job %d refused: %v", r.job, r.err)
			continue
		}
		byJob[r.job] = r
		done++
		if err := checkFleetJob(*r, jobs[r.job]); err != nil {
			o.wrong(1, "job %d: %v", r.job, err)
			continue
		}
		lat = append(lat, r.last.Seconds()*1e3)
		firsts = append(firsts, r.first.Seconds()*1e3)
		trials += jobs[r.job].cells * jobs[r.job].trials
	}
	if done < minFleetJobs {
		o.fail(minFleetJobs-done, "only %d jobs completed in %v", done, window)
	}

	// The stream's first minFleetJobs jobs are the same on every run of
	// a seed: their digest pins the fleet's bytes across runs, and a
	// sample of them must equal an in-process run of the same spec.
	var all bytes.Buffer
	for i := 0; i < minFleetJobs && i < len(byJob); i++ {
		if byJob[i] != nil {
			all.Write(byJob[i].out)
		}
	}
	for _, i := range []int{0, minFleetJobs / 2, minFleetJobs - 1} {
		o.attempted++
		ref, err := runJob(jobs[i].spec, cfg.workers, nil)
		if err != nil || byJob[i] == nil || !bytes.Equal(ref.out, byJob[i].out) {
			o.wrong(1, "fleet job %d differs from the in-process run of its spec (err %v)", i, err)
		}
	}
	p90, ok := tailPercentile(lat, 0.9)
	fmt.Printf("# fleet seed=%d setups=%d jobs=%d window_s=%.3f job_p90_ms=%.3f (ok=%v, n=%d) first_%d_jobs_sha256=%s\n",
		cfg.seed, len(setups.times), done, window.Seconds(), p90, ok, len(lat), minFleetJobs, digest(all.Bytes()))

	o.values["setup_s"] = median(setups.times)
	o.values["trials_per_s"] = float64(trials) / window.Seconds()
	o.values["first_record_ms"] = median(firsts)
	o.values["job_p50_ms"] = median(lat)
	var largest int64
	for _, fam := range fleetGroups {
		if n, m, err := gen.EstimateFamily(fam.Family, fam.Size, fam.K); err == nil {
			largest = max(largest, csrBytes(n, m))
		}
	}
	checkPeakRSS(cfg, o, statusKB("VmHWM"), largest)
	return nil
}
