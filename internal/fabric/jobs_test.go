package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"faultexp/internal/sweep"
)

// slowSpecJSON is a grid whose cells take a while each (thousands of
// BFS trials on a 2304-node torus), so a job submitted with it is still
// running — or still queued behind one — when the test acts on it.
// Every test that submits it cancels it.
const slowSpecJSON = `{
  "families": [{"family": "torus", "size": "48x48"}],
  "measures": ["gamma"],
  "model": "iid-node",
  "rates": [0, 0.02, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4],
  "trials": 3000,
  "seed": 7,
  "workers": 1
}`

// contractDaemon is one daemon the shared job API contract runs
// against: started with MaxActive 1, so a second slow job queues.
type contractDaemon struct {
	name    string
	service string
	shards  bool // job views carry a "shards" list
	// start returns the daemon's base URL and, for the coordinator, its
	// store directory.
	start func(t *testing.T) (base, storeDir string)
}

var contractDaemons = []contractDaemon{
	{name: "serve", service: "faultexp", start: func(t *testing.T) (string, string) {
		mgr := NewServer(context.Background(), Config{MaxActive: 1})
		srv := httptest.NewServer(mgr.Handler())
		t.Cleanup(func() {
			mgr.CancelAll()
			srv.Close()
		})
		return srv.URL, ""
	}},
	{name: "coordinator", service: "faultexp-coordinator", shards: true, start: func(t *testing.T) (string, string) {
		storeDir := t.TempDir()
		_, srv := startCoordinator(t, storeDir, []string{startWorker(t).URL}, func(cfg *CoordinatorConfig) {
			cfg.MaxActive = 1
		})
		return srv.URL, storeDir
	}},
}

func deleteJob(t *testing.T, base, id string) (int, JobView) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	json.NewDecoder(resp.Body).Decode(&v)
	return resp.StatusCode, v
}

// getRaw fetches path and decodes the JSON body into a key→raw map.
func getRaw(t *testing.T, url string) (int, map[string]json.RawMessage) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]json.RawMessage
	json.NewDecoder(resp.Body).Decode(&m)
	return resp.StatusCode, m
}

// TestJobAPIContract runs one contract against both daemons: the same
// routes, JSON keys and status codes, whichever way a job executes.
// The daemon holds a finished job, a running one and a queued one.
func TestJobAPIContract(t *testing.T) {
	ref := refBytes(t, workerSpecJSON)
	for _, d := range contractDaemons {
		t.Run(d.name, func(t *testing.T) {
			base, storeDir := d.start(t)
			finished := submitSpec(t, base, workerSpecJSON)
			if v := waitTerminal(t, base, finished.ID); v.Snapshot.State != sweep.JobDone {
				t.Fatalf("small job ended %s: %s", v.Snapshot.State, v.Snapshot.Err)
			}
			running := submitSpec(t, base, slowSpecJSON)
			for deadline := time.Now().Add(30 * time.Second); getJob(t, base, running.ID).Snapshot.State != sweep.JobRunning; {
				if time.Now().After(deadline) {
					t.Fatal("slow job never started running")
				}
				time.Sleep(5 * time.Millisecond)
			}
			queued := submitSpec(t, base, slowSpecJSON)
			if queued.Snapshot.State != sweep.JobPending {
				t.Fatalf("second slow job is %s, want pending behind MaxActive 1", queued.Snapshot.State)
			}
			durable := func(t *testing.T, id string) {
				if storeDir == "" {
					return
				}
				if _, err := os.Stat(filepath.Join(storeDir, id, "cancelled")); err != nil {
					t.Errorf("DELETE left no durable cancelled marker for %s", id)
				}
			}

			cases := []struct {
				name string
				run  func(t *testing.T)
			}{
				{"list", func(t *testing.T) {
					resp, err := http.Get(base + "/v1/jobs")
					if err != nil {
						t.Fatal(err)
					}
					defer resp.Body.Close()
					var body struct{ Jobs []JobView }
					if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || resp.StatusCode != http.StatusOK {
						t.Fatalf("GET /v1/jobs = %d, %v", resp.StatusCode, err)
					}
					var ids []string
					for _, v := range body.Jobs {
						ids = append(ids, v.ID)
					}
					if want := []string{finished.ID, running.ID, queued.ID}; fmt.Sprint(ids) != fmt.Sprint(want) {
						t.Errorf("jobs listed %v, want submission order %v", ids, want)
					}
				}},
				{"get", func(t *testing.T) {
					code, m := getRaw(t, base+"/v1/jobs/"+finished.ID)
					if code != http.StatusOK {
						t.Fatalf("GET job = %d", code)
					}
					for _, k := range []string{"id", "created", "snapshot"} {
						if _, ok := m[k]; !ok {
							t.Errorf("job view lacks %q", k)
						}
					}
					if _, ok := m["shards"]; ok != d.shards {
						t.Errorf("job view has a shards key: %v, want %v", ok, d.shards)
					}
					if v := getJob(t, base, finished.ID); v.Snapshot.CellsDone != 24 || v.Snapshot.CellsTotal != 24 {
						t.Errorf("finished job cells %d/%d, want 24/24", v.Snapshot.CellsDone, v.Snapshot.CellsTotal)
					}
				}},
				{"404", func(t *testing.T) {
					for _, path := range []string{"/v1/jobs/job-999", "/v1/jobs/job-999/results"} {
						if code, m := getRaw(t, base+path); code != http.StatusNotFound || m["error"] == nil {
							t.Errorf("GET %s = %d %v, want 404 with an error", path, code, m)
						}
					}
					if code, _ := deleteJob(t, base, "job-999"); code != http.StatusNotFound {
						t.Errorf("DELETE unknown job = %d, want 404", code)
					}
				}},
				{"results_from", func(t *testing.T) {
					if got := readResults(t, base, finished.ID); !bytes.Equal(got, ref) {
						t.Error("results differ from the single-node bytes")
					}
					resp, err := http.Get(base + "/v1/jobs/" + finished.ID + "/results?from=10")
					if err != nil {
						t.Fatal(err)
					}
					suffix, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					lines := bytes.SplitAfter(ref, []byte("\n"))
					if want := bytes.Join(lines[10:], nil); !bytes.Equal(suffix, want) {
						t.Error("?from=10 differs from the reference tail")
					}
					if code, _ := getRaw(t, base+"/v1/jobs/"+finished.ID+"/results?from=-1"); code != http.StatusBadRequest {
						t.Errorf("?from=-1 = %d, want 400", code)
					}
				}},
				{"healthz", func(t *testing.T) {
					code, m := getRaw(t, base+"/healthz")
					if code != http.StatusOK {
						t.Fatalf("GET /healthz = %d", code)
					}
					var h Health
					b, _ := json.Marshal(m)
					if err := json.Unmarshal(b, &h); err != nil {
						t.Fatal(err)
					}
					if h.Service != d.service || h.KernelVersion != sweep.KernelVersion || h.MaxActive != 1 || h.HeldJobs != 3 || h.ActiveJobs != 1 {
						t.Errorf("health = %+v", h)
					}
					if _, ok := m["workers"]; ok != d.shards {
						t.Errorf("health has a workers key: %v, want %v", ok, d.shards)
					}
				}},
				{"delete_queued", func(t *testing.T) {
					code, v := deleteJob(t, base, queued.ID)
					if code != http.StatusOK || v.Snapshot.State != sweep.JobCancelled || v.Removed {
						t.Errorf("DELETE queued job = %d %s removed=%v, want 200 cancelled", code, v.Snapshot.State, v.Removed)
					}
					durable(t, queued.ID)
				}},
				{"delete_running", func(t *testing.T) {
					code, v := deleteJob(t, base, running.ID)
					if code != http.StatusOK || v.Removed {
						t.Errorf("DELETE running job = %d removed=%v", code, v.Removed)
					}
					if fin := waitTerminal(t, base, running.ID); fin.Snapshot.State != sweep.JobCancelled {
						t.Errorf("cancelled running job ended %s", fin.Snapshot.State)
					}
					durable(t, running.ID)
				}},
				{"delete_finished", func(t *testing.T) {
					code, v := deleteJob(t, base, finished.ID)
					if code != http.StatusOK || !v.Removed || v.Snapshot.State != sweep.JobDone {
						t.Errorf("DELETE finished job = %d %s removed=%v, want 200 done removed", code, v.Snapshot.State, v.Removed)
					}
					if code, _ := getRaw(t, base+"/v1/jobs/"+finished.ID); code != http.StatusNotFound {
						t.Errorf("removed job still answers %d", code)
					}
					if storeDir != "" {
						if _, err := os.Stat(filepath.Join(storeDir, finished.ID)); !os.IsNotExist(err) {
							t.Error("removed job's directory is still in the store")
						}
					}
				}},
			}
			for _, tc := range cases {
				t.Run(tc.name, tc.run)
			}
		})
	}
}

// TestCoordinatorConcurrentSubmits: simultaneous POSTs each get 201 and
// their own id — the store numbers them one at a time.
func TestCoordinatorConcurrentSubmits(t *testing.T) {
	// No workers: the jobs stay queued, only submission is exercised.
	_, srv := startCoordinator(t, t.TempDir(), nil, nil)
	const n = 8
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(workerSpecJSON))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusCreated {
				t.Errorf("POST %d = %d: %s", i, resp.StatusCode, b)
				return
			}
			var v JobView
			json.Unmarshal(b, &v)
			ids[i] = v.ID
		}(i)
	}
	wg.Wait()
	seen := map[string]bool{}
	for _, id := range ids {
		if id != "" && seen[id] {
			t.Errorf("id %s returned twice", id)
		}
		seen[id] = true
	}
}
