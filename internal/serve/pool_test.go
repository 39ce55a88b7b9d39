package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"
)

// TestJobsPoolStats pins the tentpole's service surface: a second job
// over the same machine shape runs on recycled machines, and /jobs
// reports the pool's hit rate and high-water bytes.
func TestJobsPoolStats(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation")
	}
	s, ts := newTestServer(t, Options{Workers: 1})

	// Two distinct sweep points of one shape: the second job's Standard
	// baseline and DAS machine both check out of the pool.
	for _, body := range []string{
		`{"design": "das", "benchmarks": ["mcf"]}`,
		`{"design": "das", "benchmarks": ["mcf"], "config": {"migration_latency_ns": 200}}`,
	} {
		resp, data := postRun(t, ts, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d (%s)", body, resp.StatusCode, data)
		}
	}

	resp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Pool *poolJSON `json:"pool"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Pool == nil {
		t.Fatal("/jobs has no pool section with pooling enabled")
	}
	if out.Pool.Hits == 0 {
		t.Errorf("second same-shape job never hit the pool: %+v", out.Pool)
	}
	if out.Pool.HitRate <= 0 || out.Pool.HitRate > 1 {
		t.Errorf("hit_rate = %v, want in (0, 1]", out.Pool.HitRate)
	}
	if out.Pool.HighWaterBytes <= 0 {
		t.Errorf("high_water_bytes = %d, want > 0", out.Pool.HighWaterBytes)
	}

	// Shutdown drains the pool's standing memory but keeps lifetime stats.
	ts.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := s.PoolStats()
	if st.Machines != 0 || st.CurrentBytes != 0 {
		t.Errorf("Shutdown left machines pooled: %+v", st)
	}
	if st.Hits == 0 {
		t.Errorf("Shutdown lost lifetime stats: %+v", st)
	}
}
