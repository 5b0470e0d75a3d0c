package server

import (
	"bytes"
	"net/http"
	"sync"
	"testing"

	"adaptmr"
	"adaptmr/internal/block"
)

// shelved returns the pool sets on s's shelf, leaving them there. Call it
// only while no request is in flight.
func shelved(s *Server) [][]*block.Pool {
	var sets [][]*block.Pool
	for len(s.shelf) > 0 {
		sets = append(sets, <-s.shelf)
	}
	for _, set := range sets {
		s.shelf.Put(set)
	}
	return sets
}

// TestWarmServedRunReusesPools pins a worker's warm request pools: on a
// one-worker server, the second of two identical /v1/run requests takes
// every request from the set the first left on the shelf, and its body
// is byte-identical to the first one's, which a cold server answered.
func TestWarmServedRunReusesPools(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1}, nil)
	req := smallRunReq("cc")
	st, _, cold := postJSON(t, ts.URL+"/v1/run", req)
	if st != http.StatusOK {
		t.Fatalf("cold /v1/run = %d: %s", st, cold)
	}
	if want := localRunPayload(t, req); !bytes.Equal(cold, want) {
		t.Fatalf("cold body differs from the facade's:\n cold: %s\n want: %s", cold, want)
	}
	sets := shelved(s)
	if len(sets) != 1 || len(sets[0]) != testCluster.Hosts {
		t.Fatalf("shelf after one run holds %d sets (%v), want one of %d pools", len(sets), sets, testCluster.Hosts)
	}
	before := make([]block.PoolStats, len(sets[0]))
	for i, p := range sets[0] {
		before[i] = p.Stats()
	}
	st, _, warm := postJSON(t, ts.URL+"/v1/run", req)
	if st != http.StatusOK {
		t.Fatalf("warm /v1/run = %d: %s", st, warm)
	}
	for i, p := range sets[0] {
		now := p.Stats()
		if gets, reuses := now.Gets-before[i].Gets, now.Reuses-before[i].Reuses; gets == 0 || reuses != gets {
			t.Errorf("host %d: the warm run got %d requests, %d of them reused; want all reused", i, gets, reuses)
		}
	}
	if !bytes.Equal(warm, cold) {
		t.Errorf("warm body differs from the cold one:\n warm: %s\n cold: %s", warm, cold)
	}
}

// TestAbandonedRunsDropTheirPools soaks a two-worker server with /v1/run
// requests whose tiny deadline aborts them mid-run (504), interleaved
// with normal /v1/run and /v1/autotune requests. Every 200 body equals
// the facade's bytes, and after each wave every set on the shelf has
// every request back: an aborted run's set, whose requests were in
// flight, is never handed on. CI runs it under -race.
func TestAbandonedRunsDropTheirPools(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations")
	}
	s, ts := newTestServer(t, Config{Workers: 2, Parallelism: 1}, nil)
	runs := []RunRequest{smallRunReq("cc"), smallRunReq("ad")}
	wantRuns := make([][]byte, len(runs))
	for i, req := range runs {
		wantRuns[i] = localRunPayload(t, req)
	}
	autotune := AutotuneRequest{Cluster: testCluster, Job: JobSpec{Bench: "sort", InputMB: 64}, Policy: smokePolicySpec()}
	cfg, err := buildCluster(autotune.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	job, err := buildJob(autotune.Job)
	if err != nil {
		t.Fatal(err)
	}
	res, err := adaptmr.RunOnline(cfg, job, adaptmr.WithOnlineControl(adaptmr.SmokeOnlinePolicy()))
	if err != nil {
		t.Fatal(err)
	}
	wantAutotune, err := encodePayload(autotuneResponse(res))
	if err != nil {
		t.Fatal(err)
	}

	for wave := 0; wave < 4; wave++ {
		var wg sync.WaitGroup
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Distinct plans, so the two aborted runs never coalesce.
				aborted := smallRunReq([]string{"cc", "dd"}[c])
				aborted.Job.InputMB = 4096
				aborted.TimeoutMS = 20
				if st, _, body := postJSON(t, ts.URL+"/v1/run", aborted); st != http.StatusGatewayTimeout {
					t.Errorf("wave %d: aborted run answered %d: %s", wave, st, body)
				}
				var st int
				var body, want []byte
				if c == 0 {
					req := runs[wave%len(runs)]
					st, _, body = postJSON(t, ts.URL+"/v1/run", req)
					want = wantRuns[wave%len(runs)]
				} else {
					st, _, body = postJSON(t, ts.URL+"/v1/autotune", autotune)
					want = wantAutotune
				}
				if st != http.StatusOK || !bytes.Equal(body, want) {
					t.Errorf("wave %d client %d: %d %s, want the facade's bytes %s", wave, c, st, body, want)
				}
			}()
		}
		wg.Wait()
		for _, set := range shelved(s) {
			for i, p := range set {
				if st := p.Stats(); st.Puts != st.Gets {
					t.Fatalf("wave %d: a shelved set's pool %d has %d requests out", wave, i, st.Gets-st.Puts)
				}
			}
		}
	}
}
