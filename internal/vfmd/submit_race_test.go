package vfmd

import (
	"fmt"
	"sync"
	"testing"
)

// TestSubmitRacesFastWorker is the regression for submit's ordering
// against a worker that finishes first: a no-op job can be dequeued, run
// and finished — jobWG.Done — while submit is still in its critical
// section. If submit counted the job in jobWG only after the send, such a
// worker drove the counter negative and the panic killed the process.
// Several submitters of no-op jobs keep both workers draining the queue
// as fast as it fills.
func TestSubmitRacesFastWorker(t *testing.T) {
	const submitters, perSubmitter = 4, 5000
	f := NewFleetWith(FleetOptions{Workers: 2, QueueCap: submitters * perSubmitter})
	defer f.Close()
	noop := func(*JobCtx) (any, error) { return nil, nil }
	jobs := make([][]*Job, submitters)
	var wg sync.WaitGroup
	for g := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				j, err := f.submit("run", nil, JobLimits{}, fmt.Sprintf("k%d-%d", g, i), noop)
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				jobs[g] = append(jobs[g], j)
			}
		}()
	}
	wg.Wait()
	for _, js := range jobs {
		for _, j := range js {
			if got := j.Wait(); got.State != JobDone {
				t.Fatalf("job %s ended %s: %s", got.ID, got.State, got.Error)
			}
		}
	}
}
