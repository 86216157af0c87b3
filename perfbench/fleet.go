package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"govfm/internal/obs"
	"govfm/internal/vfmd"
)

// fleetJobsPerRound is the fixed number of fork+run jobs one fleet serves.
// Every machine vfmd spawns gets a fresh observer with a 64 MiB trace ring,
// and the fleet's job table keeps each one alive after DeleteMachine, so
// a fleet's resident memory grows by ~64 MiB per job and never shrinks.
// The count is fixed rather than the duration so peak RSS measures that
// retention and not host speed: 12 jobs keep the seed run near 1 GiB on
// an 8 GiB host, where 200 jobs in one fleet are killed for lack of
// memory. A run serves as many fresh fleets ("rounds") as its duration
// allows, each to completion and each in a server process of its own.
const fleetJobsPerRound = 12

// fleetClients is the number of closed-loop clients: each sends its next
// job only after the previous one has been deleted.
const fleetClients = 2

// fleetJobSteps bounds a job; the forked tail halts in a few thousand.
const fleetJobSteps = 1 << 24

// fleetSpec is the origin machine: VisionFive 2, one hart, gosbi under
// the monitor with offload and the sandbox policy, warmed up past the
// start of boot before it is snapshotted.
func fleetSpec(seed int64) vfmd.MachineSpec {
	warm := uint64(1000)
	if seed != defaultSeed {
		warm += uint64(seedRand(seed).Intn(401)) - 200
	}
	return vfmd.MachineSpec{
		Profile: "visionfive2", Harts: 1, Firmware: "gosbi",
		Virtualize: true, Offload: true, Policy: "sandbox",
		WarmupSteps: warm,
	}
}

type fleetWorkload struct{}

// call runs one client call inside a span named after it.
func call(rec *recorder, name string, fn func() error) error {
	return rec.do("client."+name, fn)
}

// fleetServerEnv, set in a perfbench process's environment, makes it the
// fleet's vfmd server instead of a benchmark run.
const fleetServerEnv = "PERFBENCH_FLEET_SERVER"

// serverStats is the server process's own view of its memory.
type serverStats struct {
	AllocMiB   float64 `json:"alloc_mib"`    // MiB allocated since start
	PeakRSSMiB float64 `json:"peak_rss_mib"` // VmHWM
}

// serveFleet runs a vfmd server on a loopback port until its standard
// input closes. It prints the server's URL as its first line of output.
// Besides the vfmd API it serves its memory figures and, for traced
// runs, a CPU profile under /perfbench/. wrap, when not nil, wraps the
// vfmd API handler.
func serveFleet(wrap func(http.Handler) http.Handler) int {
	fl := vfmd.NewFleetWith(vfmd.FleetOptions{Workers: 2})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench fleet server:", err)
		return 1
	}
	var prof bytes.Buffer
	mux := http.NewServeMux()
	var api http.Handler = vfmd.NewServer(fl)
	if wrap != nil {
		api = wrap(api)
	}
	mux.Handle("/", api)
	mux.HandleFunc("POST /perfbench/profile/start", func(w http.ResponseWriter, r *http.Request) {
		prof.Reset()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("POST /perfbench/profile/stop", func(w http.ResponseWriter, r *http.Request) {
		pprof.StopCPUProfile()
		w.Write(prof.Bytes())
	})
	mux.HandleFunc("GET /perfbench/stats", func(w http.ResponseWriter, r *http.Request) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		json.NewEncoder(w).Encode(serverStats{float64(ms.TotalAlloc) / (1 << 20), peakRSSMiB()})
	})
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	fmt.Println("http://" + ln.Addr().String())
	io.Copy(io.Discard, os.Stdin)
	srv.Close()
	fl.Close()
	return 0
}

// fleetServer is a running server process.
type fleetServer struct {
	url   string
	cmd   *exec.Cmd
	stdin io.Closer
	done  chan struct{} // closed once the process has exited
	err   error         // its exit status, valid after done
}

// startFleetServer starts this program again as a fleet server. A crash
// of the server ends that process only: the jobs it was serving fail and
// the next round starts a fresh one.
func startFleetServer() (*fleetServer, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), fleetServerEnv+"=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &fleetServer{cmd: cmd, stdin: stdin, done: make(chan struct{})}
	out := bufio.NewReader(stdout)
	line, readErr := out.ReadString('\n')
	go func() {
		io.Copy(io.Discard, out)
		s.err = cmd.Wait()
		close(s.done)
	}()
	if readErr != nil {
		return nil, fmt.Errorf("fleet server did not start: %v (%v)", readErr, s.stop())
	}
	s.url = strings.TrimSpace(line)
	return s, nil
}

// died reports whether the server process has ended or ends within two
// seconds. It is asked after a request failed, when a dying server may
// still be exiting.
func (s *fleetServer) died() bool {
	select {
	case <-s.done:
		return true
	case <-time.After(2 * time.Second):
		return false
	}
}

// stop asks the server to exit, kills it if it has not within ten
// seconds, waits for it and returns its exit status.
func (s *fleetServer) stop() error {
	s.stdin.Close()
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
	return s.err
}

// do sends a request to one of the server's /perfbench/ endpoints and
// returns the response body.
func (s *fleetServer) do(method, path string) ([]byte, error) {
	req, err := http.NewRequest(method, s.url+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(b))
	}
	return b, err
}

func (s *fleetServer) stats() (serverStats, error) {
	var st serverStats
	b, err := s.do("GET", "/perfbench/stats")
	if err == nil {
		err = json.Unmarshal(b, &st)
	}
	return st, err
}

func (fleetWorkload) runBatch(c *batchCtx) (*batchResult, error) {
	rec := c.rec
	jobs := scaled(fleetJobsPerRound, c.scale)
	// The origin's reference run is checked too: one operation more.
	res := &batchResult{ops: jobs + 1}
	var (
		srv    *fleetServer
		cl     *vfmd.Client
		origin *vfmd.MachineInfo
		snap   *vfmd.SnapshotInfo
		ref    *vfmd.MachineInfo
		served atomic.Int64 // jobs finished, failed or not
	)
	defer func() {
		http.DefaultClient.CloseIdleConnections()
		if srv == nil {
			return
		}
		if err := srv.stop(); err != nil && !res.partial && res.failed < res.ops {
			res.fail("fleet server shutdown: " + err.Error())
		}
	}()
	// abort ends the round on err. When the server process has died, the
	// round's unserved jobs count as failed and the run goes on with a
	// fresh server; any other error ends the run.
	abort := func(err error) (*batchResult, error) {
		if srv == nil || !srv.died() {
			return nil, err
		}
		res.partial = true
		if ref == nil {
			res.fail(fmt.Sprintf("fleet server exited (%v) before the origin's reference run", srv.err))
		}
		for i := int(served.Load()); i < jobs; i++ {
			res.fail(fmt.Sprintf("fleet server exited (%v) before job %d of %d was served", srv.err, i+1, jobs))
		}
		return res, nil
	}
	setupStart := time.Now()
	err := rec.do("setup", func() error {
		err := rec.do("setup.server", func() (err error) {
			srv, err = startFleetServer()
			if err == nil {
				cl = vfmd.NewClient(srv.url)
			}
			return err
		})
		if err != nil {
			return err
		}
		err = rec.do("setup.origin", func() error {
			return call(rec, "CreateMachine", func() (err error) {
				origin, err = cl.CreateMachine(fleetSpec(c.seed))
				return err
			})
		})
		if err != nil {
			return err
		}
		err = rec.do("setup.snapshot", func() error {
			return call(rec, "Snapshot", func() (err error) {
				snap, err = cl.Snapshot(origin.ID)
				return err
			})
		})
		if err != nil {
			return err
		}
		// The origin itself runs on to halt: the cold reference every
		// forked job must reproduce, and the instruction count per job.
		return rec.do("setup.reference", func() error {
			var j *vfmd.Job
			if err := call(rec, "Run", func() (err error) {
				j, err = cl.Run(origin.ID, fleetJobSteps)
				return err
			}); err != nil {
				return err
			}
			if err := call(rec, "WaitJob", func() (err error) {
				j, err = cl.WaitJob(j.ID)
				return err
			}); err != nil {
				return err
			}
			return call(rec, "MachineInfo", func() (err error) {
				ref, err = cl.MachineInfo(origin.ID)
				return err
			})
		})
	})
	res.setupS = time.Since(setupStart).Seconds()
	if err != nil {
		return abort(fmt.Errorf("fleet setup: %w", err))
	}
	if !ref.Halted || ref.HaltReason != "guest-exit-pass" {
		return nil, fmt.Errorf("fleet origin ended %v %q, want guest-exit-pass", ref.Halted, ref.HaltReason)
	}
	if msg := c.checkCounts([]hartCount{{ref.Cycles, ref.Instret}}); msg != "" {
		res.fail("origin: " + msg)
	}
	jobInstret := ref.Instret - origin.Instret

	var (
		next    atomic.Int64
		mu      sync.Mutex
		wg      sync.WaitGroup
		recs    = make([]*recorder, fleetClients)
		clients = make([]*vfmd.Client, fleetClients)
		sums    = map[string]float64{}
	)
	for i := range clients {
		clients[i] = vfmd.NewClient(srv.url)
		if rec != nil {
			recs[i] = newRecorder(rec.t0)
		}
	}
	st0, err := srv.stats()
	if err == nil && rec != nil {
		_, err = srv.do("POST", "/perfbench/profile/start")
	}
	if err != nil {
		return abort(err)
	}
	start := time.Now()
	for i := 0; i < fleetClients; i++ {
		wg.Add(1)
		go func(cl *vfmd.Client, rec *recorder) {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= jobs {
					return
				}
				rec.setOp(k)
				t := time.Now()
				counters, failure := fleetJob(cl, rec, snap.ID, c)
				lat := time.Since(t).Seconds() * 1e3
				if failure != "" && srv.died() {
					return // counted with the round's unserved jobs
				}
				served.Add(1)
				mu.Lock()
				res.latMs = append(res.latMs, lat)
				if failure != "" {
					res.fail(failure)
				} else {
					res.instret += jobInstret
				}
				for k, v := range counters {
					sums[k] += v
				}
				mu.Unlock()
			}
		}(clients[i], recs[i])
	}
	wg.Wait()
	res.runS = time.Since(start).Seconds()
	for _, cl := range clients {
		closeIdle(cl)
	}
	c.addRecorders(recs...)
	if rec != nil {
		p, err := srv.do("POST", "/perfbench/profile/stop")
		if err != nil {
			return abort(err)
		}
		c.addProfile(p)
	}
	st1, err := srv.stats()
	if err != nil {
		return abort(err)
	}
	res.allocMiB = st1.AllocMiB - st0.AllocMiB
	res.peakRSSMiB = st1.PeakRSSMiB

	// The control plane's own view: no job failed, and how many finished
	// jobs it still holds (each keeps its machine and trace ring alive).
	retained := 0
	if err := call(rec, "Fleet", func() error {
		st, err := cl.Fleet()
		if err != nil {
			return err
		}
		if n := st.Jobs[string(vfmd.JobFailed)]; n != 0 {
			return fmt.Errorf("%d failed jobs", n)
		}
		for _, n := range st.Jobs {
			retained += n
		}
		return nil
	}); err != nil {
		res.fail("fleet status: " + err.Error())
	}
	closeIdle(cl)
	if rec != nil {
		res.counters = map[string]float64{"vfmd.jobs_retained": float64(retained)}
		for k, v := range sums {
			res.counters[k] = v / float64(jobs)
		}
	}
	return res, nil
}

// closeIdle drops a client's keep-alive connections so no transport
// goroutine outlives the round.
func closeIdle(cl *vfmd.Client) {
	cl.HTTP.CloseIdleConnections()
	cl.WaitHTTP.CloseIdleConnections()
}

// fleetJob is one closed-loop job: spawn a child from the snapshot, run
// it to halt, wait for the job, delete the child. It returns the child's
// simulator counters when traced, and a failure description or "".
func fleetJob(cl *vfmd.Client, rec *recorder, snapID string, c *batchCtx) (map[string]float64, string) {
	var counters map[string]float64
	failure := ""
	_ = rec.do("job", func() error {
		var kids []*vfmd.MachineInfo
		if err := call(rec, "Spawn", func() (err error) {
			kids, err = cl.Spawn(snapID, 1)
			return err
		}); err != nil || len(kids) != 1 {
			failure = fmt.Sprintf("spawn: %v (%d machines)", err, len(kids))
			return nil
		}
		child := kids[0].ID
		defer func() {
			if err := call(rec, "DeleteMachine", func() error { return cl.DeleteMachine(child) }); err != nil && failure == "" {
				failure = "delete: " + err.Error()
			}
		}()
		var j *vfmd.Job
		err := rec.do("vfmd.run", func() error {
			if err := call(rec, "Run", func() (err error) {
				j, err = cl.Run(child, fleetJobSteps)
				return err
			}); err != nil {
				return err
			}
			return call(rec, "WaitJob", func() (err error) {
				j, err = cl.WaitJob(j.ID)
				return err
			})
		})
		if err != nil {
			failure = "run: " + err.Error()
			return nil
		}
		// Result arrives as decoded JSON; a malformed one leaves rr zero,
		// which fails the halt check below.
		var rr vfmd.RunResult
		b, _ := json.Marshal(j.Result)
		_ = json.Unmarshal(b, &rr)
		switch {
		case j.State != vfmd.JobDone:
			failure = fmt.Sprintf("job %s ended %s: %s", j.ID, j.State, j.Error)
		case !rr.Halted || rr.HaltReason != "guest-exit-pass":
			failure = fmt.Sprintf("job %s halted %v %q, want guest-exit-pass", j.ID, rr.Halted, rr.HaltReason)
		default:
			failure = c.checkCycles(rr.Cycles)
		}
		if rec != nil {
			counters = childCounters(cl, rec, child)
		}
		return nil
	})
	return counters, failure
}

// childCounters reads a child machine's simulator and monitor counters
// through the metrics endpoint (traced runs only).
func childCounters(cl *vfmd.Client, rec *recorder, id string) map[string]float64 {
	var raw json.RawMessage
	if err := call(rec, "Metrics", func() (err error) {
		raw, err = cl.Metrics(id)
		return err
	}); err != nil {
		return nil
	}
	var snap obs.Snapshot
	if json.Unmarshal(raw, &snap) != nil {
		return nil
	}
	v := snap.Values
	return map[string]float64{
		"core.world_switches":  float64(v["mon.world_switches"]),
		"core.emulations":      float64(v["mon.emulations"]),
		"core.virt_interrupts": float64(v["mon.virt_interrupts"]),
		"hart.sb.guard_misses": float64(v["sim.sb.guard_misses"]),
		"hart.sb.translations": float64(v["sim.sb.translations"]),
		"hart.sb.aborts":       float64(v["sim.sb.aborts"]),
		"hart.decode.hit_pct":  pct(v["sim.decode.hits"], v["sim.decode.hits"]+v["sim.decode.misses"]),
		"hart.sb.retired_pct":  pct(v["sim.sb.retired"], v["sim.instret"]),
	}
}
