package main

// The daemon side: anond runs as a child process on a loopback port, and
// the harness drives it with at most two HTTP connections.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"anonmix/internal/anond"
	"anonmix/internal/scenario"
)

// conns is the number of client connections, one per core of the
// two-core machine the benchmark was sized on.
const conns = 2

// daemon is a running anond child process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan struct{} // closed once the process has been waited for
	err    error         // the exit status, valid after exited closes

	mu   sync.Mutex
	logs []string // the daemon's last stderr lines, for failure reports
}

// startDaemon execs anond on an ephemeral loopback port and returns once
// it answers /v1/health.
func startDaemon(path string) (*daemon, error) {
	cmd := exec.Command(path, "-addr", "127.0.0.1:0")
	// The daemon dies with the harness even if the harness is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start anond: %w", err)
	}
	d := &daemon{
		cmd:    cmd,
		exited: make(chan struct{}),
		client: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
			Timeout:   time.Minute,
		},
	}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if _, a, ok := strings.Cut(line, "listening on "); ok {
				select {
				case addr <- a:
				default:
				}
			}
			d.mu.Lock()
			d.logs = append(d.logs[max(0, len(d.logs)-20):], line)
			d.mu.Unlock()
		}
		d.err = cmd.Wait()
		close(d.exited)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.exited:
		return nil, fmt.Errorf("anond exited before listening: %v: %s", d.err, d.lastLogs())
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, errors.New("anond did not report its address within 30 s")
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := d.client.Get(d.base + "/v1/health")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("anond not healthy within 30 s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (d *daemon) lastLogs() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.logs, "\n")
}

// kill ends the daemon without a drain, if it still runs, and waits for
// it. It is safe after stop.
func (d *daemon) kill() {
	select {
	case <-d.exited:
	default:
		_ = d.cmd.Process.Kill() // it exited meanwhile if this fails
		<-d.exited
	}
}

// stop sends SIGTERM and waits for the drain: the daemon must exit 0.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return fmt.Errorf("signal anond: %w", err)
	}
	select {
	case <-d.exited:
		if d.err != nil {
			return fmt.Errorf("anond did not drain cleanly: %v: %s", d.err, d.lastLogs())
		}
		return nil
	case <-time.After(60 * time.Second):
		d.kill()
		return errors.New("anond did not exit within 60 s of SIGTERM")
	}
}

// vmHWM reads a process's peak resident set size, in MB, from /proc.
func vmHWM(pid int) (float64, error) { return procStatusMB(pid, "VmHWM") }

// cpuTimes is the machine's busy and stolen CPU time, in clock ticks.
type cpuTimes struct{ busy, steal int64 }

// readCPUTimes reads the machine's CPU times from /proc/stat. Stolen time
// is time a virtual CPU wanted to run and the hypervisor ran another
// guest; it stays 0 on bare metal.
func readCPUTimes() (cpuTimes, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var v [9]int64
	for i := 1; i < 9; i++ {
		if v[i], err = strconv.ParseInt(f[i], 10, 64); err != nil {
			return cpuTimes{}, fmt.Errorf("/proc/stat: %w", err)
		}
	}
	return cpuTimes{busy: v[1] + v[2] + v[3] + v[6] + v[7], steal: v[8]}, nil
}

// stealShare is the share of the CPU time the machine wanted between two
// readings that the hypervisor gave to other guests.
func stealShare(a, b cpuTimes) float64 {
	return ratio(float64(b.steal-a.steal), float64(b.busy-a.busy+b.steal-a.steal))
}

// procStatusMB reads a memory field of a process's /proc status in MB.
func procStatusMB(pid int, field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// rssEvery is the resident-set sampling interval.
const rssEvery = 50 * time.Millisecond

// rssSampler reads a process's resident set size every rssEvery until
// stopped.
type rssSampler struct {
	stop, done chan struct{}
	samples    []float64
	err        error
}

func sampleRSS(pid int) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			mb, err := procStatusMB(pid, "VmRSS")
			if err != nil {
				s.err = err
				return
			}
			s.samples = append(s.samples, mb)
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// median stops the sampler and returns its median sample in MB: the
// memory the process holds most of the time, which brief spikes of one
// large operation do not move.
func (s *rssSampler) median() (float64, error) {
	close(s.stop)
	<-s.done
	return median(s.samples), s.err
}

// metrics fetches /v1/metrics.
func (d *daemon) metrics() (anond.MetricsResponse, error) {
	var m anond.MetricsResponse
	resp, err := d.client.Get(d.base + "/v1/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// endpoint names the daemon endpoint that serves an operation.
func endpoint(op Op) string {
	switch {
	case op.Optimize != nil:
		return "optimize"
	case op.Scenario.Rounds > 1 || op.Scenario.Confidence > 0 || strings.Contains(op.Scenario.Timeline, "rounds="):
		return "degradation"
	default:
		return "scenario"
	}
}

// reply is the outcome of one request.
type reply struct {
	start, end time.Time
	latency    time.Duration
	backend    time.Duration // the elapsed time the daemon reports
	resp       anond.ScenarioResponse
	err        error
}

// call sends one operation and decodes the answer.
func (d *daemon) call(op Op) (r reply) {
	var body any = op.Scenario
	if op.Optimize != nil {
		body = op.Optimize
	}
	buf, err := json.Marshal(body)
	if err != nil {
		return reply{err: err}
	}
	r = reply{start: time.Now()}
	defer func() {
		r.end = time.Now()
		r.latency = r.end.Sub(r.start)
	}()
	resp, err := d.client.Post(d.base+"/v1/"+endpoint(op), "application/json", bytes.NewReader(buf))
	if err != nil {
		r.err = err
		return r
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && op.Scenario != nil {
		r.err = json.NewDecoder(resp.Body).Decode(&r.resp)
		r.backend = time.Duration(r.resp.ElapsedMS * float64(time.Millisecond))
		return r
	}
	b, _ := io.ReadAll(resp.Body) // the status already marks the failure
	if resp.StatusCode != http.StatusOK {
		r.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return r
}

// serveChecker verifies daemon answers: exact answers equal to an
// in-process scenario.Run, sampled ones within the σ band of the exact
// backend, and every answer within the result invariants.
//
// Hot-set answers must be bit-identical: the references are computed in a
// cold process in the order the daemon's warm-up sends the hot set, so
// both sides derive every engine from the same resident ones. Other exact
// answers may come from engines the two processes derived from different
// resident engines, which the engine guarantees to 1e-12, not to the bit.
type serveChecker struct {
	mu        sync.Mutex
	refs      map[*anond.ScenarioRequest]scenario.Result // hot-set references
	deferred  []deferredExact
	estimates []estimate
	failures  []string
}

// deferredExact is an exact answer whose in-process reference is computed
// after the timed phase.
type deferredExact struct {
	req  *anond.ScenarioRequest
	resp anond.ScenarioResponse
}

// newServeChecker computes the in-process references of the hot set.
func newServeChecker(hot []anond.ScenarioRequest) (*serveChecker, error) {
	c := &serveChecker{refs: map[*anond.ScenarioRequest]scenario.Result{}}
	for k := range hot {
		res, err := runInProcess(&hot[k])
		if err != nil {
			return nil, err
		}
		c.refs[&hot[k]] = res
	}
	return c, nil
}

// sameBits reports whether a daemon answer carries bit-identical values to
// an in-process result.
func sameBits(resp anond.ScenarioResponse, res scenario.Result) bool {
	bits := math.Float64bits
	return bits(resp.H) == bits(res.H) && bits(resp.MaxH) == bits(res.MaxH) &&
		bits(resp.Normalized) == bits(res.Normalized)
}

// check verifies one reply; it reports whether the reply is a failure.
func (c *serveChecker) check(op Op, r reply) bool {
	fail := func(msg string) bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.failures = append(c.failures, fmt.Sprintf("op %d (%s): %s", op.Index, op.Class, msg))
		return true
	}
	if r.err != nil {
		return fail(r.err.Error())
	}
	if op.Scenario == nil {
		return false
	}
	req, resp := op.Scenario, r.resp
	if err := checkResult(req, resp.H, resp.MaxH, resp.HDegraded, resp.DeliveryRate); err != nil {
		return fail(err.Error())
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case req.Backend == "" && endpoint(op) == "scenario":
		if ref, ok := c.refs[req]; ok {
			if !sameBits(resp, ref) {
				c.failures = append(c.failures, fmt.Sprintf("op %d: daemon H = %v, in-process H = %v", op.Index, resp.H, ref.H))
				return true
			}
		} else {
			c.deferred = append(c.deferred, deferredExact{req: req, resp: resp})
		}
	case sigmaCheckable(req):
		c.estimates = append(c.estimates, estimate{req: req, h: resp.H, err: resp.StdErr, trials: resp.Trials})
	}
	return false
}

// finish reports the failures check already counted, runs the deferred
// checks, and returns the number of deferred failures.
func (c *serveChecker) finish(report func(string)) (int, error) {
	for _, f := range c.failures {
		report(f)
	}
	var bad int
	for _, d := range c.deferred {
		res, err := runInProcess(d.req)
		if err != nil {
			return bad, err
		}
		if !close12(d.resp.H, res.H) {
			bad++
			report(fmt.Sprintf("daemon H = %v, in-process H = %v for %+v", d.resp.H, res.H, *d.req))
		}
	}
	n, err := sigmaChecks(c.estimates, report)
	return bad + n, err
}

// checkAll checks the answers of a list's first pass and returns the
// number that failed. Requests that failed outright were counted by the
// pass.
func (c *serveChecker) checkAll(ops []Op, replies []reply) int {
	var bad int
	for i, r := range replies {
		if r.err == nil && c.check(ops[i], r) {
			bad++
		}
	}
	return bad
}

// closedLoop sends a list's requests over conns connections, each sending
// its next request when its previous one completes, and returns the
// replies in list order and the wall time. With a recorder, every request
// becomes a span with the daemon's reported backend time as a child at
// its end, so a request's self time is the daemon layer's overhead. With
// a gauge, a calibration slice runs every calEvery while no request is in
// flight, outside the requests' latencies and the wall time.
func closedLoop(d *daemon, ops []Op, rec *recorder, m *gauge) ([]reply, time.Duration) {
	replies := make([]reply, len(ops))
	var next atomic.Int64
	var idle sync.RWMutex // a request holds it shared, a slice exclusively
	var calibrating time.Duration
	done := make(chan struct{})
	var slicer sync.WaitGroup
	if m != nil {
		slicer.Add(1)
		go func() {
			defer slicer.Done()
			due := time.NewTimer(calEvery)
			defer due.Stop()
			for {
				select {
				case <-done:
					return
				case <-due.C:
					idle.Lock()
					calibrating += m.slice()
					idle.Unlock()
					due.Reset(calEvery)
				}
			}
		}()
	}
	var clients sync.WaitGroup
	start := time.Now()
	for range conns {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for i := int(next.Add(1) - 1); i < len(ops); i = int(next.Add(1) - 1) {
				op := ops[i]
				idle.RLock()
				r := d.call(op)
				idle.RUnlock()
				if id := rec.add("http."+endpoint(op), 0, op.Index, r.start, r.end); r.backend > 0 {
					rec.add("anond.backend", id, op.Index, r.end.Add(-r.backend), r.end)
				}
				replies[i] = r
			}
		}()
	}
	clients.Wait()
	close(done)
	slicer.Wait() // a slice in progress ends first
	return replies, time.Since(start) - calibrating
}

// servedPass is one pass of a list over a fresh daemon.
type servedPass struct {
	passStats
	replies []reply
	// The daemon's /v1/metrics before and after the list, and its peak
	// resident set after the list, in MB.
	before, after anond.MetricsResponse
	peak          float64
}

// servePass starts a daemon, warms it, sends the list in closed loop, and
// stops it, which must drain cleanly. Set-up runs from the daemon's exec
// to the end of the warm-up. With a gauge, the pass is scaled by its
// calibration slices.
func servePass(anondPath string, ops, warm []Op, rec *recorder, m *gauge, problems func(string)) (servedPass, error) {
	var out servedPass
	start := time.Now()
	d, err := startDaemon(anondPath)
	if err != nil {
		return out, err
	}
	defer d.kill()
	if err := warmDaemon(d, warm); err != nil {
		return out, err
	}
	out.Setup = time.Since(start).Seconds()
	if out.before, err = d.metrics(); err != nil {
		return out, err
	}
	rs := sampleRSS(d.cmd.Process.Pid)
	cpu0, err := readCPUTimes()
	if err != nil {
		return out, err
	}
	if m != nil {
		m.slice()
	}
	out.replies, out.Wall = closedLoop(d, ops, rec, m)
	if m != nil {
		m.slice()
		out.Scale = m.scale()
	}
	cpu1, err := readCPUTimes()
	if err != nil {
		return out, err
	}
	out.Steal = stealShare(cpu0, cpu1)
	if out.RSS, err = rs.median(); err != nil {
		return out, err
	}
	if out.after, err = d.metrics(); err != nil {
		return out, err
	}
	if out.peak, err = vmHWM(d.cmd.Process.Pid); err != nil {
		return out, err
	}
	out.Attempted = len(ops) + 1 // the requests, and the drain
	out.Results = make([]float64, len(ops))
	for i, r := range out.replies {
		out.Results[i] = noResult
		if r.err == nil {
			out.Latency = append(out.Latency, r.latency)
			out.Results[i] = r.resp.H
		} else {
			out.Failed++
			problems(fmt.Sprintf("op %d (%s): %v", ops[i].Index, ops[i].Class, r.err))
		}
	}
	if err := d.stop(); err != nil {
		problems(err.Error())
		out.Failed++
	}
	return out, nil
}

// ladder offers the open-loop rates in turn, step long each, checking
// every answer.
func ladder(d *daemon, g *generator, chk *serveChecker, step time.Duration) ([]openStep, int) {
	var steps []openStep
	var failed atomic.Int64
	for _, rate := range ladderRates {
		steps = append(steps, offer(realClock{}, rate, step, func() bool {
			op := g.take(1)[0]
			if chk.check(op, d.call(op)) {
				failed.Add(1)
				return false
			}
			return true
		}))
	}
	return steps, int(failed.Load())
}

// warmDaemon sends the warm-up operations one by one.
func warmDaemon(d *daemon, ops []Op) error {
	for _, op := range ops {
		if r := d.call(op); r.err != nil {
			return fmt.Errorf("warm-up op %s: %w", op.Class, r.err)
		}
	}
	return nil
}
