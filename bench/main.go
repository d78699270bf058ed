// Command bench measures the anonymity-degree stack end to end: exact
// design sweeps, Monte-Carlo sampling, the faulted discrete-event testbed,
// and the anond daemon, each as one workload. Every input comes from the
// seed, every output is checked, and the last line of output is one JSON
// object with the run's metrics.
//
// Usage, from the repository root (bench/run.sh builds this command and
// anond into .bench_build and passes -anond):
//
//	bash bench/run.sh -workload exact-design -seed 1 -seconds 30 -trace 0
//	bash bench/run.sh -workload all -seed 2
//
// A run times passes over one fixed operation list, each pass in a fresh
// process (a fresh daemon for serve-mixed), scales each pass's times to
// the machine's reference speed (see calib.go), and reports statistics
// over all the passes' ops. -trace 1 reports the per-layer metrics
// instead of the end-to-end ones and writes the recorded spans as JSON
// lines to .bench_build/trace-<workload>-<seed>.jsonl. See
// bench/README.md for the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// A pass's op list takes about 1/passShare of -seconds at the workload's
// nominal rate, and a run makes at least minPasses passes.
const (
	passShare = 8
	minPasses = 3
)

// another reports whether a run starts another pass: until it has
// minPasses, and then while one more pass, as long as its passes so far
// took on average, still ends within -seconds. A run thus measures about
// -seconds, and never much longer.
func another(passes int, elapsed, length time.Duration) bool {
	if passes < minPasses {
		return true
	}
	return elapsed+elapsed/time.Duration(passes) <= length
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	anond    string
	pass     int
}

// length is the run's measured time, -seconds.
func (o options) length() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&o.seconds, "seconds", 30, "length of the measured phase in seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	fs.StringVar(&o.anond, "anond", "", "path of the anond binary")
	fs.IntVar(&o.pass, "pass", 0, "internal: run pass `k` of a library workload in this fresh process")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !(o.seconds > 0) || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(stderr, "bench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	if o.workload == "all" {
		return runAll(o, stdout, stderr)
	}
	if o.pass > 0 {
		if err := passChild(o, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	res, err := runWorkload(o, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := res.print(stdout); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload and returns its result line.
func runWorkload(o options, stdout, stderr io.Writer) (result, error) {
	g, err := newGenerator(o.workload, o.seed)
	if err != nil {
		return result{}, err
	}
	if o.anond == "" && (o.workload == serveMixed || o.trace == 1) {
		return result{}, errors.New("-anond is required for serve-mixed and for traced runs")
	}
	problems := func(msg string) { fmt.Fprintln(stderr, "bench: check failed:", msg) }
	header := fmt.Sprintf("%s seed=%d seconds=%g trace=%d GOMAXPROCS=%d", o.workload, o.seed, o.seconds, o.trace, runtime.GOMAXPROCS(0))
	rep := newReport()
	defs, measure := endToEnd, untraced
	if o.trace == 1 {
		defs, measure = perLayer, traced
	}
	attempted, failed, err := measure(o, g, rep, problems)
	if err != nil {
		return result{}, err
	}
	return rep.emit(stdout, header, defs, attempted, failed, problems), nil
}

// untraced times passes over the workload's op list for the run's length
// (see another). The first pass's results get every check; each later pass
// must reproduce them.
func untraced(o options, g *generator, rep *report, problems func(string)) (int, int, error) {
	list := g.take(g.listLen(o.length() / passShare))
	warm := g.warmup()
	var chk *serveChecker
	if o.workload == serveMixed {
		var err error
		if chk, err = newServeChecker(g.hot); err != nil {
			return 0, 0, err
		}
	}
	var ps []passStats
	var attempted, failed int
	for start := time.Now(); another(len(ps), time.Since(start), o.length()); {
		var p passStats
		if o.workload == serveMixed {
			sp, err := servePass(o.anond, list, warm, nil, newGauge(), problems)
			if err != nil {
				return 0, 0, err
			}
			if len(ps) == 0 {
				failed += chk.checkAll(list, sp.replies)
			}
			p = sp.passStats
		} else {
			var err error
			if p, err = libraryPass(o, len(ps)+1); err != nil {
				return 0, 0, err
			}
		}
		if len(ps) > 0 {
			failed += crossCheck(list, ps[0].Results, p.Results, problems)
		}
		attempted += p.Attempted
		failed += p.Failed
		ps = append(ps, p)
	}
	if chk != nil {
		bad, err := chk.finish(problems)
		if err != nil {
			return 0, 0, err
		}
		failed += bad
		rep.note("rss_mb", "the daemon's")
	}
	rep.setPasses(ps)
	return attempted, failed, nil
}

// libraryPass runs pass k of a library workload in a fresh child process
// and times its set-up: from the exec to the child's "ready" line, less
// the child's own input generation.
func libraryPass(o options, k int) (passStats, error) {
	exe, err := os.Executable()
	if err != nil {
		return passStats{}, err
	}
	cmd := exec.Command(exe, "-pass", strconv.Itoa(k), "-workload", o.workload,
		"-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return passStats{}, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return passStats{}, err
	}
	r := bufio.NewReader(stdout)
	line, readErr := r.ReadString('\n')
	ready := time.Since(start)
	var p passStats
	decodeErr := json.NewDecoder(r).Decode(&p)
	if err := cmd.Wait(); err != nil {
		return p, fmt.Errorf("pass %d: %w", k, err)
	}
	gen, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, "ready")), 64)
	if readErr != nil || err != nil {
		return p, fmt.Errorf("pass %d printed %q", k, line)
	}
	if decodeErr != nil {
		return p, fmt.Errorf("pass %d: %w", k, decodeErr)
	}
	p.Setup = (ready - time.Duration(gen*float64(time.Second))).Seconds()
	return p, nil
}

// passChild runs pass k of a library workload in this fresh process: it
// generates the inputs (timed apart, since input generation is the
// benchmark's own work), warms up, prints "ready <generation seconds>",
// runs the op list, and prints the pass as one JSON object. Pass 1 also
// runs the deep checks, after the list.
func passChild(o options, stdout, stderr io.Writer) error {
	start := time.Now()
	g, err := newGenerator(o.workload, o.seed)
	if err != nil {
		return err
	}
	if o.workload == serveMixed {
		return errors.New("-pass runs library workloads only")
	}
	list := g.take(g.listLen(o.length() / passShare))
	warm := g.warmup()
	gen := time.Since(start)
	if err := warmLibrary(warm); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(stdout, "ready %.9f\n", gen.Seconds()); err != nil {
		return err
	}
	runtime.GC()
	problems := func(msg string) { fmt.Fprintln(stderr, "bench: check failed:", msg) }
	m := newGauge()
	rs := sampleRSS(os.Getpid())
	cpu0, err := readCPUTimes()
	if err != nil {
		return err
	}
	lr := runLibrary(list, nil, m, problems)
	m.slice()
	cpu1, err := readCPUTimes()
	if err != nil {
		return err
	}
	p := passStats{Latency: lr.latency, Wall: lr.wall, Steal: stealShare(cpu0, cpu1), Scale: m.scale(),
		Results: lr.results, Attempted: lr.attempted, Failed: lr.failed}
	if p.RSS, err = rs.median(); err != nil {
		return err
	}
	if o.pass == 1 {
		bad, err := deepChecks(lr, problems)
		if err != nil {
			return err
		}
		p.Failed += bad
	}
	return json.NewEncoder(stdout).Encode(p)
}

// runAll runs every workload in a fresh child process, so caches and peak
// memory do not carry over, and combines their result lines.
func runAll(o options, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	all := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range workloadNames {
		cmd := exec.Command(exe, "-workload", w, "-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(o.trace), "-anond", o.anond)
		cmd.Stderr = stderr
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		out, runErr := cmd.Output()
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		for _, l := range lines[:len(lines)-1] {
			fmt.Fprintln(stdout, l)
		}
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			fmt.Fprintf(stderr, "bench: %s printed no result: %v\n", w, runErr)
			return 1
		}
		all.Correct = all.Correct && res.Correct && runErr == nil
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for name, v := range res.Metrics {
			all.Metrics[w+"."+name] = v
		}
	}
	if err := all.print(stdout); err != nil || !all.Correct {
		return 1
	}
	return 0
}
