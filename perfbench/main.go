// Command perfbench is the repository benchmark: it runs one named
// workload of the simulator for a fixed time and prints its end-to-end
// metrics (--trace 0) or its per-layer metrics (--trace 1) as the last
// line of standard output.
//
// Usage, from the root of the repository:
//
//	bash perfbench/run.sh --workload bit1-fpp --seed 1 --seconds 30 --trace 0
//
// Every measured execution ("sample") runs in a fresh child process, so
// process-global caches of the program (experiments.MeasuredRatio's
// codec ratios, and any later memo) never carry over from one sample to
// the next; set-up is charged to setup_s, never to a sample. Each sample's
// simulated outputs are checked against pins.json. See LAYERS.md for
// the workloads, metrics and the layer-to-metric table.
package main

import (
	"bufio"
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "sample":
			os.Exit(sampleMain(os.Args[2:]))
		case "pin":
			os.Exit(pinMain())
		}
	}
	os.Exit(benchMain(os.Args[1:]))
}

// metric is one reported metric's name and unit.
type metric struct{ name, unit string }

// endToEnd are the --trace 0 metrics, medians over a run's samples.
var endToEnd = []metric{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"alloc_mb", "MB"},
	{"max_rss_mb", "MB"},
	{"ops_per_s", "1/s"},
}

// perLayer are the --trace 1 metrics. A metric a workload never
// reaches (the scheduler's Pick on a BIT1 run, say) reads 0.
var perLayer = []metric{
	{"sim.events", "count"},
	{"sim.queue_events", "count"},
	{"sim.fastpath_events", "count"},
	{"sim.stale_frac", "frac"},
	{"sim.ns_per_event", "ns"},
	{"sim.self_frac", "frac"},
	{"runtime.handoff_frac", "frac"},
	{"runtime.gc_frac", "frac"},
	{"other.self_frac", "frac"},
	{"darshan.records", "count"},
	{"darshan.record_ns", "ns"},
	{"darshan.snapshot_s", "s"},
	{"darshan.self_frac", "frac"},
	{"pfs.create_calls", "count"},
	{"pfs.write_calls", "count"},
	{"pfs.write_bytes", "B"},
	{"lustre.mds_ops", "count"},
	{"lustre.ost_ops", "count"},
	{"lustre.ost_bytes", "B"},
	{"lustre.self_frac", "frac"},
	{"pfs.self_frac", "frac"},
	{"posix.self_frac", "frac"},
	{"stdio.self_frac", "frac"},
	{"adios2.self_frac", "frac"},
	{"openpmd.self_frac", "frac"},
	{"core.self_frac", "frac"},
	{"bit1.self_frac", "frac"},
	{"mpisim.self_frac", "frac"},
	{"sched.pick_calls", "count"},
	{"sched.pick_s.easy-backfill", "s"},
	{"sched.pick_s.fair-share", "s"},
	{"sched.pick_ns.easy-backfill", "ns"},
	{"sched.pick_ns.fair-share", "ns"},
	{"sched.empty_pick_frac", "frac"},
	{"sched.loop_s", "s"},
	{"sched.self_frac", "frac"},
	{"experiments.fig3_s", "s"},
	{"experiments.fig5_s", "s"},
	{"experiments.tab2_s", "s"},
	{"experiments.figburst_s", "s"},
	{"experiments.parallel_eff", "frac"},
	{"experiments.self_frac", "frac"},
	{"sweep.self_frac", "frac"},
	{"burst.self_frac", "frac"},
	{"compress.self_frac", "frac"},
	{"trace.overhead_frac", "frac"},
	{"trace.profile_samples", "count"},
}

// setupProbes is how many set-up-only children a run spawns before its
// samples; setup_s is their median.
const setupProbes = 15

// childTimeout bounds one child process, well inside the 180 s a run
// may take.
const childTimeout = 150 * time.Second

// report is what a child prints as its last line.
type report struct {
	WallS   float64            `json:"wall_s"`
	CPUS    float64            `json:"cpu_s"`
	AllocMB float64            `json:"alloc_mb"`
	Ops     float64            `json:"ops"`
	Outputs map[string]string  `json:"outputs,omitempty"`
	Layers  map[string]float64 `json:"layers,omitempty"`
	Err     string             `json:"err,omitempty"`
}

// probe is one child process as the parent saw it.
type probe struct {
	setup    time.Duration // spawn until the child finished set-up
	took     time.Duration // spawn until the child exited
	maxRSSMB float64
	rep      *report // nil for a set-up-only child
	err      error   // the child failed, or its outputs missed their pins
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name: bit1-fpp, bit1-bp4, sched-backlog, paper-suite")
	seed := fs.Uint64("seed", 1, "workload seed (selects one of the pinned input variants)")
	seconds := fs.Int("seconds", 10, "how long to keep starting measured samples")
	trace := fs.Int("trace", 0, "1: add one traced sample and report per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	want, err := pinsFor(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	base := []string{"sample", "--workload", *name, "--seed", strconv.FormatUint(*seed, 10)}
	procs := runtime.GOMAXPROCS(0)
	env := os.Environ()
	if w.procs > 0 {
		procs = w.procs
		env = append(env, "GOMAXPROCS="+strconv.Itoa(procs))
	}

	// Set-up is measured before any sample: a child spawned right after a
	// sample also pays for the kernel reclaiming that sample's memory
	// (450 MB on bit1-fpp), which is not set-up.
	var setups, measured []probe
	for i := 0; i < setupProbes; i++ {
		p := spawn(ctx, exe, env, nil, append(base, "--setup-only")...)
		logProbe(*name, "setup", p)
		setups = append(setups, p)
	}
	// A sample is started only if it would end nearer to the deadline
	// than the last one did, so a run lasts about --seconds whatever the
	// workload's sample length.
	start := time.Now()
	deadline := time.Duration(*seconds) * time.Second
	var took []float64
	for len(measured) == 0 || time.Since(start).Seconds()+median(took)/2 < deadline.Seconds() {
		p := spawn(ctx, exe, env, want, base...)
		took = append(took, p.took.Seconds())
		logProbe(*name, "sample", p)
		measured = append(measured, p)
	}
	all := append(setups, measured...)
	var traced *probe
	if *trace == 1 {
		p := spawn(ctx, exe, env, want, append(base, "--trace")...)
		logProbe(*name, "traced", p)
		traced = &p
		all = append(all, p)
	}

	attempted, failed := 0, 0
	for _, p := range all {
		if p.rep == nil && p.err == nil {
			continue // set-up only
		}
		attempted++
		if p.err != nil {
			failed++
		}
	}
	var wall, cpu, alloc, rss, ops, setup []float64
	for _, p := range setups {
		if p.setup > 0 {
			setup = append(setup, p.setup.Seconds())
		}
	}
	for _, p := range measured {
		if p.rep == nil || p.rep.WallS <= 0 {
			continue
		}
		wall = append(wall, p.rep.WallS)
		cpu = append(cpu, p.rep.CPUS)
		alloc = append(alloc, p.rep.AllocMB)
		rss = append(rss, p.maxRSSMB)
		ops = append(ops, p.rep.Ops/p.rep.WallS)
	}
	if len(wall) == 0 || len(setup) == 0 || (traced != nil && traced.rep == nil) {
		fmt.Fprintln(os.Stderr, "perfbench: no sample completed; nothing to report")
		return 1
	}

	values := map[string]float64{}
	reported := endToEnd
	if traced == nil {
		values["wall_s"] = median(wall)
		values["cpu_s"] = median(cpu)
		values["setup_s"] = median(setup)
		values["alloc_mb"] = median(alloc)
		values["max_rss_mb"] = median(rss)
		values["ops_per_s"] = median(ops)
	} else {
		reported = perLayer
		for k, v := range traced.rep.Layers {
			values[k] = v
		}
		values["trace.overhead_frac"] = traced.rep.WallS/median(wall) - 1
	}
	metrics := map[string]any{}
	for _, m := range reported {
		metrics[m.name] = map[string]any{"value": values[m.name], "unit": m.unit}
	}

	host := map[string]any{
		"workload":   *name,
		"seed":       *seed,
		"sim_seed":   simSeed(*seed),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": procs,
		"go":         runtime.Version(),
		"samples":    len(wall),
		"fail_frac":  float64(failed) / float64(attempted),
	}
	line, _ := json.Marshal(map[string]any{"host": host}) // plain maps always marshal
	fmt.Println(string(line))
	line, _ = json.Marshal(map[string]any{
		"correct":   failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metrics,
	})
	fmt.Println(string(line))
	return 0
}

func logProbe(workload, kind string, p probe) {
	status := "ok"
	if p.err != nil {
		status = "FAILED: " + p.err.Error()
	}
	wall := 0.0
	if p.rep != nil {
		wall = p.rep.WallS
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s %s setup %.4fs wall %.3fs rss %.0fMB %s\n",
		workload, kind, p.setup.Seconds(), wall, p.maxRSSMB, status)
}

// spawn runs one child in environment env and checks its outputs
// against want (nil: a set-up-only child, nothing to check).
func spawn(ctx context.Context, exe string, env []string, want map[string]string, args ...string) probe {
	var p probe
	cctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(cctx, exe, args...)
	cmd.Env = env
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		p.err = err
		return p
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		p.err = err
		return p
	}
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var last string
	for sc.Scan() {
		switch line := sc.Text(); {
		case line == "ready" && p.setup == 0:
			p.setup = time.Since(t0)
		case line != "":
			last = line
		}
	}
	waitErr := cmd.Wait()
	p.took = time.Since(t0)
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		p.maxRSSMB = float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
	}
	if last != "" {
		var r report
		if err := json.Unmarshal([]byte(last), &r); err != nil {
			p.err = fmt.Errorf("child report: %w", err)
			return p
		}
		p.rep = &r
		if r.Err != "" {
			p.err = errors.New(r.Err)
			return p
		}
	}
	if waitErr != nil {
		p.err = fmt.Errorf("child: %w", waitErr)
		return p
	}
	if want != nil {
		if p.rep == nil {
			p.err = errors.New("child printed no report")
			return p
		}
		p.err = checkPins(p.rep.Outputs, want)
	}
	return p
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sampleMain is one child: set up the workload, signal "ready", run it
// once and print the report.
func sampleMain(args []string) int {
	fs := flag.NewFlagSet("perfbench sample", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "workload seed")
	traced := fs.Bool("trace", false, "run the traced path under a CPU profile")
	setupOnly := fs.Bool("setup-only", false, "exit after set-up")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		line, _ := json.Marshal(report{Err: err.Error()}) // a struct of plain fields always marshals
		fmt.Println(string(line))
		return 1
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		return fail(fmt.Errorf("unknown workload %q", *name))
	}
	run, err := w.prepare(*seed)
	if err != nil {
		return fail(fmt.Errorf("set-up: %w", err))
	}
	fmt.Println("ready")
	if *setupOnly {
		return 0
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	var prof bytes.Buffer
	if *traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return fail(err)
		}
	}
	t0 := time.Now()
	res, err := run(*traced)
	wall := time.Since(t0).Seconds()
	if *traced {
		pprof.StopCPUProfile()
	}
	cpu := cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return fail(err)
	}
	rep := report{
		WallS:   wall,
		CPUS:    cpu,
		AllocMB: float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6,
		Ops:     res.Ops,
		Outputs: res.Outputs,
	}
	if *traced {
		fracs, n, err := rollup(prof.Bytes())
		if err != nil {
			return fail(err)
		}
		rep.Layers = map[string]float64{"trace.profile_samples": float64(n)}
		for k, v := range fracs {
			rep.Layers[k] = v
		}
		for k, v := range res.Layers {
			rep.Layers[k] = v
		}
		rep.Layers["experiments.parallel_eff"] = cpu / (wall * float64(runtime.GOMAXPROCS(0)))
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	return 0
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

//go:embed pins.json
var pinsJSON []byte

// pinFile maps workload → sim seed → output name → pinned value.
type pinFile map[string]map[string]map[string]string

func pinsFor(workload string, seed uint64) (map[string]string, error) {
	var pf pinFile
	if err := json.Unmarshal(pinsJSON, &pf); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	want := pf[workload][strconv.FormatUint(simSeed(seed), 10)]
	if len(want) == 0 {
		return nil, fmt.Errorf("pins.json has no outputs for %s sim seed %d", workload, simSeed(seed))
	}
	return want, nil
}

// checkPins reports every output that differs from its pin, and every
// pin the run did not produce.
func checkPins(got, want map[string]string) error {
	var bad []string
	for k, w := range want {
		if g, ok := got[k]; !ok {
			bad = append(bad, fmt.Sprintf("%s missing (pinned %s)", k, w))
		} else if g != w {
			bad = append(bad, fmt.Sprintf("%s = %s, pinned %s", k, g, w))
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			bad = append(bad, fmt.Sprintf("%s not pinned", k))
		}
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	return fmt.Errorf("outputs differ from pins.json: %s", strings.Join(bad, "; "))
}

// pinMain prints a fresh pins.json: every workload at every sim seed,
// through the untraced public entry points. Run it only when a change
// of the simulated outputs is intended.
func pinMain() int {
	pf := pinFile{}
	for _, w := range workloads {
		pf[w.name] = map[string]map[string]string{}
		for v := uint64(0); v < variants; v++ {
			run, err := w.prepare(v)
			if err == nil {
				var res result
				res, err = run(false)
				pf[w.name][strconv.FormatUint(simSeed(v), 10)] = res.Outputs
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench pin: %s seed %d: %v\n", w.name, v, err)
				return 1
			}
			fmt.Fprintf(os.Stderr, "perfbench pin: %s sim seed %d done\n", w.name, simSeed(v))
		}
	}
	out, err := json.MarshalIndent(pf, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench pin:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}
