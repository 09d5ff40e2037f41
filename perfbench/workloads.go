package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"time"

	"picmcio/internal/bit1"
	"picmcio/internal/cluster"
	"picmcio/internal/darshan"
	"picmcio/internal/experiments"
	"picmcio/internal/sched"
	"picmcio/internal/sim"
)

// variants is how many pinned input variants each workload has. A
// benchmark seed selects one of them (seed mod variants), so any seed
// maps onto inputs whose simulated outputs are pinned in pins.json.
const variants = 4

// simSeed is the simulation seed a benchmark seed selects: the Lustre
// jitter seed of every BIT1 run and the scheduler's pricing seed.
func simSeed(seed uint64) uint64 { return 1 + seed%variants }

// Workload sizes. bit1-fpp sits at the node count where the Dardel
// preset switches to the calendar-queue kernel; bit1-bp4 and the
// scheduler backlog follow the sizes recorded in LAYERS.md. bit1-fpp
// simulates two diagnostic epochs instead of the runner's five: its
// file creates and set-up cost the same at any epoch count, and the
// shorter sample (about 4.5 s instead of 6.5 s) fits more samples in
// one run. bit1-bp4 keeps the runner's default (0).
const (
	fppNodes      = 256
	fppDiagEpochs = 2
	bp4Nodes      = 50
	schedNodes    = 1024
	schedJobs     = 2000
	schedLoad     = 2.5
	suiteMaxNode  = 4
)

// suiteArtifacts are the catalog artifacts the paper-suite workload
// renders, in order.
var suiteArtifacts = []string{"fig3", "fig5", "tab2", "figburst"}

// suiteNodeList is the reduced scaling node list of paper-suite.
var suiteNodeList = []int{1, 2, suiteMaxNode}

// result is what one measured execution of a workload produced.
type result struct {
	// Outputs are the simulated outputs checked against pins.json.
	Outputs map[string]string
	// Ops is the simulated work done: Darshan-recorded POSIX operations
	// (bit1-*), completed jobs (sched-backlog) or rendered artifacts
	// (paper-suite).
	Ops float64
	// Layers holds the per-layer counts and span times of a traced
	// execution (nil untraced).
	Layers map[string]float64
}

// runner executes a prepared workload once. traced selects the
// benchmark-owned instrumented path; untraced runs go through the
// program's public entry points only.
type runner func(traced bool) (result, error)

// workload is one named benchmark input. prepare is the set-up phase:
// everything it does is charged to setup_s, never to the measured run.
// procs, when positive, is the GOMAXPROCS its samples run with.
type workload struct {
	name    string
	prepare func(seed uint64) (runner, error)
	procs   int
}

// The BIT1 workloads run one simulation kernel, which resumes one
// process at a time by channel handoff. With more than one P every
// handoff may wake another thread, and on a virtual machine the wake-up
// latency changes from minute to minute: on a 2-vCPU virtual machine at
// the default GOMAXPROCS, bit1-fpp's wall time spread 24% across runs
// while its CPU time spread 5%. One P keeps the handoffs on one thread.
var workloads = []workload{
	{"bit1-fpp", func(seed uint64) (runner, error) {
		return prepareBIT1(seed, fppNodes, fppDiagEpochs, bit1.IOOriginal)
	}, 1},
	{"bit1-bp4", func(seed uint64) (runner, error) { return prepareBIT1(seed, bp4Nodes, 0, bit1.IOOpenPMD) }, 1},
	{"sched-backlog", prepareSched, 0},
	{"paper-suite", prepareSuite, 0},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// bp4TOML is the openPMD adaptor configuration of the paper's
// "openPMD + BP4" curve: the BP4 engine with one aggregator per node.
func bp4TOML(nodes int) string {
	return fmt.Sprintf("[adios2.engine]\ntype = \"bp4\"\n\n[adios2.engine.parameters]\nNumAggregators = \"%d\"\n", nodes)
}

func prepareBIT1(seed uint64, nodes, diagEpochs int, mode bit1.IOMode) (runner, error) {
	o := experiments.Options{Seed: simSeed(seed), DiagEpochs: diagEpochs}
	m := cluster.Dardel()
	toml := ""
	if mode == bit1.IOOpenPMD {
		toml = bp4TOML(nodes)
	}
	return func(traced bool) (result, error) {
		if traced {
			return tracedBIT1(o, m, nodes, mode, toml)
		}
		r, err := o.RunBIT1Public(m, nodes, mode, toml)
		if err != nil {
			return result{}, err
		}
		return result{
			Outputs: bit1Outputs(r.ThroughputGiBs, r.Files, r.Elapsed),
			Ops:     posixOps(r.Log),
		}, nil
	}, nil
}

// bit1Outputs renders the pinned outputs of a BIT1 run. Floats use the
// shortest exact representation, so equal strings mean equal bits.
func bit1Outputs(gibs float64, files experiments.FileStats, elapsed sim.Time) map[string]string {
	return map[string]string{
		"throughput_gibs": strconv.FormatFloat(gibs, 'g', -1, 64),
		"files":           strconv.Itoa(files.Count),
		"total_bytes":     strconv.FormatInt(files.TotalBytes, 10),
		"elapsed":         strconv.FormatFloat(float64(elapsed), 'g', -1, 64),
	}
}

// posixOps counts the POSIX operations a Darshan log recorded.
func posixOps(l *darshan.Log) float64 {
	var n int64
	for i := range l.Records {
		c := &l.Records[i].Counters
		n += c[darshan.POSIX_OPENS] + c[darshan.POSIX_WRITES] + c[darshan.POSIX_READS] +
			c[darshan.POSIX_SEEKS] + c[darshan.POSIX_STATS] + c[darshan.POSIX_FSYNCS]
	}
	return float64(n)
}

func prepareSched(seed uint64) (runner, error) {
	s := simSeed(seed)
	m := cluster.Dardel()
	pr := sched.NewPricer(m, s, 6)
	// The backlog and its node failures are fixed: the scheduler's work
	// is chaotic in their seeds (Pick time varies up to 1.7x across
	// failure seeds on one stream), far beyond any metric bound.
	syn := sched.Synth{Tenants: 8, Users: 4, Seed: 1}
	mean, err := sched.SubmitMeanForLoad(pr, m, syn, schedLoad, schedNodes)
	if err != nil {
		return nil, err
	}
	syn.SubmitMeanHours = mean
	syn.SpanHours = float64(schedJobs) * mean / float64(syn.Tenants*syn.Users)
	stream, err := sched.Synthesize(m, syn)
	if err != nil {
		return nil, err
	}
	if err := pr.Prewarm(stream, runtime.GOMAXPROCS(0)); err != nil {
		return nil, err
	}
	// The realism configuration of the repository's BenchmarkSchedScale:
	// preemptive checkpoint-and-requeue and in-queue node failures.
	cfg := sched.Config{
		Machine: m, Nodes: schedNodes, Seed: 1, Pricer: pr,
		Preempt: sched.PreemptConfig{MaxHeadWaitHours: 24, CheckpointHours: 0.5},
		Faults:  sched.FaultConfig{MTBFNodeHours: 2000, RepairHours: 12, RestartOverheadHours: 0.5},
	}
	return func(traced bool) (result, error) {
		out := result{Outputs: map[string]string{}}
		var loop time.Duration
		var tps []*tracedPolicy
		for _, pol := range []sched.Policy{sched.EASY{}, sched.FairShare{}} {
			p := pol
			if traced {
				tp, wrapped := wrapPolicy(pol)
				tps = append(tps, tp)
				p = wrapped
			}
			t0 := time.Now()
			res, err := sched.Run(cfg, p, stream)
			loop += time.Since(t0)
			if err != nil {
				return result{}, fmt.Errorf("%s: %w", pol.Name(), err)
			}
			if len(res.Jobs) != len(stream) {
				return result{}, fmt.Errorf("%s: completed %d of %d jobs", pol.Name(), len(res.Jobs), len(stream))
			}
			out.Outputs[pol.Name()] = digestResult(res)
			out.Ops += float64(len(res.Jobs))
		}
		if traced {
			out.Layers = schedLayers(tps, loop)
		}
		return out, nil
	}, nil
}

// digestResult hashes every outcome field of a scheduler Result: run
// totals, the utilization timeline, tenant shares and each job's
// schedule. Job specs are inputs and are left out. Floats print in
// their shortest exact form, so equal digests mean equal bits.
func digestResult(r *sched.Result) string {
	h := sha256.New()
	fmt.Fprintln(h, r.Policy, r.Nodes, len(r.Jobs), r.Makespan, r.LeaseOps, r.Backfills,
		r.Preemptions, r.FailureKills, r.IdleFailures, r.LostNodeHours, r.RequeuedNodeHours,
		r.DownNodeHours, r.UsageJain, r.ShareErr)
	for _, s := range r.Timeline {
		fmt.Fprintln(h, s.Hours, s.Busy)
	}
	for _, t := range r.TenantShares {
		fmt.Fprintln(h, t.Tenant, t.MeanAbsErr, t.ActiveHours)
	}
	for _, j := range r.Jobs {
		fmt.Fprintln(h, j.ID, j.Tenant, j.Class, j.Nodes, j.SubmitHours, j.StartHours, j.EndHours,
			j.WaitHours, j.ServiceHours, j.StretchX, j.Backfilled, j.Segments, j.Preemptions,
			j.FailureKills, j.LostNodeHours)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func prepareSuite(seed uint64) (runner, error) {
	o := experiments.Options{
		Seed:       simSeed(seed),
		NodeCounts: suiteNodeList,
		Parallel:   runtime.GOMAXPROCS(0),
	}
	arts := make([]experiments.Artifact, len(suiteArtifacts))
	for i, name := range suiteArtifacts {
		a, ok := experiments.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("artifact %q is not in the catalog", name)
		}
		arts[i] = a
	}
	return func(traced bool) (result, error) {
		out := result{Outputs: map[string]string{}}
		if traced {
			out.Layers = map[string]float64{}
		}
		for _, a := range arts {
			t0 := time.Now()
			r, err := a.Run(o, suiteMaxNode)
			if traced {
				out.Layers["experiments."+a.Name+"_s"] = time.Since(t0).Seconds()
			}
			if err != nil {
				return result{}, fmt.Errorf("%s: %w", a.Name, err)
			}
			out.Outputs[a.Name] = hashText(r.Text)
			out.Ops++
		}
		return out, nil
	}, nil
}

func hashText(s string) string {
	h := sha256.New()
	_, _ = io.WriteString(h, s) // hash writes never fail
	return hex.EncodeToString(h.Sum(nil))
}
