package main

import (
	"strings"
	"sync"
	"time"

	"picmcio/internal/bit1"
	"picmcio/internal/cluster"
	"picmcio/internal/darshan"
	"picmcio/internal/experiments"
	"picmcio/internal/mpisim"
	"picmcio/internal/pfs"
	"picmcio/internal/posix"
	"picmcio/internal/sched"
	"picmcio/internal/sim"
	"picmcio/internal/units"
	picworkload "picmcio/internal/workload"
)

// The decorators below count calls into one layer and time the calls
// that never block in the simulation. In this single-runner
// discrete-event simulation a blocking call (a file write, a create)
// suspends its process while others run, so its wall-clock span would
// also cover other processes' work; those calls are counted, not timed.

// fsCounts are the pfs-boundary counts of a traced run.
type fsCounts struct {
	creates, writes, writeBytes int64
}

// tracedFS decorates a pfs.FileSystem. Use wrapFS, which also forwards
// the optional interfaces the program type-asserts.
type tracedFS struct {
	inner pfs.FileSystem
	c     *fsCounts
}

func (t *tracedFS) Name() string { return t.inner.Name() }

func (t *tracedFS) Create(p *sim.Proc, c *pfs.Client, path string) (pfs.File, error) {
	t.c.creates++
	return t.file(t.inner.Create(p, c, path))
}

func (t *tracedFS) Open(p *sim.Proc, c *pfs.Client, path string) (pfs.File, error) {
	return t.file(t.inner.Open(p, c, path))
}

func (t *tracedFS) OpenAppend(p *sim.Proc, c *pfs.Client, path string) (pfs.File, error) {
	return t.file(t.inner.OpenAppend(p, c, path))
}

func (t *tracedFS) Stat(p *sim.Proc, c *pfs.Client, path string) (pfs.FileInfo, error) {
	return t.inner.Stat(p, c, path)
}

func (t *tracedFS) Unlink(p *sim.Proc, c *pfs.Client, path string) error {
	return t.inner.Unlink(p, c, path)
}

func (t *tracedFS) MkdirAll(p *sim.Proc, c *pfs.Client, path string) error {
	return t.inner.MkdirAll(p, c, path)
}

func (t *tracedFS) ReadDir(p *sim.Proc, c *pfs.Client, path string) ([]pfs.FileInfo, error) {
	return t.inner.ReadDir(p, c, path)
}

func (t *tracedFS) file(f pfs.File, err error) (pfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: f, c: t.c}, nil
}

// tracedFile counts writes; every other method is the inner file's.
type tracedFile struct {
	pfs.File
	c *fsCounts
}

func (f *tracedFile) WriteAt(p *sim.Proc, c *pfs.Client, off, n int64, data []byte) {
	f.c.writes++
	f.c.writeBytes += n
	f.File.WriteAt(p, c, off, n, data)
}

type stagerPart struct{ st pfs.Stager }

func (s stagerPart) DrainEpoch(p *sim.Proc) { s.st.DrainEpoch(p) }

type namespacerPart struct{ ns pfs.Namespacer }

func (n namespacerPart) Namespace() *pfs.Namespace { return n.ns.Namespace() }

// wrapFS decorates fs, forwarding pfs.Stager and pfs.Namespacer exactly
// when fs implements them: the ADIOS2 engine type-asserts Stager to
// nudge burst drains, and statistics code asserts Namespacer, so a
// decorator that hid either would change the run it measures.
func wrapFS(fs pfs.FileSystem, c *fsCounts) pfs.FileSystem {
	if fs == nil {
		return nil
	}
	t := &tracedFS{inner: fs, c: c}
	st, isStager := fs.(pfs.Stager)
	ns, isNamespacer := fs.(pfs.Namespacer)
	switch {
	case isStager && isNamespacer:
		return struct {
			*tracedFS
			stagerPart
			namespacerPart
		}{t, stagerPart{st}, namespacerPart{ns}}
	case isStager:
		return struct {
			*tracedFS
			stagerPart
		}{t, stagerPart{st}}
	case isNamespacer:
		return struct {
			*tracedFS
			namespacerPart
		}{t, namespacerPart{ns}}
	}
	return t
}

// tracedMonitor decorates the Darshan collector: it counts and times
// every Record call, which runs inline and never blocks.
type tracedMonitor struct {
	inner   posix.Monitor
	records int64
	busy    time.Duration
}

func (m *tracedMonitor) Record(rank int, op posix.Op, path string, bytes int64, start, end sim.Time) {
	t0 := time.Now()
	m.inner.Record(rank, op, path, bytes, start, end)
	m.busy += time.Since(t0)
	m.records++
}

// tracedPolicy decorates a scheduler policy, timing every Pick. Use
// wrapPolicy, which forwards sched.PrefixPolicy when the inner policy
// implements it.
type tracedPolicy struct {
	inner sched.Policy
	calls int64
	empty int64
	busy  time.Duration
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

func (p *tracedPolicy) Pick(v sched.QueueView) []sched.Decision {
	t0 := time.Now()
	d := p.inner.Pick(v)
	p.busy += time.Since(t0)
	p.calls++
	if len(d) == 0 {
		p.empty++
	}
	return d
}

type prefixPart struct{ pp sched.PrefixPolicy }

func (f prefixPart) PrefixBlocked(free, headNodes int) bool {
	return f.pp.PrefixBlocked(free, headNodes)
}

// wrapPolicy returns the decorator and the policy to hand to sched.Run.
// The event loop takes its O(1) idle-pass shortcut only for policies
// implementing sched.PrefixPolicy, so the decorator must keep it.
func wrapPolicy(pol sched.Policy) (*tracedPolicy, sched.Policy) {
	t := &tracedPolicy{inner: pol}
	if pp, ok := pol.(sched.PrefixPolicy); ok {
		return t, struct {
			*tracedPolicy
			prefixPart
		}{t, prefixPart{pp}}
	}
	return t, t
}

// schedLayers reports the scheduler-boundary metrics of a traced
// backlog replay; loop is the wall time of all sched.Run calls.
func schedLayers(tps []*tracedPolicy, loop time.Duration) map[string]float64 {
	l := map[string]float64{}
	var calls, empty int64
	var pick time.Duration
	for _, tp := range tps {
		name := tp.Name()
		l["sched.pick_s."+name] = tp.busy.Seconds()
		if tp.calls > 0 {
			l["sched.pick_ns."+name] = float64(tp.busy.Nanoseconds()) / float64(tp.calls)
		}
		calls += tp.calls
		empty += tp.empty
		pick += tp.busy
	}
	l["sched.pick_calls"] = float64(calls)
	if calls > 0 {
		l["sched.empty_pick_frac"] = float64(empty) / float64(calls)
	}
	l["sched.loop_s"] = (loop - pick).Seconds()
	return l
}

// The traced BIT1 harness below is the wiring of
// experiments.Options.RunBIT1Public (cluster → kernel → mpisim world →
// posix.Env → bit1.Run) rebuilt from exported pieces, with decorators
// on the file systems and the Darshan monitor. It computes the pinned
// outputs the same way, so a traced run must match the untraced pins
// bit for bit.

// harnessDeck is the runner's scaled input deck for o (defaults applied).
func harnessDeck(o experiments.Options) bit1.InputDeck {
	d := bit1.DefaultDeck()
	d.MVStep = 100
	d.MVFlag = 1
	d.LastStep = o.DiagEpochs * 100
	d.DMPStep = o.DiagEpochs * 100 / o.CheckpointEpochs
	return d
}

func tracedBIT1(o experiments.Options, m cluster.Machine, nodes int, mode bit1.IOMode, toml string) (result, error) {
	o = o.WithDefaults()
	k := m.NewKernel(nodes)
	sys, err := m.Build(k, nodes, o.Seed)
	if err != nil {
		return result{}, err
	}
	ranks := nodes * o.RanksPerNode
	w := mpisim.NewWorld(k, ranks, mpisim.AlphaBeta(m.NetAlpha, m.NetBeta))
	col := darshan.NewCollector()
	mon := &tracedMonitor{inner: col}
	var fc fsCounts
	fs := wrapFS(sys.FS, &fc)
	stage := wrapFS(sys.StagedFS(), &fc)
	cfg := bit1.Config{
		Deck:          harnessDeck(o),
		Sizing:        picworkload.Default(),
		OutDir:        "/scratch/bit1",
		Mode:          mode,
		StdioOverhead: sim.Duration(m.StdioWriteOverhead),

		OpenPMDOptions: toml,
	}
	var mu sync.Mutex
	var firstErr error
	t0 := time.Now()
	w.Run(func(r *mpisim.Rank) {
		node := r.ID / o.RanksPerNode
		if node >= len(sys.Clients) {
			node = len(sys.Clients) - 1
		}
		env := &posix.Env{FS: fs, Stage: stage, Client: sys.Clients[node], Rank: r.ID, Monitor: mon}
		if err := bit1.Run(cfg, bit1.RankEnv{Rank: r, Env: env}); err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}
	})
	runWall := time.Since(t0)
	if firstErr != nil {
		return result{}, firstErr
	}
	t1 := time.Now()
	log := col.Snapshot(darshan.JobMeta{
		Executable: "bit1." + mode.String(), NProcs: ranks,
		Machine: m.Name, RunSeconds: float64(k.Now()),
	})
	snap := time.Since(t1)
	output := func(rec *darshan.Record) bool { return !strings.HasSuffix(rec.Path, ".inp") }
	gibs := units.GiBps(log.Filter(output).WriteThroughputByElapsed())
	res := result{
		Outputs: bit1Outputs(gibs, harnessFileStats(sys, cfg.OutDir, o.EpochFactor()), k.Now()),
		Ops:     posixOps(log),
	}

	st := k.Stats()
	l := map[string]float64{
		"sim.events":          float64(st.Events()),
		"sim.queue_events":    float64(st.QueueEvents),
		"sim.fastpath_events": float64(st.FastPathEvents),
		"darshan.records":     float64(mon.records),
		"darshan.snapshot_s":  snap.Seconds(),
		"pfs.create_calls":    float64(fc.creates),
		"pfs.write_calls":     float64(fc.writes),
		"pfs.write_bytes":     float64(fc.writeBytes),
	}
	if popped := st.QueueEvents + st.Stale; popped > 0 {
		l["sim.stale_frac"] = float64(st.Stale) / float64(popped)
	}
	if ev := st.Events(); ev > 0 {
		l["sim.ns_per_event"] = float64(runWall.Nanoseconds()) / float64(ev)
	}
	if mon.records > 0 {
		l["darshan.record_ns"] = float64(mon.busy.Nanoseconds()) / float64(mon.records)
	}
	if sys.Lustre != nil {
		var ops, bytes uint64
		for i := 0; i < sys.Lustre.Params().NumOSTs; i++ {
			o, b, _ := sys.Lustre.OSTStats(i)
			ops += o
			bytes += b
		}
		l["lustre.mds_ops"] = float64(sys.Lustre.MDSOps())
		l["lustre.ost_ops"] = float64(ops)
		l["lustre.ost_bytes"] = float64(bytes)
	}
	res.Layers = l
	return res, nil
}

// harnessFileStats mirrors the runner's output-tree statistics: files
// that grow with the epoch count (BP metadata, shared histories) are
// extrapolated to the full production run.
func harnessFileStats(sys *cluster.System, dir string, factor float64) experiments.FileStats {
	var fs experiments.FileStats
	ns, ok := sys.FS.(pfs.Namespacer)
	if !ok {
		return fs
	}
	_ = ns.Namespace().WalkFiles(dir, func(path string, n *pfs.Node) { // a missing tree leaves zero stats, which the pins reject
		size := n.Size
		if strings.HasSuffix(path, "md.0") || strings.HasSuffix(path, "md.idx") || strings.Contains(path, "_global_") {
			size = int64(float64(size) * factor)
		}
		fs.Count++
		fs.TotalBytes += size
		if size > fs.MaxBytes {
			fs.MaxBytes = size
		}
	})
	if fs.Count > 0 {
		fs.AvgBytes = fs.TotalBytes / int64(fs.Count)
	}
	return fs
}
