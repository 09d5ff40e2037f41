package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"picmcio/internal/bit1"
	"picmcio/internal/cluster"
	"picmcio/internal/experiments"
	"picmcio/internal/pfs"
	"picmcio/internal/sched"
	"picmcio/internal/sim"
)

func TestAttributeRules(t *testing.T) {
	cases := []struct {
		name  string
		stack []string // leaf first
		want  string
	}{
		{"sort under sched", []string{
			"sort.insertionSort_func", "sort.stable_func", "sort.SliceStable",
			"picmcio/internal/sched.EASY.Pick", "main.(*tracedPolicy).Pick",
			"picmcio/internal/sched.(*engine).loop", "main.main",
		}, "sched"},
		{"map hash under darshan", []string{
			"runtime.memhash", "internal/runtime/maps.(*Map).getWithKey", "runtime.mapaccess2",
			"picmcio/internal/darshan.(*Collector).Record", "main.(*tracedMonitor).Record",
			"picmcio/internal/posix.(*Env).record", "picmcio/internal/stdio.(*File).flushChunk",
		}, "darshan"},
		{"chanrecv leaf", []string{
			"runtime.chanrecv", "runtime.chanrecv1", "picmcio/internal/sim.(*Proc).yield",
			"picmcio/internal/lustre.(*FS).Create",
		}, bucketHandoff},
		{"futex under channel send", []string{
			"runtime.futex", "runtime.futexwakeup", "runtime.notewakeup", "runtime.startm",
			"runtime.wakep", "runtime.ready", "runtime.goready", "runtime.send",
			"runtime.chansend", "runtime.chansend1", "picmcio/internal/sim.(*Kernel).Run",
		}, bucketHandoff},
		{"background mark worker", []string{
			"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2",
			"runtime.systemstack", "runtime.gcBgMarkWorker",
		}, bucketGC},
		{"assist under a layer", []string{
			"runtime.scanobject", "runtime.gcDrainN", "runtime.mallocgc",
			"picmcio/internal/adios2.(*Engine).Put",
		}, bucketGC},
		{"allocation charged to its layer", []string{
			"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.makeslice",
			"picmcio/internal/openpmd.(*Series).Flush", "picmcio/internal/bit1.runOpenPMD",
		}, "openpmd"},
		{"closure of a layer", []string{"picmcio/internal/sim.(*Kernel).Run.func1"}, "sim"},
		{"unmapped package", []string{
			"picmcio/internal/xrand.(*Rand).Float64", "picmcio/internal/lustre.(*FS).jitter",
		}, bucketOther},
		{"no program frame", []string{"encoding/json.Marshal", "main.benchMain", "main.main"}, bucketOther},
		{"empty stack", nil, bucketOther},
	}
	for _, c := range cases {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("%s: attribute = %q, want %q", c.name, got, c.want)
		}
	}
}

// TestRollupOfRealProfile decodes a CPU profile of this process and
// checks that every sample lands in exactly one reported bucket.
func TestRollupOfRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	sink := 0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			sink += i * i
		}
	}
	pprof.StopCPUProfile()
	_ = sink
	stacks, _, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) == 0 {
		t.Fatal("profile has no samples")
	}
	found := false
	for _, st := range stacks {
		for _, fn := range st {
			found = found || strings.Contains(fn, "TestRollupOfRealProfile")
		}
	}
	if !found {
		t.Error("no sample names the test function; stacks were decoded wrongly")
	}
	fracs, n, err := rollup(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("rollup counted no samples")
	}
	sum := 0.0
	for _, f := range fracs {
		sum += f
	}
	if sum < 1-1e-9 || sum > 1+1e-9 {
		t.Errorf("buckets sum to %v", sum)
	}
	if fracs["other.self_frac"] < 0.5 {
		t.Errorf("a busy loop outside the program should land in other, got %v", fracs)
	}
}

func TestCheckPinsRejectsWrongPin(t *testing.T) {
	run, err := prepareBIT1(0, bp4Nodes, 0, bit1.IOOpenPMD)
	if err != nil {
		t.Fatal(err)
	}
	res, err := run(false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pinsFor("bit1-bp4", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkPins(res.Outputs, want); err != nil {
		t.Fatalf("untraced run misses its pins: %v", err)
	}
	wrong := map[string]string{}
	for k, v := range want {
		wrong[k] = v
	}
	wrong["files"] = "56"
	err = checkPins(res.Outputs, wrong)
	if err == nil || !strings.Contains(err.Error(), "files = 55, pinned 56") {
		t.Errorf("a wrong pin was not reported: %v", err)
	}
	delete(wrong, "files")
	wrong["files"] = want["files"]
	delete(res.Outputs, "elapsed")
	if err := checkPins(res.Outputs, wrong); err == nil || !strings.Contains(err.Error(), "elapsed missing") {
		t.Errorf("a missing output was not reported: %v", err)
	}
}

// TestTracedBIT1MatchesPublic holds the traced harness to the untraced
// public entry point on small machines, in both I/O modes.
func TestTracedBIT1MatchesPublic(t *testing.T) {
	m := cluster.Dardel()
	o := experiments.Options{Seed: 3}
	for _, c := range []struct {
		mode bit1.IOMode
		toml string
	}{{bit1.IOOriginal, ""}, {bit1.IOOpenPMD, bp4TOML(2)}} {
		r, err := o.RunBIT1Public(m, 2, c.mode, c.toml)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := tracedBIT1(o, m, 2, c.mode, c.toml)
		if err != nil {
			t.Fatal(err)
		}
		if want := bit1Outputs(r.ThroughputGiBs, r.Files, r.Elapsed); !reflect.DeepEqual(tr.Outputs, want) {
			t.Errorf("%v: traced outputs %v, public %v", c.mode, tr.Outputs, want)
		}
		if tr.Ops != posixOps(r.Log) {
			t.Errorf("%v: traced ops %v, public %v", c.mode, tr.Ops, posixOps(r.Log))
		}
		again, err := tracedBIT1(o, m, 2, c.mode, c.toml)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"sim.events", "lustre.mds_ops", "darshan.records", "pfs.create_calls", "pfs.write_calls"} {
			if tr.Layers[k] <= 0 || tr.Layers[k] != again.Layers[k] {
				t.Errorf("%v: %s = %v then %v, want equal positive counts", c.mode, k, tr.Layers[k], again.Layers[k])
			}
		}
	}
}

func TestDecoratorsForwardOptionalInterfaces(t *testing.T) {
	m := cluster.Dardel()
	sys, err := m.Build(sim.NewKernel(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	var c fsCounts
	for _, fs := range []pfs.FileSystem{sys.FS, sys.StagedFS()} {
		w := wrapFS(fs, &c)
		_, innerSt := fs.(pfs.Stager)
		_, innerNS := fs.(pfs.Namespacer)
		_, st := w.(pfs.Stager)
		_, ns := w.(pfs.Namespacer)
		if st != innerSt || ns != innerNS {
			t.Errorf("%s: wrapper Stager/Namespacer = %v/%v, inner %v/%v", fs.Name(), st, ns, innerSt, innerNS)
		}
	}
	if wrapFS(nil, &c) != nil {
		t.Error("wrapping no file system must give none")
	}
	for _, pol := range []sched.Policy{sched.FCFS{}, sched.EASY{}, sched.FairShare{}} {
		_, w := wrapPolicy(pol)
		_, inner := pol.(sched.PrefixPolicy)
		if _, got := w.(sched.PrefixPolicy); got != inner {
			t.Errorf("%s: wrapper PrefixPolicy = %v, inner %v", pol.Name(), got, inner)
		}
		if w.Name() != pol.Name() {
			t.Errorf("wrapper renames %s to %s", pol.Name(), w.Name())
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workload and metric
// lists in step with what the benchmark reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	for _, w := range workloads {
		for v := uint64(0); v < variants; v++ {
			if _, err := pinsFor(w.name, v); err != nil {
				t.Error(err)
			}
		}
	}
}
