package sched

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"picmcio/internal/cluster"
	"picmcio/internal/xrand"
)

// The reference policies below are the sort-based EASY and FairShare
// Picks the lane merge replaced: a stable sort of the whole queue on
// every pass, then the single-reservation backfill pass over that
// order, with the release list sorted by sort.Slice. They are the
// oracle the lane merge must match decision for decision.

type refEASY struct{ EASY }

func (refEASY) Name() string { return "ref-easy-backfill" }

func (p refEASY) Pick(v QueueView) []Decision {
	order := make([]int, len(v.Queue))
	scores := make([]float64, len(v.Queue))
	for i := range order {
		order[i] = i
		q := v.Queue[i]
		scores[i] = q.WaitHours/p.agingHours() - math.Log2(float64(q.Job.Nodes))
	}
	sort.SliceStable(order, func(a, b int) bool {
		return scores[order[a]] > scores[order[b]]
	})
	return refPickOrdered(v, order)
}

type refFairShare struct{ FairShare }

func (refFairShare) Name() string { return "ref-fair-share" }

func (p refFairShare) Pick(v QueueView) []Decision {
	order := make([]int, len(v.Queue))
	usage := make([]float64, len(v.Queue))
	scores := make([]float64, len(v.Queue))
	for i := range order {
		order[i] = i
		q := v.Queue[i]
		usage[i] = v.Usage[q.Job.Tenant]
		scores[i] = q.WaitHours/p.agingHours() - math.Log2(float64(q.Job.Nodes))
	}
	sort.SliceStable(order, func(a, b int) bool {
		if usage[order[a]] != usage[order[b]] {
			return usage[order[a]] < usage[order[b]]
		}
		return scores[order[a]] > scores[order[b]]
	})
	return refPickOrdered(v, order)
}

func refPickOrdered(v QueueView, order []int) []Decision {
	free := v.Free
	var ds []Decision
	reserved := -1
	var shadowHours float64
	var shadowExtra int
	for _, qi := range order {
		job := v.Queue[qi].Job
		if reserved < 0 {
			if job.Nodes <= free {
				ds = append(ds, Decision{QueueIndex: qi})
				free -= job.Nodes
				continue
			}
			reserved = qi
			shadowHours, shadowExtra = refReservation(v, free, ds, job.Nodes)
			continue
		}
		if job.Nodes > free {
			continue
		}
		endsBy := v.NowHours + v.Queue[qi].ServiceHours
		if endsBy > shadowHours {
			if job.Nodes > shadowExtra {
				continue
			}
			shadowExtra -= job.Nodes
		}
		ds = append(ds, Decision{QueueIndex: qi, Backfilled: true})
		free -= job.Nodes
	}
	return ds
}

func refReservation(v QueueView, freeNow int, started []Decision, need int) (float64, int) {
	var rels []release
	for _, a := range v.Running {
		rels = append(rels, release{a.EndHours, a.Nodes})
	}
	for _, d := range started {
		q := v.Queue[d.QueueIndex]
		rels = append(rels, release{v.NowHours + q.ServiceHours, q.Job.Nodes})
	}
	sort.Slice(rels, func(a, b int) bool { return rels[a].at < rels[b].at })
	avail := freeNow
	for _, r := range rels {
		avail += r.nodes
		if avail >= need {
			return r.at, avail - need
		}
	}
	return math.Inf(1), 0
}

// randomView draws a QueueView dense in the cases the lane merge must
// get exactly right: quantized waits and widths (score ties within and
// across lanes), tenants sharing a usage value, waits that rise along
// the queue when monotone is false (lanes that need their own sort),
// any free count, and running jobs with tied end times.
func randomView(rng *xrand.RNG, monotone bool) QueueView {
	widths := []int{1, 2, 3, 4, 8, 16, 32}
	tenants := []string{"a", "b", "c", "d", "e"}
	v := QueueView{NowHours: float64(rng.Intn(50)), Usage: map[string]float64{}}
	for _, t := range tenants {
		if rng.Intn(4) > 0 { // some tenants are missing: usage 0
			v.Usage[t] = float64(rng.Intn(3)) * 8
		}
	}
	n := rng.Intn(60)
	wait := float64(rng.Intn(40))
	for i := 0; i < n; i++ {
		if monotone {
			wait -= float64(rng.Intn(3)) // often equal: score ties
			if wait < 0 {
				wait = 0
			}
		} else {
			wait = float64(rng.Intn(40)) / 2
		}
		job := &Job{ID: i, Tenant: tenants[rng.Intn(len(tenants))], Nodes: widths[rng.Intn(len(widths))]}
		v.Queue = append(v.Queue, Pending{Job: job, WaitHours: wait, ServiceHours: float64(1 + rng.Intn(12))})
	}
	v.Free = rng.Intn(40)
	for i, r := 0, rng.Intn(12); i < r; i++ {
		v.Running = append(v.Running, Active{Nodes: widths[rng.Intn(len(widths))], EndHours: v.NowHours + float64(1+rng.Intn(6))})
	}
	return v
}

// TestPickMatchesReference holds the lane merge to the sort-based
// reference on randomized views, both with a scratch reused across
// every view (the indexed loop's case) and with none.
func TestPickMatchesReference(t *testing.T) {
	rng := xrand.New(xrand.SeedAt(13, 0))
	shared := &pickScratch{}
	pairs := []struct{ got, want Policy }{
		{EASY{}, refEASY{}},
		{FairShare{}, refFairShare{}},
		{EASY{AgingHours: 0.7}, refEASY{EASY{AgingHours: 0.7}}},
		{FairShare{AgingHours: 5}, refFairShare{FairShare{AgingHours: 5}}},
	}
	for i := 0; i < 4000; i++ {
		v := randomView(rng, i%3 != 0)
		for _, p := range pairs {
			want := p.want.Pick(v)
			if got := p.got.Pick(v); !reflect.DeepEqual(got, want) {
				t.Fatalf("view %d %s (fresh scratch): got %+v, want %+v", i, p.got.Name(), got, want)
			}
			sv := v
			sv.scratch = shared
			if got := p.got.Pick(sv); !reflect.DeepEqual(got, want) {
				t.Fatalf("view %d %s (shared scratch): got %+v, want %+v", i, p.got.Name(), got, want)
			}
		}
	}
}

// TestRunMatchesReferencePolicies replays realism-on Synth streams —
// fair-share usage, preemption and node failures, so continuations
// requeue at the tail mid-run — under the reference and the lane-merge
// policies: every Result must be identical but for the policy name.
func TestRunMatchesReferencePolicies(t *testing.T) {
	m := cluster.Dardel()
	for ci, c := range []struct {
		tenants int
		load    float64
	}{{3, 1.2}, {6, 2.0}} {
		pr := NewPricer(m, 5, 6)
		s := Synth{Tenants: c.tenants, Users: 2, Seed: xrand.SeedAt(29, uint64(ci))}
		mean, err := SubmitMeanForLoad(pr, m, s, c.load, 64)
		if err != nil {
			t.Fatal(err)
		}
		s.SubmitMeanHours = mean
		s.SpanHours = 150 * mean / float64(c.tenants*s.Users)
		stream, err := Synthesize(m, s)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Machine: m, Nodes: 64, Seed: 5, Pricer: pr,
			Preempt: PreemptConfig{MaxHeadWaitHours: 12, CheckpointHours: 0.5},
			Faults:  FaultConfig{MTBFNodeHours: 500, RepairHours: 6, RestartOverheadHours: 0.5},
		}
		for _, p := range []struct{ got, want Policy }{{EASY{}, refEASY{}}, {FairShare{}, refFairShare{}}} {
			want, err := Run(cfg, p.want, stream)
			if err != nil {
				t.Fatalf("case %d %s: %v", ci, p.want.Name(), err)
			}
			got, err := Run(cfg, p.got, stream)
			if err != nil {
				t.Fatalf("case %d %s: %v", ci, p.got.Name(), err)
			}
			if got.Preemptions == 0 || got.FailureKills == 0 {
				t.Errorf("case %d %s: %d preemptions, %d failure kills: the realism stack did not engage", ci, p.got.Name(), got.Preemptions, got.FailureKills)
			}
			want.Policy = got.Policy
			if !reflect.DeepEqual(got, want) {
				t.Errorf("case %d %s: Result differs from the sort-based reference (%d backfills vs %d)", ci, p.got.Name(), got.Backfills, want.Backfills)
			}
		}
	}
}

// TestSortReleasesMatchesSortSlice pins the tie order reservation
// depends on: sortReleases must permute a tie-dense release list
// exactly as sort.Slice does. Node counts are unique, so they identify
// each release's position.
func TestSortReleasesMatchesSortSlice(t *testing.T) {
	rng := xrand.New(xrand.SeedAt(17, 0))
	for i := 0; i < 500; i++ {
		n := rng.Intn(200)
		distinct := 1 + rng.Intn(6)
		rels := make([]release, n)
		for j := range rels {
			rels[j] = release{at: float64(rng.Intn(distinct)), nodes: j}
		}
		want := make([]release, n)
		copy(want, rels)
		sort.Slice(want, func(a, b int) bool { return want[a].at < want[b].at })
		sortReleases(rels)
		if !reflect.DeepEqual(rels, want) {
			t.Fatalf("list %d (%d releases, %d distinct times): sortReleases order differs from sort.Slice", i, n, distinct)
		}
	}
}

// backlogView is a ~1,000-entry queue in event-loop shape (waits
// non-increasing along the queue, three widths, eight tenants) on a
// machine with `free` nodes free.
func backlogView(free int) QueueView {
	widths := []int{2, 4, 16}
	v := QueueView{NowHours: 500, Free: free, Usage: map[string]float64{}, scratch: &pickScratch{}}
	tenants := make([]string, 8)
	for i := range tenants {
		tenants[i] = string(rune('a' + i))
		v.Usage[tenants[i]] = float64(i * 100)
	}
	rng := xrand.New(xrand.SeedAt(23, 0))
	for i := 0; i < 1000; i++ {
		job := &Job{ID: i, Tenant: tenants[rng.Intn(8)], Nodes: widths[rng.Intn(3)]}
		v.Queue = append(v.Queue, Pending{Job: job, WaitHours: float64(1000-i) / 10, ServiceHours: 4 + float64(rng.Intn(20))})
	}
	for i := 0; i < 200; i++ {
		v.Running = append(v.Running, Active{Nodes: 4, EndHours: 501 + float64(rng.Intn(30))})
	}
	return v
}

// TestPickAllocations is the host-independent gate on the reused
// scratch: after warm-up, a Pick over a deep backlog allocates nothing
// when it starts nothing and only the returned slice when it starts
// jobs.
func TestPickAllocations(t *testing.T) {
	for _, pol := range []Policy{EASY{}, FairShare{}} {
		for _, c := range []struct {
			free int
			max  float64
		}{{0, 0}, {1, 0}, {24, 1}} {
			v := backlogView(c.free)
			ds := pol.Pick(v)
			if (len(ds) > 0) != (c.max > 0) {
				t.Fatalf("%s free=%d: %d decisions; the case needs them %v", pol.Name(), c.free, len(ds), c.max > 0)
			}
			if got := testing.AllocsPerRun(50, func() { pol.Pick(v) }); got > c.max {
				t.Errorf("%s free=%d: %.1f allocations per Pick, want ≤ %.0f", pol.Name(), c.free, got, c.max)
			}
		}
	}
}

// FuzzPickMatchesReference decodes bytes into a QueueView and holds the
// lane-merge EASY and FairShare Picks to the sort-based reference. Its
// seed corpus lives under testdata/fuzz/FuzzPickMatchesReference.
func FuzzPickMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		v := fuzzView(data)
		shared := &pickScratch{}
		for _, p := range []struct{ got, want Policy }{{EASY{}, refEASY{}}, {FairShare{}, refFairShare{}}} {
			want := p.want.Pick(v)
			if got := p.got.Pick(v); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: got %+v, want %+v", p.got.Name(), got, want)
			}
			sv := v
			sv.scratch = shared
			if got := p.got.Pick(sv); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s (shared scratch): got %+v, want %+v", p.got.Name(), got, want)
			}
		}
	})
}

// fuzzView decodes a QueueView: a header byte each for the free count,
// the clock and the running-set size, a byte of usage per tenant, a
// byte per running job (width and end time), then one 3-byte record per
// queued job (wait step, width, tenant and service).
// Values are small and quantized so ties are common, and every float is
// finite (the reference sort is only defined on ordered scores).
func fuzzView(data []byte) QueueView {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	tenants := []string{"t0", "t1", "t2", "t3"}
	widths := []int{1, 2, 3, 4, 8, 16, 32, 64}
	v := QueueView{Free: int(next()), NowHours: float64(next()), Usage: map[string]float64{}}
	running := int(next() % 16)
	for _, tn := range tenants {
		v.Usage[tn] = float64(next() % 4)
	}
	for i := 0; i < running; i++ {
		b := next()
		v.Running = append(v.Running, Active{Nodes: 1 + int(b%8), EndHours: v.NowHours + float64(b>>3)})
	}
	wait := 64.0
	for id := 0; len(data) >= 3 && id < 256; id++ {
		rec := uint32(next())<<16 | uint32(next())<<8 | uint32(next())
		// Bit 23 lets the wait rise instead of fall: a non-monotone lane.
		if rec&(1<<23) != 0 {
			wait += float64(rec >> 16 & 0x7)
		} else if wait -= float64(rec >> 16 & 0x3); wait < 0 {
			wait = 0
		}
		v.Queue = append(v.Queue, Pending{
			Job:          &Job{ID: id, Tenant: tenants[rec>>8&0x3], Nodes: widths[rec>>10&0x7]},
			WaitHours:    wait,
			ServiceHours: float64(rec & 0xff),
		})
	}
	return v
}

// BenchmarkPick times one EASY and one FairShare Pick over a
// ~1,000-entry backlog, lane merge against the sort-based reference,
// at a blocked (free=1) and a starting (free=24) decision point.
func BenchmarkPick(b *testing.B) {
	for _, free := range []int{1, 24} {
		v := backlogView(free)
		for _, pol := range []Policy{EASY{}, refEASY{}, FairShare{}, refFairShare{}} {
			b.Run(fmt.Sprintf("%s/free=%d", pol.Name(), free), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					pol.Pick(v)
				}
			})
		}
	}
}
