package sched

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// FCFS is strict first-come-first-served: jobs start in submission
// order, and a queue head that does not fit blocks everything behind it
// — the baseline whose head-of-line blocking EASY backfill exists to
// remove.
type FCFS struct{}

// Name implements Policy.
func (FCFS) Name() string { return "fcfs" }

// Pick implements Policy: start queue-order jobs while they fit; stop at
// the first that does not.
func (FCFS) Pick(v QueueView) []Decision {
	free := v.Free
	var ds []Decision
	for i, p := range v.Queue {
		if p.Job.Nodes > free {
			break
		}
		ds = append(ds, Decision{QueueIndex: i})
		free -= p.Job.Nodes
	}
	return ds
}

// PrefixBlocked implements PrefixPolicy: Pick stops at the first job
// that does not fit, so a blocked head blocks the whole pass. The
// indexed event loop uses this to skip decision points in O(1) —
// arrivals behind a blocked head, completions too narrow to unblock it.
func (FCFS) PrefixBlocked(free, headNodes int) bool { return headNodes > free }

// EASY is EASY backfill with priority aging. The queue is ordered by an
// aged priority score; the highest-priority job that does not fit gets
// the sole reservation (the earliest future instant enough nodes come
// free), and lower-priority jobs may start ahead of it only if they
// cannot delay that reservation — either they finish before it, or they
// use nodes the reservation does not need. With perfect service
// estimates (the pricer's) the reserved job is never pushed back by a
// backfill, the property that makes EASY safe to run aggressively.
//
// Priority aging keeps the ordering from degenerating into
// widest-job-starves: small jobs get a head start (they backfill well),
// but every AgingHours of queue wait cancels one doubling of node count,
// so a wide job's priority overtakes a stream of fresh narrow ones
// instead of waiting forever.
type EASY struct {
	// AgingHours is the queue wait that outweighs one log2(nodes) of job
	// width (default 2). Smaller values converge on FCFS ordering faster.
	AgingHours float64
}

// Name implements Policy.
func (p EASY) Name() string { return "easy-backfill" }

func (p EASY) agingHours() float64 {
	if p.AgingHours <= 0 {
		return 2
	}
	return p.AgingHours
}

// Pick implements Policy.
func (p EASY) Pick(v QueueView) []Decision {
	return pickLanes(v, p.agingHours(), false)
}

// FairShare is usage-ordered scheduling with EASY-style backfill: the
// queue is ordered by each job's tenant's decayed delivered usage
// (QueueView.Usage) — least-served tenant first — with the aged EASY
// score breaking ties within a tenant, then the single-reservation
// backfill pass applies unchanged. Ordering compares raw usage rather
// than normalized shares: the denominator would be a float sum over a
// map, identical ordering either way, but only the raw comparison is
// iteration-order-free.
//
// FairShare deliberately does not implement PrefixPolicy: like EASY it
// starts jobs around a blocked head, so no decision point is provably
// idle from the head alone.
type FairShare struct {
	// AgingHours is the within-tenant tiebreak aging (default 2, as EASY).
	AgingHours float64
}

// Name implements Policy.
func (p FairShare) Name() string { return "fair-share" }

func (p FairShare) agingHours() float64 {
	if p.AgingHours <= 0 {
		return 2
	}
	return p.AgingHours
}

// Pick implements Policy.
func (p FairShare) Pick(v QueueView) []Decision {
	return pickLanes(v, p.agingHours(), true)
}

// pickScratch is the working memory of one EASY or FairShare Pick: the
// lanes, the decision buffer and the reservation's release list. The
// indexed event loop hands the same scratch to every pass through its
// reused QueueView, so a steady-state Pick allocates nothing but the
// returned decisions; a view without one gets a fresh scratch.
type pickScratch struct {
	lanes []lane
	ds    []Decision
	rels  []release
}

// lane is one (usage, width) class of queued jobs in queue order, with
// each entry's aged score. usage is 0 for every EASY lane.
type lane struct {
	usage float64
	nodes int
	log2n float64
	items []laneItem
	tail  float64 // score of the last item appended
	pos   int     // next unmerged item
	stray bool    // an append raised the score: the lane needs its own sort
}

type laneItem struct {
	qi    int
	score float64
}

// ahead reports whether l's head precedes m's in priority order: higher
// score first, queue order among equal scores.
func (l *lane) ahead(m *lane) bool {
	a, b := l.items[l.pos], m.items[m.pos]
	return a.score > b.score || a.score == b.score && a.qi < b.qi
}

// laneFor returns the index of the lane keyed (usage, nodes), opening a
// new one — its item buffer kept from earlier passes — on first sight.
func (s *pickScratch) laneFor(usage float64, nodes int) int {
	for i := range s.lanes {
		if s.lanes[i].nodes == nodes && s.lanes[i].usage == usage {
			return i
		}
	}
	n := len(s.lanes)
	if n < cap(s.lanes) {
		s.lanes = s.lanes[:n+1]
	} else {
		s.lanes = append(s.lanes, lane{})
	}
	l := &s.lanes[n]
	l.usage, l.nodes, l.log2n = usage, nodes, math.Log2(float64(nodes))
	l.items, l.pos, l.stray = l.items[:0], 0, false
	return n
}

// pickLanes is the single-reservation backfill pass shared by EASY and
// FairShare: start jobs in priority order — (usage ascending when
// byUsage, then aged score descending, then queue order) — while they
// fit, give the first that does not the sole reservation, and backfill
// behind it only with starts that cannot delay the reserved instant.
//
// The priority order is produced without sorting the queue. Jobs are
// bucketed into lanes of equal (usage, width); within a lane the score
// WaitHours/AgingHours − log2(nodes) is non-increasing in queue index
// because the event loop queues every arrival and continuation at the
// tail stamped with the current clock, so waits never grow along the
// queue. Merging the lane heads by (usage, score, queue index) then
// yields exactly the permutation a stable sort of the whole queue
// would. A lane that is not monotone (a hand-built view) is
// stable-sorted on its own before the merge. Once the reservation
// exists free nodes only shrink, so a lane wider than the free count is
// dropped whole — its jobs could never start in this pass — and the
// pass ends when no lane is left. The reservation itself is computed
// only when a later job fits and must be checked against it; until
// then no decision can depend on it.
func pickLanes(v QueueView, agingHours float64, byUsage bool) []Decision {
	s := v.scratch
	if s == nil {
		s = &pickScratch{}
	}
	s.lanes = s.lanes[:0]
	var (
		tenant string
		usage  float64
		seen   bool
		last   = -1
	)
	for qi := range v.Queue {
		job := v.Queue[qi].Job
		if byUsage && (!seen || job.Tenant != tenant) {
			tenant, usage, seen = job.Tenant, v.Usage[job.Tenant], true
		}
		if last < 0 || s.lanes[last].nodes != job.Nodes || s.lanes[last].usage != usage {
			last = s.laneFor(usage, job.Nodes)
		}
		l := &s.lanes[last]
		sc := v.Queue[qi].WaitHours/agingHours - l.log2n
		if len(l.items) > 0 && sc > l.tail {
			l.stray = true
		}
		l.items = append(l.items, laneItem{qi: qi, score: sc})
		l.tail = sc
	}
	for i := range s.lanes {
		if s.lanes[i].stray {
			slices.SortStableFunc(s.lanes[i].items, func(a, b laneItem) int {
				switch {
				case a.score > b.score:
					return -1
				case a.score < b.score:
					return 1
				}
				return 0
			})
		}
	}
	if byUsage {
		slices.SortFunc(s.lanes, func(a, b lane) int { return cmp.Compare(a.usage, b.usage) })
	}

	free := v.Free
	ds := s.ds[:0]
	blocked, reserved := false, false
	var (
		need        int // the blocked job's width
		shadowHours float64
		shadowExtra int // nodes still free at the shadow time after the reservation
	)
	for g := 0; g < len(s.lanes); {
		// One merge per run of equal-usage lanes, least usage first.
		h := g + 1
		for h < len(s.lanes) && s.lanes[h].usage == s.lanes[g].usage {
			h++
		}
		group := s.lanes[g:h]
		g = h
		for {
			var best *lane
			for i := range group {
				l := &group[i]
				if l.pos == len(l.items) {
					continue
				}
				if blocked && l.nodes > free {
					l.pos = len(l.items) // can never fit again this pass
					continue
				}
				if best == nil || l.ahead(best) {
					best = l
				}
			}
			if best == nil {
				break
			}
			qi := best.items[best.pos].qi
			best.pos++
			nodes := best.nodes
			if !blocked {
				if nodes <= free {
					ds = append(ds, Decision{QueueIndex: qi})
					free -= nodes
					continue
				}
				// First blocked job: it owns the pass's single reservation.
				blocked, need = true, nodes
				continue
			}
			// A backfill candidate (it fits: wider lanes were dropped) must
			// not delay the reserved start — either by finishing before the
			// shadow time (borrowing nodes the reservation will reclaim),
			// or by running on spare nodes the reservation does not need.
			if !reserved {
				// Nothing has started since the block, so free and ds are
				// still the state the reservation is priced against.
				shadowHours, shadowExtra = s.reservation(v, free, ds, need)
				reserved = true
			}
			if v.NowHours+v.Queue[qi].ServiceHours > shadowHours {
				if nodes > shadowExtra {
					continue
				}
				shadowExtra -= nodes
			}
			ds = append(ds, Decision{QueueIndex: qi, Backfilled: true})
			free -= nodes
		}
	}
	s.ds = ds
	if len(ds) == 0 {
		return nil
	}
	return slices.Clone(ds)
}

// release is a future instant at which nodes come free.
type release struct {
	at    float64
	nodes int
}

// sortReleases orders releases by time. Ties keep the order pdqsort
// gives them — the same as sort.Slice's, which shares its algorithm —
// and that order matters: the spare-node count reservation returns
// depends on how many tied releases it has folded in.
func sortReleases(rels []release) {
	slices.SortFunc(rels, func(a, b release) int {
		switch {
		case a.at < b.at:
			return -1
		case a.at > b.at:
			return 1
		}
		return 0
	})
}

// reservation computes the blocked head's shadow time — the earliest
// instant enough nodes are free for it, assuming the decisions already
// taken start now and running jobs end at their predicted times — and
// how many nodes remain spare at that instant beyond the head's need.
func (s *pickScratch) reservation(v QueueView, freeNow int, started []Decision, need int) (shadow float64, extra int) {
	rels := s.rels[:0]
	for _, a := range v.Running {
		rels = append(rels, release{a.EndHours, a.Nodes})
	}
	// Jobs this Pick already started hold their nodes until now+service.
	for _, d := range started {
		q := v.Queue[d.QueueIndex]
		rels = append(rels, release{v.NowHours + q.ServiceHours, q.Job.Nodes})
	}
	sortReleases(rels)
	s.rels = rels
	avail := freeNow
	for _, r := range rels {
		avail += r.nodes
		if avail >= need {
			return r.at, avail - need
		}
	}
	// Unreachable with a sane partition (the head fits an empty machine);
	// treat as "never" so no backfill is constrained by it.
	return math.Inf(1), 0
}

// Policies returns the named policy (the set the figsched artifact
// sweeps over).
func Policies(name string) (Policy, error) {
	switch name {
	case "fcfs":
		return FCFS{}, nil
	case "easy-backfill", "easy":
		return EASY{}, nil
	case "fair-share", "fair":
		return FairShare{}, nil
	}
	return nil, fmt.Errorf("sched: unknown policy %q", name)
}
