package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// TestQueueImplementationsAgree drains a randomized event population —
// clustered times, exact ties, far-future and Infinity entries, pops
// interleaved with pushes — through the kernel's heap (evPush/evPop) and
// through a reference that keeps the same entries in a slice sorted by
// (at, seq) with sort.Slice. Both must yield the same entries in the same
// order. This is the property every replay guarantee reduces to.
func TestQueueImplementationsAgree(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 1))
		var h, ref []event
		popRef := func() event {
			sort.Slice(ref, func(i, j int) bool {
				if ref[i].at != ref[j].at {
					return ref[i].at < ref[j].at
				}
				return ref[i].seq < ref[j].seq
			})
			e := ref[0]
			ref = ref[1:]
			return e
		}
		check := func(what string) {
			t.Helper()
			var he event
			he, h = evPop(h)
			re := popRef()
			if he != re {
				t.Fatalf("trial %d: %s order diverged: heap (%v,%d) reference (%v,%d)",
					trial, what, he.at, he.seq, re.at, re.seq)
			}
		}
		var seq uint64
		now := Time(0)
		// Mixed phases of pushes and pops, with push times never earlier
		// than the last pop — the contract the kernel upholds.
		for phase := 0; phase < 40; phase++ {
			nPush := rng.Intn(60)
			for i := 0; i < nPush; i++ {
				at := now
				switch rng.Intn(10) {
				case 0: // exact tie with the current time
				case 1: // far future
					at += Time(rng.Float64()) * 1e12
				case 2:
					at = Infinity
				default: // clustered near now
					at += Time(rng.Float64()) * 10
				}
				seq++
				e := event{at: at, seq: seq}
				h = evPush(h, e)
				ref = append(ref, e)
			}
			if len(h) != len(ref) {
				t.Fatalf("trial %d: len mismatch: heap %d reference %d", trial, len(h), len(ref))
			}
			for i := rng.Intn(50); i > 0 && len(h) > 0; i-- {
				now = h[0].at
				check("pop")
			}
		}
		for len(h) > 0 {
			check("drain")
		}
		if len(ref) != 0 {
			t.Fatalf("trial %d: reference holds %d entries after the heap drained", trial, len(ref))
		}
	}
}
