package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
)

// The rollup charges every CPU-profile sample to one bucket and reports
// each bucket's share as <bucket>.self_frac (runtime.handoff_frac and
// runtime.gc_frac for the two runtime buckets). Rules, in order:
//
//  1. a sample whose leaf is a Go scheduler or channel frame is
//     runtime.handoff — the process handoff of the simulation kernel.
//     The leaf is the run of runtime frames at the top of the stack, so
//     a futex wait under a channel receive counts as handoff;
//  2. a sample with a garbage-collector frame on its stack is runtime.gc;
//  3. otherwise it goes to the innermost picmcio/internal/<layer> frame,
//     so standard-library frames (sort, map hashing) count toward the
//     layer that called them;
//  4. a layer not listed in rollupLayers, or a stack with no program
//     frame at all, is "other".

// rollupLayers are the program packages reported as their own bucket.
var rollupLayers = []string{
	"sim", "darshan", "lustre", "pfs", "posix", "stdio",
	"adios2", "openpmd", "core", "bit1", "mpisim",
	"sched", "experiments", "sweep", "burst", "compress",
}

const (
	bucketHandoff = "runtime.handoff"
	bucketGC      = "runtime.gc"
	bucketOther   = "other"
	layerPrefix   = "picmcio/internal/"
)

// handoffFrames are runtime functions of goroutine scheduling and
// channel operations; a sample whose leaf is one of them was spent
// handing control between simulated processes.
var handoffFrames = []string{
	"runtime.chansend", "runtime.chanrecv", "runtime.send", "runtime.recv",
	"runtime.selectgo", "runtime.gopark", "runtime.goready", "runtime.ready",
	"runtime.park_m", "runtime.schedule", "runtime.findRunnable", "runtime.execute",
	"runtime.mcall", "runtime.gogo", "runtime.casgstatus", "runtime.runqget",
	"runtime.runqput", "runtime.runqgrab", "runtime.runqsteal", "runtime.globrunqget",
	"runtime.stealWork", "runtime.wakep", "runtime.startm", "runtime.stopm",
	"runtime.mPark", "runtime.notesleep", "runtime.notewakeup", "runtime.futex",
	"runtime.futexsleep", "runtime.futexwakeup", "runtime.semasleep", "runtime.semawakeup",
	"runtime.usleep", "runtime.osyield", "runtime.procyield", "runtime.resetspinning",
	"runtime.acquirep", "runtime.releasep", "runtime.checkTimers", "runtime.netpoll",
}

// gcFrames are entry points of the garbage collector's own work
// (background marking, assists, sweeping, scavenging).
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain", "runtime.gcDrainN",
	"runtime.markroot", "runtime.scanobject", "runtime.scanstack", "runtime.gcStart",
	"runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.bgsweep",
	"runtime.sweepone", "runtime.bgscavenge", "runtime.(*mheap).reclaim",
	"runtime.(*sweepLocked).sweep", "runtime.wbBufFlush", "runtime.greyobject",
}

// frameIs reports whether fn is name itself or one of its numbered or
// closure variants (runtime.chanrecv1, runtime.gcDrain.func1).
func frameIs(fn, name string) bool {
	if !strings.HasPrefix(fn, name) {
		return false
	}
	rest := fn[len(name):]
	return rest == "" || rest[0] == '.' || (rest[0] >= '0' && rest[0] <= '9')
}

func anyFrame(fn string, names []string) bool {
	for _, n := range names {
		if frameIs(fn, n) {
			return true
		}
	}
	return false
}

func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/") ||
		strings.HasPrefix(fn, "runtime/internal/")
}

// layerOf returns the program layer a function belongs to, or "".
func layerOf(fn string) string {
	if !strings.HasPrefix(fn, layerPrefix) {
		return ""
	}
	rest := fn[len(layerPrefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// attribute returns the bucket of one sample; stack lists function
// names leaf first.
func attribute(stack []string) string {
	if len(stack) == 0 {
		return bucketOther
	}
	for _, fn := range stack {
		if !isRuntime(fn) {
			break
		}
		if anyFrame(fn, handoffFrames) {
			return bucketHandoff
		}
	}
	for _, fn := range stack {
		if anyFrame(fn, gcFrames) {
			return bucketGC
		}
	}
	for _, fn := range stack {
		if l := layerOf(fn); l != "" {
			for _, known := range rollupLayers {
				if l == known {
					return l
				}
			}
			return bucketOther
		}
	}
	return bucketOther
}

// rollup turns a CPU profile into per-bucket self fractions keyed by
// metric name, plus the number of samples it rests on. It fails if the
// buckets do not sum to one.
func rollup(prof []byte) (map[string]float64, int64, error) {
	stacks, weights, err := parseProfile(prof)
	if err != nil {
		return nil, 0, err
	}
	counts := map[string]int64{}
	var total int64
	for i, st := range stacks {
		counts[attribute(st)] += weights[i]
		total += weights[i]
	}
	out := map[string]float64{}
	for _, l := range rollupLayers {
		out[l+".self_frac"] = 0
	}
	out["runtime.handoff_frac"] = 0
	out["runtime.gc_frac"] = 0
	out["other.self_frac"] = 0
	if total == 0 {
		return out, 0, nil
	}
	sum := 0.0
	for b, n := range counts {
		f := float64(n) / float64(total)
		sum += f
		switch b {
		case bucketHandoff:
			out["runtime.handoff_frac"] = f
		case bucketGC:
			out["runtime.gc_frac"] = f
		default:
			out[b+".self_frac"] = f
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		return nil, 0, fmt.Errorf("rollup buckets sum to %v, not 1", sum)
	}
	return out, total, nil
}

// parseProfile decodes a gzipped pprof CPU profile (profile.proto) into
// one leaf-first function-name stack per sample and the sample's
// weight (its first value, the sample count). It reads only the fields
// the rollup needs.
func parseProfile(gz []byte) ([][]string, []int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs, vals []uint64
	}
	var (
		samples []sample
		strs    []string
		locFns  = map[uint64][]uint64{} // location id → function ids, innermost first
		fnName  = map[uint64]int64{}    // function id → string index
	)
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			if err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b)
				case 2:
					s.vals = appendVarints(s.vals, w, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f, w int, v uint64, b []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFns[id] = fns
		case 5: // function
			var id uint64
			var name int64
			if err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			fnName[id] = name
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	stacks := make([][]string, len(samples))
	weights := make([]int64, len(samples))
	for i, s := range samples {
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				idx := fnName[fn]
				if idx < 0 || idx >= int64(len(strs)) {
					return nil, nil, fmt.Errorf("profile: function %d names string %d of %d", fn, idx, len(strs))
				}
				stacks[i] = append(stacks[i], strs[idx])
			}
		}
		if len(s.vals) > 0 {
			weights[i] = int64(s.vals[0])
		}
	}
	return stacks, weights, nil
}

// appendVarints appends a repeated integer field that may be packed
// (wire type 2) or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := varint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks the fields of one protobuf message. Varint and fixed
// fields arrive in v; length-delimited ones in b.
func eachField(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := varint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = varint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
		case 2:
			l, n := varint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varint decodes one base-128 varint, returning its byte length (0 on a
// truncated or overlong encoding).
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
