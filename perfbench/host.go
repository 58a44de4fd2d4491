package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"time"
)

// host identifies the machine a run was measured on.
type host struct {
	nproc int
	cpu   string
}

func probeHost() host {
	h := host{nproc: runtime.NumCPU(), cpu: "unknown"}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return h
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			h.cpu = strings.TrimSpace(v)
			break
		}
	}
	return h
}

// quiesce forces a full collection and returns freed pages to the OS,
// so one phase's garbage neither burdens nor flatters the next.
func quiesce() {
	runtime.GC()
	debug.FreeOSMemory()
}

// liveHeap is the heap the program retains: live bytes after two forced
// collections (the second clears sync.Pool victim caches).
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// rtCounters are the runtime counters a timed phase is charged with.
type rtCounters struct {
	allocBytes uint64
	gcCycles   uint64
}

func readRuntime() rtCounters {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	rtmetrics.Read(s)
	return rtCounters{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64()}
}

func (c rtCounters) sub(o rtCounters) rtCounters {
	return rtCounters{allocBytes: c.allocBytes - o.allocBytes, gcCycles: c.gcCycles - o.gcCycles}
}

func (c *rtCounters) add(o rtCounters) {
	c.allocBytes += o.allocBytes
	c.gcCycles += o.gcCycles
}

// The reference kernel is a fixed piece of work that calls no sigstream
// code: an xorshift stream updating a 256 KiB table and a chain of
// dependent updates across a 1 MiB one, both within a core's private
// caches, so the kernel's time follows the processor's speed rather than
// the memory traffic of the machine's other tenants. Nothing the program
// under test does moves it; every end-to-end timing is scaled by it (see
// README.md, "Host speed").
const (
	refSmallWords = 32 << 10  // uint64s: 256 KiB
	refChainWords = 256 << 10 // uint32s: 1 MiB
	refHashes     = 400_000   // table updates per repetition
	refChases     = 40_000    // dependent updates per repetition
	refReps       = 9
)

// The kernel's tables are allocated at start-up, so they sit in the live
// heap before and after every pass and cancel out of retained_mb.
var (
	refSmall = make([]uint64, refSmallWords)
	refChain = make([]uint32, refChainWords)
)

func init() {
	// Write every page now: no timed repetition may fault a page in or
	// read the kernel's shared zero page.
	for i := range refSmall {
		refSmall[i] = uint64(i)
	}
	for i := range refChain {
		refChain[i] = uint32(i)
	}
}

// refMs times the reference kernel: the median of refReps repetitions,
// in milliseconds, so a repetition the hypervisor interrupted does not
// count. A pass samples it before its set-up and before and after its
// timed phase, and scales its timings by the median of its samples.
func refMs() float64 {
	var reps [refReps]float64
	h := uint64(88172645463325252)
	for r := range reps {
		start := time.Now()
		for i := 0; i < refHashes; i++ {
			h ^= h << 13
			h ^= h >> 7
			h ^= h << 17
			refSmall[h&(refSmallWords-1)] += h
		}
		p := uint32(h)
		for i := uint32(0); i < refChases; i++ {
			p = refChain[(p*2654435761+i)&(refChainWords-1)] + p*2654435761
			refChain[(p>>7)&(refChainWords-1)]++
		}
		reps[r] = float64(time.Since(start).Nanoseconds()) / 1e6
	}
	sort.Float64s(reps[:])
	return reps[refReps/2]
}
