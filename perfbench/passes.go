package main

import (
	"fmt"
	"os"
	"time"

	"sigstream"
)

// passStats is one set-up plus timed phase.
type passStats struct {
	setup    float64   // s
	refs     []float64 // ms the reference kernel took: before set-up, before and after the timed phase
	wall     float64   // s, timed phase
	arrivals int       // arrivals acked in the timed phase
	windows  []window  // stretches of the timed phase, for arrivals_per_s
	insert   dist      // ms per batch, submit to ack
	read     dist      // ms per read (open loop: from its due time)
	late     dist      // ms the open-loop reader ran behind schedule
	retained float64   // bytes of live heap the system holds
	acc      accuracy
	ops      tally
	rt       rtCounters
	ltc      sigstream.Stats // tracker counters at the end of the pass

	heapBefore float64       // live heap before the system was built
	windowWait time.Duration // producer blocked on a full window
	batches    int           // batch frames acked
	keys       int           // tenant key names at the end
	layer      figures       // read-path ledger of a traced pass
}

// ref is the pass's host speed: the median of its reference kernel
// timings, in ms.
func (ps *passStats) ref() float64 { return median(ps.refs) }

// window is a short stretch of a timed phase, the unit arrivals_per_s is
// reduced over: one period in core-replay and cluster-gather, ingAckWindow
// acknowledged batch frames in ingest-binary.
type window struct {
	arrivals int
	wall     float64 // s
}

// event is one acknowledged batch of a pipelined phase: when its ack
// arrived and the arrivals it acknowledged.
type event struct {
	at       time.Time
	arrivals int
}

// minSetups is how many set-ups a run times at least.
const minSetups = 5

// passFn runs one pass: a timed set-up, then (unless setupOnly) one timed
// replay of the workload's body, checked against the oracle. Every pass of
// one seed ingests the same inputs, so every pass ends in the same state.
type passFn func(t *tracer, id int64, setupOnly bool) (passStats, error)

// layerFn derives a workload's per-layer figures from its traced passes
// (whose spans are in t) and may replay their inputs through the layers'
// public functions, recording further spans in t.
type layerFn func(t *tracer, untraced, traced []passStats) (figures, error)

// loopPasses runs full passes, at least one, until budget seconds have
// gone by since it started; set-up and teardown count, so a run lasts as
// long on a slow host as on a fast one. Then it runs set-up-only passes
// until minSetups set-ups were timed.
func loopPasses(budget float64, t *tracer, pass passFn, next *int64) (full, setupOnly []passStats, err error) {
	deadline := time.Now().Add(time.Duration(budget * float64(time.Second)))
	for len(full) == 0 || time.Now().Before(deadline) {
		*next++
		ps, err := pass(t, *next, false)
		if err != nil {
			return full, setupOnly, fmt.Errorf("pass %d: %w", *next, err)
		}
		if len(full) > 0 && ps.acc != full[0].acc {
			return full, setupOnly, fmt.Errorf("pass %d scored %+v, pass 1 scored %+v on the same inputs", *next, ps.acc, full[0].acc)
		}
		full = append(full, ps)
		p50, _ := ps.insert.pct(0.5)
		r50, _ := ps.read.pct(0.5)
		fmt.Fprintf(os.Stderr, "pass %d traced=%v: reference kernel %.3gms, setup %.4fs, %.4gs timed, %.4g arrivals/s, insert p50 %.4gms, read p50 %.4gms (raw)\n",
			*next, t != nil, ps.ref(), ps.setup, ps.wall, rate(ps), p50, r50)
	}
	for len(full)+len(setupOnly) < minSetups && t == nil {
		*next++
		ps, err := pass(nil, *next, true)
		if err != nil {
			return full, setupOnly, fmt.Errorf("set-up %d: %w", *next, err)
		}
		setupOnly = append(setupOnly, ps)
	}
	return full, setupOnly, nil
}

// runPasses is every workload's driver. An untraced run spends the whole
// budget on untraced passes; a traced run spends half of it on untraced
// passes (the reference for the tracing overhead), then runs one traced
// pass and the workload's ledger replays.
func runPasses(cfg runConfig, pass passFn, layers layerFn) (outcome, error) {
	budget := cfg.seconds
	if cfg.trace {
		budget /= 2
	}
	var out outcome
	var id int64
	full, setups, err := loopPasses(budget, nil, pass, &id)
	for _, ps := range append(full, setups...) {
		out.ops.add(ps.ops)
	}
	if err != nil {
		return out, err
	}
	out.e2e = endToEnd(full, setups)
	fmt.Fprintf(os.Stderr, "perfbench: %d timed passes, %d set-ups\n", len(full), len(full)+len(setups))
	if !cfg.trace {
		return out, nil
	}
	t := newTracer(time.Now())
	traced, _, err := loopPasses(0, t, pass, &id) // one traced pass
	for _, ps := range traced {
		out.ops.add(ps.ops)
	}
	if err != nil {
		return out, err
	}
	if traced[0].acc != full[0].acc {
		return out, fmt.Errorf("traced pass scored %+v, untraced %+v on the same inputs", traced[0].acc, full[0].acc)
	}
	layer, err := layers(t, full, traced)
	if err != nil {
		return out, err
	}
	out.layer = commonLayers(full, traced, out.ops)
	for k, v := range layer {
		out.layer[k] = v
	}
	for _, lm := range layerTable {
		if _, ok := out.layer[lm.name]; !ok {
			out.layer.set(lm.name, lm.unit, 0)
		}
	}
	out.spans = t.spans
	return out, nil
}

func rate(ps passStats) float64 { return float64(ps.arrivals) / ps.wall }

// endToEnd reduces the untraced passes to the gated metrics, with every
// timing scaled to reference speed: a time measured in a pass is divided
// by the pass's reference kernel time in milliseconds, and a rate
// multiplied by it (README.md, "Host speed"). arrivals_per_s is the
// median rate over the passes' windows, so a stretch in which the
// hypervisor did not run the process slows only the few windows it falls
// in; the percentiles pool every pass's scaled samples.
func endToEnd(full, setups []passStats) figures {
	var setup, retained []float64
	var ops tally
	for _, ps := range full {
		retained = append(retained, ps.retained)
	}
	for _, ps := range append(full, setups...) {
		setup = append(setup, ps.setup/ps.ref())
		ops.add(ps.ops)
	}
	rates, insert, read := scaled(full)
	m := figures{}
	m.set("setup_s", "s", median(setup))
	m.set("arrivals_per_s", "1/s", median(rates))
	p50, _ := insert.pct(0.5)
	p90, _ := insert.pct(0.9)
	m.set("insert_p50_ms", "ms", p50)
	m.set("insert_p90_ms", "ms", p90)
	p50, _ = read.pct(0.5)
	p90, _ = read.pct(0.9)
	m.set("read_p50_ms", "ms", p50)
	m.set("read_p90_ms", "ms", p90)
	m.set("topk_precision", "ratio", full[0].acc.precision)
	m.set("topk_are", "ratio", full[0].acc.are)
	m.set("retained_mb", "MiB", median(retained)/(1<<20))
	m.set("ok_ratio", "ratio", ops.okRatio())
	return m
}

// scaled returns the passes' window rates and pooled latency samples at
// reference speed.
func scaled(full []passStats) (rates []float64, insert, read dist) {
	for _, ps := range full {
		ref := ps.ref()
		for _, w := range ps.windows {
			rates = append(rates, float64(w.arrivals)/w.wall*ref)
		}
		insert.mergeScaled(&ps.insert, 1/ref)
		read.mergeScaled(&ps.read, 1/ref)
	}
	return rates, insert, read
}

// commonLayers are the per-layer figures every workload reports: runtime
// cost of the untraced timed phases, sample counts behind the gated
// percentiles, the ungated p99s, the open-loop lateness, and the tracing
// overhead.
func commonLayers(full, traced []passStats, ops tally) figures {
	m := figures{}
	var rt rtCounters
	var arrivals int
	var late dist
	var gcs, refs, rates, tracedRates []float64
	for _, ps := range full {
		rt.add(ps.rt)
		arrivals += ps.arrivals
		gcs = append(gcs, float64(ps.rt.gcCycles))
		refs = append(refs, ps.ref())
		rates = append(rates, rate(ps))
		late.merge(&ps.late)
	}
	for _, ps := range traced {
		tracedRates = append(tracedRates, rate(ps))
	}
	m.set("runtime.alloc_bytes_per_arrival", "B", float64(rt.allocBytes)/float64(max(arrivals, 1)))
	m.set("runtime.gc_cycles", "count", median(gcs))
	// The samples behind the gated percentiles, and the ungated p99s
	// over the same scaled samples.
	_, insert, read := scaled(full)
	p99, _ := insert.pct(0.99)
	m.set("gen.insert_p99_ms", "ms", p99)
	p99, _ = read.pct(0.99)
	m.set("gen.read_p99_ms", "ms", p99)
	m.set("gen.insert_samples", "count", float64(insert.n()))
	m.set("gen.read_samples", "count", float64(read.n()))
	_, beyond := read.pct(0.9)
	m.set("gen.read_p90_beyond", "count", float64(beyond))
	m.set("host.ref_ms", "ms", median(refs))
	l50, _ := late.pct(0.5)
	l90, _ := late.pct(0.9)
	m.set("gen.read_late_p50_ms", "ms", l50)
	m.set("gen.read_late_p90_ms", "ms", l90)
	m.set("error_ratio", "ratio", ops.errorRatio())
	m.set("trace.overhead_ratio", "ratio", median(rates)/median(tracedRates))
	return m
}

// layerTable is every per-layer metric a traced run reports, on every
// workload (0 where the workload does not exercise the layer).
var layerTable = []struct{ name, unit string }{
	{"ltc.insert_ns_per_arrival", "ns"},
	{"ltc.topk_ms", "ms"},
	{"ltc.hit_ratio", "ratio"},
	{"ltc.expulsions_per_karrival", "count"},
	{"ltc.cells_swept_per_arrival", "count"},
	{"ltc.encode_ms", "ms"},
	{"ltc.image_kb", "KiB"},
	{"ltc.decode_ms", "ms"},
	{"ltc.merge_ms", "ms"},
	{"ingest.decode_ns_per_arrival", "ns"},
	{"ingest.bytes_per_arrival", "B"},
	{"ingest.window_wait_ms", "ms"},
	{"wal.append_us", "us"},
	{"wal.bytes_per_arrival", "B"},
	{"wal.syncs_per_append", "ratio"},
	{"wal.replay_ms", "ms"},
	{"snapshot.recover_ms", "ms"},
	{"snapshot.kb", "KiB"},
	{"snapshot.save_ms", "ms"},
	{"tenant.ingest_wire_us", "us"},
	{"tenant.ingest_us", "us"},
	{"tenant.topk_ms", "ms"},
	{"tenant.checkpoint_ms", "ms"},
	{"tenant.recover_ms", "ms"},
	{"tenant.keys", "count"},
	{"tenant.bytes_per_key", "B"},
	{"server.insert_handler_us", "us"},
	{"server.top_handler_ms", "ms"},
	{"server.checkpoint_handler_ms", "ms"},
	{"client.transport_ms", "ms"},
	{"cluster.round_ms", "ms"},
	{"cluster.fetch_ms", "ms"},
	{"cluster.kb_per_round", "KiB"},
	{"cluster.merged_per_fetched", "ratio"},
	{"cluster.fetch_errors", "count"},
	{"cluster.retries", "count"},
	{"coord.topk_handler_us", "us"},
	{"runtime.alloc_bytes_per_arrival", "B"},
	{"runtime.gc_cycles", "count"},
	{"gen.unattributed_ns_per_arrival", "ns"},
	{"gen.read_late_p50_ms", "ms"},
	{"gen.read_late_p90_ms", "ms"},
	{"gen.insert_p99_ms", "ms"},
	{"gen.read_p99_ms", "ms"},
	{"gen.insert_samples", "count"},
	{"gen.read_samples", "count"},
	{"gen.read_p90_beyond", "count"},
	{"error_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
	{"host.ref_ms", "ms"},
	{"host.nproc", "count"},
	{"host.gomaxprocs", "count"},
}
