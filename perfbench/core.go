package main

import (
	"fmt"
	"time"

	"sigstream"
	"sigstream/internal/gen"
)

// core-replay: one goroutine feeds a Network-like trace straight into
// sigstream.Sharded — the paper's core with nothing above it.
const (
	coreBatch = 1024 // arrivals per InsertBatch call
	coreEvery = 50   // TopK(topK) after every coreEvery-th period close
)

type coreSize struct {
	arrivals int // trace length (Network-like: 1000 periods)
	warm     int // warm-up periods replayed during set-up
}

func coreSizing(smoke bool) coreSize {
	if smoke {
		return coreSize{arrivals: 50_000, warm: 100}
	}
	return coreSize{arrivals: 4_000_000, warm: 100}
}

func runCore(cfg runConfig) (outcome, error) {
	size := coreSizing(cfg.smoke)
	tr := newTrace(gen.NetworkLike(size.arrivals, cfg.seed))
	ex := buildExact(tr, tr.periods(), false)
	pass := func(t *tracer, id int64, setupOnly bool) (passStats, error) {
		return corePass(tr, size.warm, ex, t, id, setupOnly)
	}
	return runPasses(cfg, pass, func(t *tracer, _, traced []passStats) (figures, error) {
		return coreLayers(t, tr, traced), nil
	})
}

func corePass(tr trace, warm int, ex exact, t *tracer, id int64, setupOnly bool) (passStats, error) {
	var ps passStats
	quiesce()
	before := liveHeap()
	ps.refs = append(ps.refs, refMs())
	root := t.begin("core.setup", id)
	start := time.Now()
	s := sigstream.NewSharded(sigstream.Config{MemoryBytes: trackerBytes, Weights: sigstream.Weights(weights)}, 0)
	for p := 0; p < warm; p++ {
		items := tr.period(p)
		for off := 0; off < len(items); off += coreBatch {
			sp := t.begin("ltc.insert_batch", id)
			s.InsertBatch(items[off:min(off+coreBatch, len(items))])
			t.end(sp)
		}
		sp := t.begin("ltc.end_period", id)
		s.EndPeriod()
		t.end(sp)
	}
	ps.setup = time.Since(start).Seconds()
	t.end(root)
	if setupOnly {
		return ps, nil
	}

	quiesce()
	ps.refs = append(ps.refs, refMs())
	rt0 := readRuntime()
	root = t.begin("core.timed", id)
	start = time.Now()
	closes := 0
	prev := start
	for p := warm; p < tr.periods(); p++ {
		items := tr.period(p)
		for off := 0; off < len(items); off += coreBatch {
			batch := items[off:min(off+coreBatch, len(items))]
			sp := t.begin("ltc.insert_batch", id)
			t0 := time.Now()
			s.InsertBatch(batch)
			ps.insert.add(msSince(t0))
			t.end(sp)
			ps.arrivals += len(batch)
			ps.ops.ok()
		}
		sp := t.begin("ltc.end_period", id)
		s.EndPeriod()
		t.end(sp)
		ps.ops.ok()
		if closes++; closes%coreEvery == 0 {
			sp := t.begin("ltc.topk", id)
			t0 := time.Now()
			_ = s.TopK(topK)
			ps.read.add(msSince(t0))
			t.end(sp)
			ps.ops.ok()
		}
		now := time.Now()
		ps.windows = append(ps.windows, window{arrivals: len(items), wall: now.Sub(prev).Seconds()})
		prev = now
	}
	ps.wall = time.Since(start).Seconds()
	t.end(root)
	ps.rt = readRuntime().sub(rt0)
	ps.refs = append(ps.refs, refMs())
	ps.retained = liveHeap() - before

	sp := t.begin("ltc.stats", id)
	st := s.Stats()
	t.end(sp)
	ps.ltc = st
	if want := uint64(tr.arrivals(0, tr.periods())); st.Arrivals != want {
		return ps, fmt.Errorf("tracker counts %d arrivals, %d were acked", st.Arrivals, want)
	}
	if st.Periods != uint64(tr.periods()) {
		return ps, fmt.Errorf("tracker counts %d periods, %d were closed", st.Periods, tr.periods())
	}
	var err error
	ps.acc, err = ex.score(s.TopK(topK))
	return ps, err
}

// coreLayers derives the per-layer figures of core-replay from its
// traced passes: every call the benchmark makes is itself a layer call.
func coreLayers(t *tracer, tr trace, traced []passStats) figures {
	l := buildLedger(t.spans)
	timed := 0
	for _, ps := range traced {
		timed += ps.arrivals
	}
	m := ltcCounters(traced[len(traced)-1].ltc)
	m.set("ltc.insert_ns_per_arrival", "ns", l.perUnit("ltc.insert_batch", len(traced)*len(tr.items)))
	m.set("ltc.topk_ms", "ms", l.perCall("ltc.topk", 1e6))
	m.set("gen.unattributed_ns_per_arrival", "ns", l.perUnit("core.timed", timed))
	return m
}

// ltcCounters turns a tracker's operation counters into per-arrival
// ratios.
func ltcCounters(st sigstream.Stats) figures {
	m := figures{}
	a := float64(max(st.Arrivals, 1))
	m.set("ltc.hit_ratio", "ratio", float64(st.Hits)/a)
	m.set("ltc.expulsions_per_karrival", "count", 1000*float64(st.Expulsions)/a)
	m.set("ltc.cells_swept_per_arrival", "count", float64(st.CellsSwept)/a)
	return m
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
