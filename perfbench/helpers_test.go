package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"sigstream"
	"sigstream/internal/gen"
)

func TestPercentileNearestRankWithSampleCount(t *testing.T) {
	var d dist
	for i := 100; i >= 1; i-- {
		d.add(float64(i))
	}
	for _, c := range []struct {
		q      float64
		value  float64
		beyond int
	}{{0.5, 50, 50}, {0.9, 90, 10}, {0.99, 99, 1}, {1, 100, 0}, {0.001, 1, 99}} {
		v, b := d.pct(c.q)
		if v != c.value || b != c.beyond {
			t.Errorf("pct(%v) = %v with %d beyond, want %v with %d", c.q, v, b, c.value, c.beyond)
		}
	}
	// Ties at the percentile are not beyond it.
	var ties dist
	for _, x := range []float64{1, 2, 2, 2, 3} {
		ties.add(x)
	}
	if v, b := ties.pct(0.5); v != 2 || b != 1 {
		t.Errorf("pct(0.5) of ties = %v with %d beyond, want 2 with 1", v, b)
	}
	var empty dist
	if v, b := empty.pct(0.9); v != 0 || b != 0 {
		t.Errorf("empty pct = %v, %d", v, b)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{name: "root", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 40, parent: 0},    // overlaps b
		{name: "b", start: 30, end: 60, parent: 0},    // a ∪ b covers 10..60
		{name: "c", start: 90, end: 120, parent: 0},   // clipped to 90..100
		{name: "a1", start: 15, end: 25, parent: 1},   // nested in a
		{name: "d", start: 200, end: 210, parent: -1}, // another root
	}
	got := selfTimes(spans)
	want := []int64{100 - 50 - 10, 30 - 10, 30, 30, 10, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].name, got[i], want[i])
		}
	}
	l := buildLedger(spans)
	if l.count["a"] != 1 || l.self["root"] != 40 {
		t.Errorf("ledger = %+v", l)
	}
	if got := l.perCall("a", 10); got != 2 {
		t.Errorf("perCall(a) = %v, want 2", got)
	}
}

func TestTracerNestsAndRecords(t *testing.T) {
	tr := newTracer(time.Now())
	root := tr.begin("root", 7)
	child := tr.begin("child", 7)
	tr.end(child)
	now := time.Now()
	tr.record("overlap", 7, now, now.Add(time.Millisecond))
	tr.end(root)
	if tr.spans[child].parent != root || tr.spans[2].parent != root || tr.spans[root].parent != -1 {
		t.Fatalf("parents = %+v", tr.spans)
	}
	var off *tracer // the untraced mode
	if id := off.begin("x", 1); id != -1 {
		t.Fatalf("nil tracer begin = %d", id)
	}
	off.end(-1)
	off.record("x", 1, now, now)
}

func TestScoreHashedKeys(t *testing.T) {
	tr := newTrace(gen.NetworkLike(20_000, 3))
	ex := buildExact(tr, tr.periods(), true)
	// The oracle counts the items a server derives from the string keys.
	truth := make([]sigstream.Entry, len(ex.truth))
	for i, e := range ex.truth {
		truth[i] = sigstream.Entry{Item: e.Item, Frequency: e.Frequency, Persistency: e.Persistency, Significance: e.Significance}
	}
	if _, ok := ex.o.Query(keyItem(tr.items[0])); !ok {
		t.Fatal("oracle does not know the first arrival's hashed key")
	}
	if _, ok := ex.o.Query(tr.items[0]); ok {
		t.Fatal("oracle counts raw item ids on a keyed trace")
	}
	acc, err := ex.score(truth)
	if err != nil || acc.precision != 1 || acc.are != 0 {
		t.Fatalf("exact report scored %+v, %v", acc, err)
	}
	// Halve every estimate: precision stays, ARE is 0.5 over k entries.
	half := append([]sigstream.Entry(nil), truth...)
	for i := range half {
		half[i].Significance /= 2
	}
	acc, _ = ex.score(half)
	wantARE := 0.5 * float64(len(half)) / topK
	if acc.precision != float64(len(half))/topK || math.Abs(acc.are-wantARE) > 1e-9 {
		t.Fatalf("halved report scored %+v, want ARE %v", acc, wantARE)
	}
	bad := append([]sigstream.Entry(nil), truth...)
	bad[0].Persistency = uint64(tr.periods() + 1)
	if _, err := ex.score(bad); err == nil {
		t.Fatal("persistency beyond the periods elapsed passed the check")
	}
}

func TestErrorRatioArithmetic(t *testing.T) {
	var a, b tally
	for i := 0; i < 7; i++ {
		a.ok()
	}
	a.fail()
	b.fail()
	b.ok()
	a.add(b)
	if a.attempted != 10 || a.failed != 2 {
		t.Fatalf("tally = %+v", a)
	}
	if a.errorRatio() != 0.2 || a.okRatio() != 0.8 {
		t.Fatalf("ratios = %v, %v", a.errorRatio(), a.okRatio())
	}
	var none tally
	if none.errorRatio() != 0 || none.okRatio() != 0 {
		t.Fatal("empty tally must read 0")
	}
}

func TestAckWindows(t *testing.T) {
	start := time.Now()
	var acks []event
	for i := 1; i <= 7; i++ {
		acks = append(acks, event{at: start.Add(time.Duration(i) * time.Millisecond), arrivals: i})
	}
	got := ackWindows(start, acks, 3)
	want := []window{{arrivals: 1 + 2 + 3, wall: 0.003}, {arrivals: 4 + 5 + 6, wall: 0.003}}
	if len(got) != len(want) {
		t.Fatalf("windows = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i].arrivals != want[i].arrivals || math.Abs(got[i].wall-want[i].wall) > 1e-12 {
			t.Errorf("window %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// The same work measured on a host twice as slow, with a reference
// kernel twice as slow, reduces to the same figures.
func TestEndToEndScalesToReferenceSpeed(t *testing.T) {
	pass := func(slow float64) passStats {
		ps := passStats{setup: 0.3 * slow, refs: []float64{1.4 * slow, 1.5 * slow, 1.9 * slow}, wall: 1, arrivals: 1}
		for _, ms := range []float64{1, 2, 3, 4} {
			ps.insert.add(ms * slow)
			ps.read.add(10 * ms * slow)
			ps.windows = append(ps.windows, window{arrivals: 1000, wall: 0.001 * ms * slow})
		}
		return ps
	}
	fast, slow := endToEnd([]passStats{pass(1)}, nil), endToEnd([]passStats{pass(2)}, nil)
	for name, m := range fast {
		if math.Abs(slow[name].Value-m.Value) > 1e-9*math.Abs(m.Value) {
			t.Errorf("%s: %v on the slow host, %v on the fast one", name, slow[name].Value, m.Value)
		}
	}
	// Window rates 1000/0.001·k arrivals/s at a 1.5 ms reference: the
	// median of 1.5e6/k for k = 1..4.
	if got, want := fast["arrivals_per_s"].Value, 1.5e6*(1.0/2+1.0/3)/2; math.Abs(got-want) > 1e-6 {
		t.Errorf("arrivals_per_s = %v, want %v", got, want)
	}
	if got := fast["insert_p50_ms"].Value; math.Abs(got-2/1.5) > 1e-12 {
		t.Errorf("insert_p50_ms = %v, want %v", got, 2/1.5)
	}
	if got := fast["setup_s"].Value; math.Abs(got-0.2) > 1e-12 {
		t.Errorf("setup_s = %v, want 0.3/1.5", got)
	}
}

func TestBenchmarkJSONMatchesReportedMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark")
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Errorf("workloads %v, benchmark runs %v", names, have)
	}
	e2e := endToEnd([]passStats{{wall: 1, arrivals: 1, refs: []float64{1}}}, nil)
	if len(spec.EndToEnd) != len(e2e) {
		t.Errorf("%d end-to-end metrics declared, %d reported", len(spec.EndToEnd), len(e2e))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): reported as %+v", m.Name, m.Unit, got)
		}
	}
	declared := map[string]string{}
	for _, m := range spec.PerLayer {
		declared[m.Name] = m.Unit
	}
	if len(declared) != len(layerTable) {
		t.Errorf("%d per-layer metrics declared, %d reported", len(declared), len(layerTable))
	}
	for _, m := range layerTable {
		if declared[m.name] != m.unit {
			t.Errorf("per-layer %s (%s) declared with unit %q", m.name, m.unit, declared[m.name])
		}
	}
}

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			out, err := execute(wl, runConfig{seed: 1, seconds: 0.2, trace: traced, smoke: true})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.name, traced, err)
			}
			if out.ops.attempted == 0 || out.ops.failed != 0 {
				t.Errorf("%s trace=%v: tally %+v", wl.name, traced, out.ops)
			}
			got := out.e2e
			if traced {
				got = out.layer
			}
			var missing []string
			want := map[string]bool{}
			if traced {
				for _, m := range layerTable {
					want[m.name] = true
				}
				delete(want, "host.nproc") // set by main
				delete(want, "host.gomaxprocs")
			} else {
				for k := range endToEnd([]passStats{{wall: 1, arrivals: 1, refs: []float64{1}}}, nil) {
					want[k] = true
				}
			}
			for k := range want {
				if _, ok := got[k]; !ok {
					missing = append(missing, k)
				}
			}
			sort.Strings(missing)
			if len(missing) > 0 {
				t.Errorf("%s trace=%v: missing %v", wl.name, traced, missing)
			}
			if traced && len(out.spans) == 0 {
				t.Errorf("%s: traced run recorded no spans", wl.name)
			}
		}
	}
}
