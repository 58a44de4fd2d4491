package tenant

import (
	"runtime"
	"strconv"
	"testing"

	"sigstream"
	"sigstream/internal/gen"
)

// BenchmarkIngestWireUniqueKeys feeds a 256 KiB tenant 1024-key batches of
// a Network-like trace (one distinct key per five arrivals), one
// IngestWire call per op. The trace is b.N batches long and rendered
// before the clock, so every op brings keys the tenant has not seen yet
// in the same proportion. Beside ns/op and B/op it reports ns and bytes
// allocated per arrival, and the key names the tenant holds at the end,
// which grow with the distinct keys seen unless names are bounded by the
// tracker.
func BenchmarkIngestWireUniqueKeys(b *testing.B) {
	const batchKeys = 1024
	tr := gen.NetworkLike(b.N*batchKeys, 1)
	var slab []byte
	ends := make([]int, len(tr.Items))
	items := make([]sigstream.Item, len(tr.Items))
	for i, it := range tr.Items {
		from := len(slab)
		slab = strconv.AppendUint(slab, it, 10)
		ends[i] = len(slab)
		items[i] = sigstream.HashKeyBytes(slab[from:])
	}
	tr = nil
	keys := make([][]byte, batchKeys)

	r := NewRegistry(Config{Tracker: sigstream.Config{MemoryBytes: 256 << 10}, Shards: 4, Logger: quietLogger()})
	defer r.Close()
	tn, err := r.GetOrCreate("bench")
	if err != nil {
		b.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := i * batchKeys
		from := 0
		if lo > 0 {
			from = ends[lo-1]
		}
		for j := range keys {
			keys[j] = slab[from:ends[lo+j]:ends[lo+j]]
			from = ends[lo+j]
		}
		if _, err := tn.IngestWire(WireBatch{Keys: keys, Items: items[lo : lo+batchKeys]}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	arrivals := float64(b.N) * batchKeys
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/arrivals, "ns/arrival")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/arrivals, "B/arrival")
	b.ReportMetric(float64(tn.KeyCount()), "names")
}
