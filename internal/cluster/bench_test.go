package cluster

import (
	"context"
	"testing"

	"sigstream"
	"sigstream/internal/gen"
)

// BenchmarkViewTopK times TopK(1000) on a committed view of P = 8
// partition images of 64 KiB, 2 shards each, loaded with a Network-like
// trace of 200 periods. "first" is a view's first read, which runs the
// selection over every shard of every image; "repeat" is every later read
// no deeper than that, answered from the view's ranking.
func BenchmarkViewTopK(b *testing.B) {
	const parts, periods, perPeriod, k = 8, 200, 1000, 1000
	tc := newTestCluster(b, parts, 1, BreakerConfig{}, fastPolicy())
	tc.shapeAll(func(string) *sigstream.Sharded {
		return sigstream.NewSharded(sigstream.Config{MemoryBytes: 64 << 10}, 2)
	})
	tc.loadPartitions(gen.NetworkLike(periods*perPeriod, 1).Items, perPeriod)
	if rep := tc.g.Round(context.Background()); !rep.Committed {
		b.Fatalf("round did not commit: %s", rep.Reason)
	}
	cur := tc.g.cur
	b.Run("first", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v := &view{parts: cur.parts, names: cur.names}
			if top := v.top(k); len(top) != k {
				b.Fatalf("view answered %d entries, want %d", len(top), k)
			}
		}
	})
	b.Run("repeat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if top, _, _ := tc.g.TopK(k); len(top) != k {
				b.Fatalf("view answered %d entries, want %d", len(top), k)
			}
		}
	})
}
