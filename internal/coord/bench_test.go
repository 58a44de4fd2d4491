package coord

import (
	"context"
	"strconv"
	"testing"

	"sigstream/internal/client"
	"sigstream/internal/cluster"
	"sigstream/internal/gen"
)

// BenchmarkGatherRound times one coordinator round against three
// in-process nodes on loopback: P = 8 partitions at R = 2 in 64 KiB
// tenants, loaded with a Network-like trace, the coordinator closing the
// period on every replica before it fetches, decodes and commits the
// partition images. The replicas agree at every round, as they do under a
// producer that writes every key to all of them. images/round and
// KiB/round count the checkpoint images the sites shipped; names/round
// counts the top-name requests, which read 0 here: no ingest runs between
// the timed rounds, so every top item keeps the name the previous view
// holds.
func BenchmarkGatherRound(b *testing.B) {
	const parts, replicas, chunk = 8, 2, 10_000
	sites, srvs, _, meters := startNodes(b, 64<<10)
	co, err := New(Config{Sites: sites, Partitions: parts, Replicas: replicas, ClosePeriods: true})
	if err != nil {
		b.Fatal(err)
	}
	defer co.Close()
	ctx := context.Background()
	topo := co.Topology()
	clients := make(map[string]*client.Client, len(sites))
	for _, site := range sites {
		clients[site] = client.New(site, srvs[site].Client())
	}

	// Load 20 periods of chunk arrivals, each closed by a round, sending
	// every key to all replicas of its partition in 256-key requests.
	items := gen.NetworkLike(20*chunk, 1).Items
	keys := make([][]string, parts)
	flush := func(p int) {
		ns := cluster.PartitionNamespace(p)
		for _, site := range topo.ReplicaSites(p) {
			if _, err := clients[site].Tenant(ns).Insert(ctx, keys[p]...); err != nil {
				b.Fatal(err)
			}
		}
		keys[p] = keys[p][:0]
	}
	for start := 0; start < len(items); start += chunk {
		for _, it := range items[start:min(start+chunk, len(items))] {
			key := strconv.FormatUint(it, 10)
			p := topo.PartitionKey(key)
			if keys[p] = append(keys[p], key); len(keys[p]) == 256 {
				flush(p)
			}
		}
		for p := range keys {
			flush(p)
		}
		if rep := co.GatherNow(ctx); !rep.Committed {
			b.Fatalf("load round did not commit: %s", rep.Reason)
		}
	}

	var images, bytes int64
	for _, m := range meters {
		images -= m.images.Load()
		bytes -= m.bytes.Load()
	}
	names := co.gatherer.Stats().NameFetches
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := co.GatherNow(ctx); !rep.Committed {
			b.Fatalf("round did not commit: %s", rep.Reason)
		}
	}
	b.StopTimer()
	for _, m := range meters {
		images += m.images.Load()
		bytes += m.bytes.Load()
	}
	b.ReportMetric(float64(images)/float64(b.N), "images/round")
	b.ReportMetric(float64(bytes)/1024/float64(b.N), "KiB/round")
	b.ReportMetric(float64(co.gatherer.Stats().NameFetches-names)/float64(b.N), "names/round")
}
