// Command siggen generates the synthetic workloads used by the experiments
// and writes them as text (one "item period" pair per line) or binary
// (16-byte header + little-endian uint64 items; see internal/traceio).
// With -ingest it instead streams the workload live at a sigserver's
// framed binary ingest listener, period boundaries included. With
// -cluster it fans the workload out across a sigcoord-coordinated fleet:
// each key is hashed to its partition with the exact partition map the
// coordinator derives (same member list, same hash), and written to the
// partition's namespace on every one of its replica sites, so the
// gathered cluster view counts each arrival once at any replication
// factor.
//
// Usage:
//
//	siggen -preset caida -n 1000000 > caida.txt
//	siggen -m 50000 -periods 100 -skew 1.1 -head 500 -window 0.3
//	siggen -preset network -n 1000000 -ingest localhost:9090 -ingest-window 8
//	siggen -n 100000 -cluster http://n1:8080,http://n2:8080,http://n3:8080 \
//	    -cluster-partitions 16 -cluster-replicas 2
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"sigstream/internal/client"
	"sigstream/internal/cluster"
	"sigstream/internal/gen"
	"sigstream/internal/ingest"
	"sigstream/internal/stream"
	"sigstream/internal/traceio"
)

func main() {
	var (
		preset  = flag.String("preset", "", "workload preset: caida, network, social (overrides shape flags)")
		n       = flag.Int("n", 1_000_000, "number of arrivals")
		m       = flag.Int("m", 100_000, "distinct items")
		periods = flag.Int("periods", 100, "number of periods")
		skew    = flag.Float64("skew", 1.0, "Zipf skew γ")
		head    = flag.Int("head", 100, "persistent head size")
		window  = flag.Float64("window", 0.3, "mean tail active-window fraction")
		seed    = flag.Int64("seed", 1, "generation seed")
		binOut  = flag.Bool("bin", false, "binary output (traceio format: header + uint64 LE items)")

		ingestAddr  = flag.String("ingest", "", "stream the workload to this sigserver binary ingest address instead of writing it out")
		ingestNS    = flag.String("tenant", "", "namespace for -ingest frames (empty = default tenant)")
		ingestBatch = flag.Int("ingest-batch", 512, "arrivals per -ingest batch frame")
		ingestWin   = flag.Int("ingest-window", 1, "unacked -ingest frames in flight (1 = synchronous)")
		ingestUDP   = flag.Bool("ingest-udp", false, "use the UDP fire-and-forget transport for -ingest")

		clusterSites    = flag.String("cluster", "", "comma-separated sigserver base URLs: fan the workload out over the cluster's partition namespaces instead of writing it out")
		clusterParts    = flag.Int("cluster-partitions", 16, "partition count P for -cluster (must match sigcoord's -partitions)")
		clusterReplicas = flag.Int("cluster-replicas", 2, "replication factor R for -cluster (must match sigcoord's -replicas)")
	)
	flag.Parse()

	var s *stream.Stream
	switch *preset {
	case "caida":
		s = gen.CAIDALike(*n, *seed)
	case "network":
		s = gen.NetworkLike(*n, *seed)
	case "social":
		s = gen.SocialLike(*n, *seed)
	case "":
		s = gen.Generate(gen.Config{N: *n, M: *m, Periods: *periods,
			Skew: *skew, Head: *head, TailWindowFrac: *window, Seed: *seed,
			Label: "custom"})
	default:
		fmt.Fprintf(os.Stderr, "siggen: unknown preset %q\n", *preset)
		os.Exit(2)
	}

	var err error
	switch {
	case *clusterSites != "":
		err = shipCluster(s, *clusterSites, *clusterParts, *clusterReplicas, *ingestBatch)
	case *ingestAddr != "":
		err = shipIngest(s, *ingestAddr, *ingestNS, *ingestBatch, *ingestWin, *ingestUDP)
	case *binOut:
		err = traceio.WriteBinary(os.Stdout, s)
	default:
		err = traceio.WriteText(os.Stdout, s)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "siggen:", err)
		os.Exit(1)
	}
}

// shipIngest replays the stream over the binary ingest protocol: items
// are rendered as decimal keys (the same rendering a text trace feeds
// through /v1/insert), batched, and a period frame sent at every period
// boundary. Every key is rendered before the clock starts, into one
// string the batches slice, so the reported rate prices the transport and
// the server rather than decimal formatting. Over TCP the final Close
// waits for every ack, so a zero exit means the server applied — and,
// with a WAL, fsynced — the whole workload.
func shipIngest(s *stream.Stream, addr, ns string, batch, win int, udp bool) error {
	if batch < 1 {
		batch = 1
	}
	network := "tcp"
	if udp {
		network = "udp"
	}
	conn, err := ingest.Dial(addr, ingest.Options{
		Namespace: ns,
		Window:    win,
		Network:   network,
	})
	if err != nil {
		return err
	}
	var buf []byte
	ends := make([]int, len(s.Items))
	for i, it := range s.Items {
		buf = strconv.AppendUint(buf, it, 10)
		ends[i] = len(buf)
	}
	rendered := string(buf)
	per := s.ItemsPerPeriod()
	keys := make([]string, 0, batch)
	flushBatch := func() error {
		if len(keys) == 0 {
			return nil
		}
		err := conn.Insert(keys...)
		keys = keys[:0]
		return err
	}
	start := time.Now()
	from := 0
	for i, end := range ends {
		if i > 0 && per > 0 && i%per == 0 {
			if err := flushBatch(); err != nil {
				_ = conn.Close()
				return err
			}
			if err := conn.Period(); err != nil {
				_ = conn.Close()
				return err
			}
		}
		keys = append(keys, rendered[from:end])
		from = end
		if len(keys) == batch {
			if err := flushBatch(); err != nil {
				_ = conn.Close()
				return err
			}
		}
	}
	if err := flushBatch(); err != nil {
		_ = conn.Close()
		return err
	}
	if err := conn.Period(); err != nil {
		_ = conn.Close()
		return err
	}
	if err := conn.Close(); err != nil {
		return err
	}
	elapsed := time.Since(start)
	rate := float64(len(s.Items)) / elapsed.Seconds() / 1e6
	fmt.Fprintf(os.Stderr, "siggen: shipped %d arrivals over %s in %s (%.2f Mitems/s, %d acked)\n",
		len(s.Items), network, elapsed.Round(time.Millisecond), rate, conn.Accepted())
	return nil
}

// shipCluster fans the workload out across a replicated cluster over
// HTTP. Each key is routed to the partition the coordinator's own map
// assigns it (cluster.Topology is deterministic in the member list, so
// producer and coordinator agree without coordination) and written to
// that partition's namespace on every replica site; period boundaries
// close the period on every (site, namespace) pair the run has touched.
// Replica writes are what make single-node death lossless — the
// coordinator keeps exactly one replica image per partition, so the
// duplication never inflates counts.
func shipCluster(s *stream.Stream, sitesCSV string, partitions, replicas, batch int) error {
	var sites []string
	for _, part := range strings.Split(sitesCSV, ",") {
		if trimmed := strings.TrimSpace(part); trimmed != "" {
			sites = append(sites, trimmed)
		}
	}
	if replicas > len(sites) {
		replicas = len(sites)
	}
	topo, err := cluster.NewTopology(sites, partitions, replicas)
	if err != nil {
		return err
	}
	if batch < 1 {
		batch = 1
	}
	ctx := context.Background()
	httpc := &http.Client{Timeout: 30 * time.Second}
	clients := make(map[string]*client.Client, len(sites))
	for _, site := range topo.Sites() {
		clients[site] = client.New(site, httpc)
	}

	// pending buffers keys per (site, namespace); touched remembers every
	// pair that received data so period boundaries reach all of them.
	type target struct{ site, ns string }
	pending := make(map[target][]string)
	touched := make(map[target]bool)
	flush := func(tg target) error {
		keys := pending[tg]
		if len(keys) == 0 {
			return nil
		}
		if _, err := clients[tg.site].Tenant(tg.ns).Insert(ctx, keys...); err != nil {
			return fmt.Errorf("insert %s on %s: %w", tg.ns, tg.site, err)
		}
		pending[tg] = keys[:0]
		touched[tg] = true
		return nil
	}
	flushAll := func() error {
		for tg := range pending {
			if err := flush(tg); err != nil {
				return err
			}
		}
		return nil
	}
	closePeriods := func() error {
		for tg := range touched {
			if _, err := clients[tg.site].Tenant(tg.ns).EndPeriod(ctx); err != nil {
				return fmt.Errorf("period %s on %s: %w", tg.ns, tg.site, err)
			}
		}
		return nil
	}

	per := s.ItemsPerPeriod()
	start := time.Now()
	sent := 0
	for i, it := range s.Items {
		if i > 0 && per > 0 && i%per == 0 {
			if err := flushAll(); err != nil {
				return err
			}
			if err := closePeriods(); err != nil {
				return err
			}
		}
		key := strconv.FormatUint(it, 10)
		p := topo.PartitionKey(key)
		ns := cluster.PartitionNamespace(p)
		for _, site := range topo.ReplicaSites(p) {
			tg := target{site: site, ns: ns}
			pending[tg] = append(pending[tg], key)
			if len(pending[tg]) >= batch {
				if err := flush(tg); err != nil {
					return err
				}
			}
		}
		sent++
	}
	if err := flushAll(); err != nil {
		return err
	}
	if err := closePeriods(); err != nil {
		return err
	}
	elapsed := time.Since(start)
	rate := float64(sent) / elapsed.Seconds() / 1e6
	fmt.Fprintf(os.Stderr, "siggen: fanned %d arrivals out to %d sites (P=%d, R=%d) in %s (%.2f Mitems/s per replica)\n",
		sent, len(sites), topo.Partitions(), topo.Replicas(), elapsed.Round(time.Millisecond), rate)
	return nil
}
