package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"

	"sigstream"
	"sigstream/internal/client"
	"sigstream/internal/cluster"
	"sigstream/internal/server"
	"sigstream/internal/tenant"
)

// clusterReadLedger times the read path on the traced pass's final
// cluster: every partition checkpoint fetched from every replica, the
// tracker codec and merge on the fetched images, the node's checkpoint
// and top handlers, and the coordinator's top-k handler.
func clusterReadLedger(c *clusterLive, t *tracer) (figures, error) {
	m := figures{}
	ctx := context.Background()
	images := make([][]byte, clusterParts)
	var fetched int
	for part := 0; part < clusterParts; part++ {
		ns := cluster.PartitionNamespace(part)
		for _, site := range c.topo.ReplicaSites(part) {
			sp := t.begin("cluster.fetch", -1)
			img, err := client.New(site, c.hc).Tenant(ns).Checkpoint(ctx)
			t.end(sp)
			if err != nil {
				return nil, err
			}
			images[part] = img
			fetched += len(img)
		}
	}
	m.set("cluster.kb_per_round", "KiB", float64(fetched)/1024)
	m.set("ltc.image_kb", "KiB", float64(fetched)/1024/float64(clusterParts*clusterReplicas))
	if err := codecLedger(t, images[0]); err != nil {
		return nil, err
	}
	for i := 0; i < ledgerReps; i++ {
		sp := t.begin("ltc.merge", -1)
		_, err := sigstream.MergeShardedCheckpoints(images...)
		t.end(sp)
		if err != nil {
			return nil, err
		}
	}
	ns := cluster.PartitionNamespace(0)
	node := c.nodeAt(c.topo.ReplicaSites(0)[0])
	tn, err := node.Tenants().Get(ns)
	if err != nil {
		return nil, err
	}
	for i := 0; i < ledgerReps; i++ {
		sp := t.begin("tenant.checkpoint", -1)
		_, err := tn.CheckpointImage()
		t.end(sp)
		if err != nil {
			return nil, err
		}
		sp = t.begin("tenant.topk", -1)
		_, err = tn.TopK(topK)
		t.end(sp)
		if err != nil {
			return nil, err
		}
		if err := serveRecorded(t, "server.checkpoint_handler", node, http.MethodGet, "/v1/t/"+ns+"/checkpoint", nil); err != nil {
			return nil, err
		}
		if err := serveRecorded(t, "server.top_handler", node, http.MethodGet, fmt.Sprintf("/v1/t/%s/top?k=%d", ns, topK), nil); err != nil {
			return nil, err
		}
		if err := serveRecorded(t, "coord.topk_handler", c.co, http.MethodGet, fmt.Sprintf("/v1/topk?k=%d", topK), nil); err != nil {
			return nil, err
		}
	}
	var st struct {
		Rounds      uint64 `json:"rounds"`
		Commits     uint64 `json:"commits"`
		Fetches     uint64 `json:"fetches"`
		FetchErrors uint64 `json:"fetch_errors"`
	}
	if err := getJSON(ctx, c.hc, c.cfront.url+"/v1/stats", &st); err != nil {
		return nil, err
	}
	m.set("cluster.fetch_errors", "count", float64(st.FetchErrors))
	m.set("cluster.retries", "count", float64(st.Fetches)-float64(st.Rounds*clusterParts*clusterReplicas))
	m.set("cluster.merged_per_fetched", "ratio", float64(st.Commits*clusterParts)/float64(max(st.Fetches, 1)))
	return m, nil
}

// clusterWriteLedger replays the timed phase's insert bodies, once per
// body, in send order: the node's insert handler on a recorder, then the
// calls it makes — Tenant.IngestWire with the parsed keys and
// Sharded.InsertBatch alone — and Tenant.Ingest with the keys as strings.
// Like ingWriteLedger, the replay tenants carry no WAL.
func clusterWriteLedger(in *clusterInputs, t *tracer) error {
	node := server.New(nodeConfig())
	defer node.Close()
	cfg := sigstream.Config{MemoryBytes: nodeTrackerBytes, Weights: sigstream.Weights(weights)}
	reg := tenant.NewRegistry(tenant.Config{Tracker: cfg, Logger: discard})
	defer reg.Close()
	wire := make([]*tenant.Tenant, clusterParts)
	strs := make([]*tenant.Tenant, clusterParts)
	trackers := make([]*sigstream.Sharded, clusterParts)
	for p := range wire {
		var err error
		if wire[p], err = reg.GetOrCreate(fmt.Sprintf("wire-%d", p)); err != nil {
			return err
		}
		if strs[p], err = reg.GetOrCreate(fmt.Sprintf("strings-%d", p)); err != nil {
			return err
		}
		trackers[p] = sigstream.NewSharded(cfg, 0)
	}
	var keys [][]byte
	var strKeys []string
	var items []sigstream.Item
	for p := in.size.warm; p < in.tr.periods(); p++ {
		for i := in.bodies.starts[p]; i < in.bodies.starts[p+1]; i++ {
			req := int64(i)
			part := int(in.bodies.part[i])
			body := in.bodies.body(i)
			target := "/v1/t/" + cluster.PartitionNamespace(part) + "/insert"
			root := t.begin("server.request", req)
			if err := serveRecorded(t, "server.insert_handler", node, http.MethodPost, target, body); err != nil {
				return err
			}
			t.end(root)

			keys, strKeys, items = keys[:0], strKeys[:0], items[:0]
			for _, k := range bytes.Split(bytes.TrimSuffix(body, []byte{'\n'}), []byte{'\n'}) {
				keys = append(keys, k)
				strKeys = append(strKeys, string(k))
				items = append(items, sigstream.HashKeyBytes(k))
			}
			root = t.begin("replay.components", req)
			sp := t.begin("tenant.ingest_wire", req)
			_, err := wire[part].IngestWire(tenant.WireBatch{Keys: keys, Items: items})
			t.end(sp)
			if err != nil {
				return err
			}
			sp = t.begin("ltc.insert_batch", req)
			trackers[part].InsertBatch(items)
			t.end(sp)
			sp = t.begin("tenant.ingest", req)
			_, err = strs[part].Ingest(strKeys)
			t.end(sp)
			t.end(root)
			if err != nil {
				return err
			}
		}
		for part := 0; part < clusterParts; part++ {
			ns := cluster.PartitionNamespace(part)
			if err := serveRecorded(nil, "", node, http.MethodPost, "/v1/t/"+ns+"/period", nil); err != nil {
				return err
			}
			_, err1 := wire[part].EndPeriod()
			_, err2 := strs[part].EndPeriod()
			trackers[part].EndPeriod()
			if err1 != nil || err2 != nil {
				return fmt.Errorf("replay period close: %v %v", err1, err2)
			}
		}
	}
	return nil
}

// clusterLayers assembles cluster-gather's per-layer metrics.
func clusterLayers(in *clusterInputs, t *tracer, traced []passStats) (figures, error) {
	if err := clusterWriteLedger(in, t); err != nil {
		return nil, err
	}
	last := traced[len(traced)-1]
	m := ltcCounters(last.ltc)
	for k, v := range last.layer {
		m[k] = v
	}
	l := buildLedger(t.spans)
	arrivals := in.tr.arrivals(in.size.warm, in.tr.periods())
	calls := float64(max(l.count["tenant.ingest_wire"], 1))
	ltcSelf := l.self["ltc.insert_batch"]
	m.set("ltc.insert_ns_per_arrival", "ns", l.perUnit("ltc.insert_batch", arrivals))
	m.set("ltc.decode_ms", "ms", l.perCall("ltc.decode", 1e6))
	m.set("ltc.encode_ms", "ms", l.perCall("ltc.encode", 1e6))
	m.set("ltc.merge_ms", "ms", l.perCall("ltc.merge", 1e6))
	m.set("tenant.ingest_wire_us", "us", float64(l.self["tenant.ingest_wire"]-ltcSelf)/calls/1e3)
	m.set("tenant.ingest_us", "us", float64(l.self["tenant.ingest"]-ltcSelf)/calls/1e3)
	m.set("tenant.topk_ms", "ms", l.perCall("tenant.topk", 1e6))
	m.set("tenant.checkpoint_ms", "ms", l.perCall("tenant.checkpoint", 1e6))
	m.set("server.insert_handler_us", "us", l.perCall("server.insert_handler", 1e3))
	m.set("server.top_handler_ms", "ms", l.perCall("server.top_handler", 1e6))
	m.set("server.checkpoint_handler_ms", "ms", l.perCall("server.checkpoint_handler", 1e6))
	m.set("coord.topk_handler_us", "us", l.perCall("coord.topk_handler", 1e3))
	m.set("client.transport_ms", "ms", l.perCall("client.insert", 1e6)-l.perCall("server.insert_handler", 1e6))
	m.set("cluster.round_ms", "ms", l.perCall("coord.gather", 1e6))
	m.set("cluster.fetch_ms", "ms", l.perCall("cluster.fetch", 1e6))
	// Wall time per arrival minus the server-side work the ledger prices:
	// every insert request at the replayed handler's mean, every gather
	// round, every coordinator top-k at its handler's mean.
	var wall float64
	var seen int
	for _, ps := range traced {
		wall += ps.wall
		seen += ps.arrivals
	}
	server := float64(l.count["client.insert"])*l.perCall("server.insert_handler", 1) +
		float64(l.self["coord.gather"]) + float64(l.count["client.topk"])*l.perCall("coord.topk_handler", 1)
	m.set("gen.unattributed_ns_per_arrival", "ns", (wall*1e9-server)/float64(seen))
	return m, nil
}
