package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"sigstream"
	"sigstream/internal/ingest"
	"sigstream/internal/server"
	"sigstream/internal/snapshot"
	"sigstream/internal/tenant"
	"sigstream/internal/wal"
)

// Ledger replays. The server calls frame decode, the tenant, the WAL and
// the tracker internally, where the benchmark cannot put a span. A traced
// run therefore replays the pass's own inputs through those layers'
// public functions, in the order the server calls them, and times each
// call as a span (req = the frame index; -1 for one-off calls).

// ledgerReps is how often a one-off read-path call is repeated;
// saveReps is the same for Tenant.Save, which takes about half a second.
const (
	ledgerReps = 10
	saveReps   = 3
)

// ingReadLedger times the read path on the traced pass's final state —
// the tenant's TopK and checkpoint, the HTTP top handler on a recorder,
// the tracker codec on the tenant's image — then Tenant.Save.
func ingReadLedger(live *ingLive, t *tracer) (figures, error) {
	m := figures{}
	tn, err := live.srv.Tenants().Get(ingNS)
	if err != nil {
		return nil, err
	}
	for i := 0; i < ledgerReps; i++ {
		sp := t.begin("tenant.topk", -1)
		_, err = tn.TopK(topK)
		t.end(sp)
		if err != nil {
			return nil, err
		}
		if err := serveRecorded(t, "server.top_handler", live.srv, http.MethodGet, fmt.Sprintf("/v1/t/%s/top?k=%d", ingNS, topK), nil); err != nil {
			return nil, err
		}
	}
	var img []byte
	for i := 0; i < ledgerReps; i++ {
		sp := t.begin("tenant.checkpoint", -1)
		img, err = tn.CheckpointImage()
		t.end(sp)
		if err != nil {
			return nil, err
		}
	}
	if err := codecLedger(t, img); err != nil {
		return nil, err
	}
	m.set("ltc.image_kb", "KiB", float64(len(img))/1024)
	for i := 0; i < saveReps; i++ {
		sp := t.begin("tenant.save", -1)
		_, err = tn.Save()
		t.end(sp)
		if err != nil {
			return nil, err
		}
	}
	return m, nil
}

// codecLedger times the tracker codec on one image: decode into a fresh
// Sharded, then encode it back.
func codecLedger(t *tracer, img []byte) error {
	for i := 0; i < ledgerReps; i++ {
		s := new(sigstream.Sharded)
		sp := t.begin("ltc.decode", -1)
		err := s.UnmarshalBinary(img)
		t.end(sp)
		if err != nil {
			return err
		}
		sp = t.begin("ltc.encode", -1)
		_, err = s.MarshalBinary()
		t.end(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

// serveRecorded times one request against h on an httptest recorder.
func serveRecorded(t *tracer, name string, h http.Handler, method, target string, body []byte) error {
	req := httptest.NewRequest(method, target, bytesReader(body))
	rec := httptest.NewRecorder()
	sp := t.begin(name, -1)
	h.ServeHTTP(rec, req)
	t.end(sp)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("%s %s: status %d", method, target, rec.Code)
	}
	return nil
}

// ingRecoveryLedger replays recovery on fresh copies of the crash image:
// the whole revive (Registry.AttachDir plus the first Tenant.Stats), then
// snapshot.Recover of the newest snapshot alone.
func ingRecoveryLedger(cfg runConfig, in *ingInputs, t *tracer) (figures, error) {
	m := figures{}
	dir := filepath.Join(cfg.dir, "ledger-recover")
	if err := copyTree(in.seedDir, dir); err != nil {
		return nil, err
	}
	sc := ingServerConfig()
	reg := tenant.NewRegistry(tenant.Config{
		Tracker: sigstream.Config{MemoryBytes: sc.TenantMemoryBytes, Weights: sc.Weights}, Logger: discard,
	})
	sp := t.begin("tenant.recover", -1)
	err := reg.AttachDir(filepath.Join(dir, "snap"))
	if err == nil {
		var tn *tenant.Tenant
		if tn, err = reg.Get(ingNS); err == nil {
			_, err = tn.Stats()
		}
	}
	t.end(sp)
	if cerr := reg.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("recovery ledger: %w", err)
	}

	dir = filepath.Join(cfg.dir, "ledger-parts")
	if err := copyTree(in.seedDir, dir); err != nil {
		return nil, err
	}
	sp = t.begin("snapshot.recover", -1)
	payload, _, err := snapshot.Recover(filepath.Join(dir, "snap", ingNS), discard)
	t.end(sp)
	if err != nil || payload == nil {
		return nil, fmt.Errorf("snapshot recover: %v (payload %d bytes)", err, len(payload))
	}
	m.set("snapshot.kb", "KiB", float64(len(payload))/1024)
	return m, nil
}

// ingWriteLedger replays the body's frames in server order: decode
// (VerifyFrame, ParsePayload, DecodeBatch) and Tenant.IngestWire on a
// tenant restored to the crash image, then the components the tenant
// calls — Sharded.InsertBatch, and the WAL append a durable server adds
// (on a log in the run's directory, fsynced per append as the server
// default does) — alone, then Tenant.Ingest with the same keys as
// strings, and finally Log.Replay of that log. The replay tenants carry
// no WAL, so a tenant's self time is its span minus the tracker insert of
// the same batch.
func ingWriteLedger(cfg runConfig, in *ingInputs, t *tracer) (figures, error) {
	first, last := in.starts[in.size.prefix], in.frames.n()
	sc := ingServerConfig()
	reg := tenant.NewRegistry(tenant.Config{
		Tracker: sigstream.Config{MemoryBytes: sc.TenantMemoryBytes, Weights: sc.Weights}, Logger: discard,
	})
	defer reg.Close()
	wire, err := restoredTenant(reg, "wire", in.seeded.image)
	if err != nil {
		return nil, err
	}
	strs, err := restoredTenant(reg, "strings", in.seeded.image)
	if err != nil {
		return nil, err
	}
	log, err := wal.Open(wal.Options{Dir: filepath.Join(cfg.dir, "ledger-wal"),
		SyncInterval: time.Duration(server.DefaultOptions().WALSync), Logger: discard})
	if err != nil {
		return nil, err
	}
	defer log.Close()
	tracker := sigstream.NewSharded(sigstream.Config{MemoryBytes: sc.TenantMemoryBytes, Weights: sc.Weights}, 0)
	if err := tracker.UnmarshalBinary(in.seeded.image); err != nil {
		return nil, err
	}

	var scratch ingest.Scratch
	keys := make([]string, 0, frameKeys)
	for i := first; i < last; i++ {
		req := int64(i)
		root := t.begin("server.frame", req)
		sp := t.begin("ingest.decode", req)
		h, err := decodeFrame(in.frames.frame(i), &scratch)
		t.end(sp)
		if err != nil {
			return nil, err
		}
		if h.Type == ingest.TypeBatch {
			sp = t.begin("tenant.ingest_wire", req)
			_, err = wire.IngestWire(tenant.WireBatch{Keys: scratch.Keys, Weights: scratch.Weights, Items: scratch.Items})
		} else {
			sp = t.begin("tenant.end_period", req)
			_, err = wire.EndPeriod()
		}
		t.end(sp)
		t.end(root)
		if err != nil {
			return nil, err
		}

		root = t.begin("replay.components", req)
		sp = t.begin("wal.append", req)
		if h.Type == ingest.TypeBatch {
			err = log.Append(wal.EncodeBatchRecords(scratch.Keys, scratch.Weights))
		} else {
			err = log.Append(wal.EncodePeriod())
		}
		t.end(sp)
		if err != nil {
			return nil, err
		}
		if h.Type == ingest.TypeBatch {
			sp = t.begin("ltc.insert_batch", req)
			tracker.InsertBatch(scratch.Items)
		} else {
			sp = t.begin("ltc.end_period", req)
			tracker.EndPeriod()
		}
		t.end(sp)
		t.end(root)

		keys = keys[:0]
		for _, k := range scratch.Keys {
			keys = append(keys, string(k))
		}
		if h.Type == ingest.TypeBatch {
			sp = t.begin("tenant.ingest", req)
			_, err = strs.Ingest(keys)
		} else {
			sp = t.begin("tenant.end_period", req)
			_, err = strs.EndPeriod()
		}
		t.end(sp)
		if err != nil {
			return nil, err
		}
	}
	m := figures{}
	ws := log.Stats()
	m.set("wal.syncs_per_append", "ratio", float64(ws.Syncs)/float64(max(ws.Appends, 1)))
	m.set("wal.bytes_per_arrival", "B", float64(ws.AppendedBytes)/float64(in.tr.arrivals(in.size.prefix, in.tr.periods())))
	sp := t.begin("wal.replay", -1)
	_, err = log.Replay(0, func(wal.Record) error { return nil })
	t.end(sp)
	return m, err
}

// restoredTenant creates tenant ns in reg holding the tracker image.
func restoredTenant(reg *tenant.Registry, ns string, img []byte) (*tenant.Tenant, error) {
	tn, err := reg.GetOrCreate(ns)
	if err != nil {
		return nil, err
	}
	return tn, tn.RestoreImage(img)
}

// decodeFrame runs the server's decode steps on one frame image.
func decodeFrame(frame []byte, sc *ingest.Scratch) (ingest.Head, error) {
	p, err := ingest.VerifyFrame(frame, ingest.DefaultMaxFrameBytes)
	if err != nil {
		return ingest.Head{}, err
	}
	h, records, arrivals, err := ingest.ParsePayload(p)
	if err != nil {
		return h, err
	}
	if h.Type == ingest.TypeBatch {
		sc.Grow(records, arrivals)
		ingest.DecodeBatch(p, h, records, sc)
	}
	return h, nil
}

// ingLayers assembles ingest-binary's per-layer metrics from the traced
// pass's live spans and the ledger replays.
func ingLayers(cfg runConfig, in *ingInputs, t *tracer, untraced, traced []passStats) (figures, error) {
	rec, err := ingRecoveryLedger(cfg, in, t)
	if err != nil {
		return nil, err
	}
	writes, err := ingWriteLedger(cfg, in, t)
	if err != nil {
		return nil, err
	}
	last := traced[len(traced)-1]
	m := ltcCounters(last.ltc)
	for k, v := range rec {
		m[k] = v
	}
	for k, v := range writes {
		m[k] = v
	}
	for k, v := range last.layer {
		m[k] = v
	}
	l := buildLedger(t.spans)
	first := in.starts[in.size.prefix]
	arrivals := in.tr.arrivals(in.size.prefix, in.tr.periods())
	ltcSelf := l.self["ltc.insert_batch"]
	calls := float64(l.count["tenant.ingest_wire"])
	m.set("ltc.insert_ns_per_arrival", "ns", l.perUnit("ltc.insert_batch", arrivals))
	m.set("ingest.decode_ns_per_arrival", "ns", l.perUnit("ingest.decode", arrivals))
	m.set("ingest.bytes_per_arrival", "B", float64(in.frames.bytes(first, in.frames.n()))/float64(arrivals))
	m.set("ingest.window_wait_ms", "ms", last.windowWait.Seconds()*1e3/float64(max(last.batches, 1)))
	m.set("wal.append_us", "us", l.perCall("wal.append", 1e3))
	m.set("wal.replay_ms", "ms", l.perCall("wal.replay", 1e6))
	m.set("snapshot.recover_ms", "ms", l.perCall("snapshot.recover", 1e6))
	m.set("snapshot.save_ms", "ms", l.perCall("tenant.save", 1e6))
	m.set("tenant.ingest_wire_us", "us", float64(l.self["tenant.ingest_wire"]-ltcSelf)/calls/1e3)
	m.set("tenant.ingest_us", "us", float64(l.self["tenant.ingest"]-ltcSelf)/calls/1e3)
	m.set("tenant.topk_ms", "ms", l.perCall("tenant.topk", 1e6))
	m.set("tenant.checkpoint_ms", "ms", l.perCall("tenant.checkpoint", 1e6))
	m.set("tenant.recover_ms", "ms", l.perCall("tenant.recover", 1e6))
	m.set("tenant.keys", "count", float64(last.keys))
	m.set("tenant.bytes_per_key", "B", last.retained/float64(max(last.keys, 1)))
	m.set("server.top_handler_ms", "ms", l.perCall("server.top_handler", 1e6))
	m.set("client.transport_ms", "ms", l.perCall("client.read", 1e6)-l.perCall("server.top_handler", 1e6))
	m.set("ltc.encode_ms", "ms", l.perCall("ltc.encode", 1e6))
	m.set("ltc.decode_ms", "ms", l.perCall("ltc.decode", 1e6))
	// What the write-path layers the server runs account for, per
	// arrival, against what the producer saw end to end in the untraced
	// passes (the tenant span includes its tracker insert).
	var rates []float64
	for _, ps := range untraced {
		rates = append(rates, rate(ps))
	}
	replayed := float64(l.self["ingest.decode"]+l.self["tenant.ingest_wire"]) / float64(arrivals)
	m.set("gen.unattributed_ns_per_arrival", "ns", 1e9/median(rates)-replayed)
	return m, nil
}

// bytesReader is a request body for serveRecorded (nil for none).
func bytesReader(b []byte) io.Reader {
	if b == nil {
		return nil
	}
	return bytes.NewReader(b)
}
