package main

import (
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"sigstream/internal/exp"
	"sigstream/internal/gen"
	"sigstream/internal/ingest"
	"sigstream/internal/server"
)

// ingestFigure is the wire-ingestion benchmark rig behind -fig ingest:
// the same generated key stream is shipped into a live loopback server
// three ways — text lines over HTTP POST /v1/insert, framed binary TCP
// with a synchronous window of 1, and framed binary TCP with 32 batches
// pipelined — across a sweep of batch sizes. The figure prices the
// protocol, not the tracker: every transport lands in the identical
// tenant ingest path, so the spread between rows is pure wire overhead.
//
// It lives in cmd/sigbench rather than internal/exp because it boots the
// full server, while every internal/exp figure drives the library alone.
//
// On a multi-core host, rerun with GOMAXPROCS released (the default) and
// several concurrent connections via `siggen -ingest` to price parallel
// scaling; this rig keeps one producer so single-core numbers are honest.
func ingestFigure(sc exp.Scale) (exp.Result, error) {
	// Reuse the Zipf arrival budget so -n and -scale apply here too, but
	// cap the paper scale: the HTTP baseline at batch 16 is ~1 Mitems/s,
	// and the sweep runs 15 cells.
	n := sc.Zipf
	if n > 2_000_000 {
		n = 2_000_000
	}
	s := gen.Generate(gen.Config{
		N: n, M: 50_000, Periods: 1, Skew: 1.1, Head: 500,
		TailWindowFrac: 0.3, Seed: sc.Seed, Label: "ingest",
	})
	keys := make([]string, len(s.Items))
	for i, it := range s.Items {
		keys[i] = strconv.FormatUint(it, 10)
	}

	start := time.Now()
	var rows []exp.Row
	for _, batch := range []int{16, 64, 256, 1024, 4096} {
		x := strconv.Itoa(batch)
		type runner struct {
			series string
			run    func([]string, int) (float64, error)
		}
		for _, r := range []runner{
			{"text-http", runHTTPIngest},
			{"binary-tcp", func(k []string, b int) (float64, error) { return runBinaryIngest(k, b, 1) }},
			{"binary-tcp-w32", func(k []string, b int) (float64, error) { return runBinaryIngest(k, b, 32) }},
		} {
			mps, err := r.run(keys, batch)
			if err != nil {
				return exp.Result{}, fmt.Errorf("%s/%s: %w", r.series, x, err)
			}
			rows = append(rows, exp.Row{
				Figure: "ingest", Dataset: s.Label, Series: r.series,
				X: x, Metric: "Mitems/s", Value: mps,
			})
		}
	}
	return exp.Result{
		Figure: "ingest",
		Title:  "Wire ingestion throughput: HTTP text vs framed binary TCP",
		PaperNote: fmt.Sprintf("beyond the paper; %d arrivals, 1 producer, GOMAXPROCS=%d",
			n, runtime.GOMAXPROCS(0)),
		Rows:    rows,
		Elapsed: time.Since(start),
	}, nil
}

// benchServer boots a fresh server for one measurement so no run inherits
// another's tracker state.
func benchServer() *server.Server {
	return server.New(server.Config{
		MemoryBytes: 256 << 10,
		Shards:      1,
		Logger:      slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
}

// runHTTPIngest ships the stream as newline-separated key batches over
// HTTP POST /v1/insert — the baseline transport — and reports Mitems/s.
func runHTTPIngest(keys []string, batch int) (float64, error) {
	h := benchServer()
	defer h.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	hs := &http.Server{Handler: h}
	go func() { _ = hs.Serve(ln) }()
	defer hs.Close()
	url := "http://" + ln.Addr().String() + "/v1/insert"

	// Pre-render the bodies so the measurement prices the transport, not
	// strings.Join.
	bodies := make([]string, 0, len(keys)/batch+1)
	for i := 0; i < len(keys); i += batch {
		end := min(i+batch, len(keys))
		bodies = append(bodies, strings.Join(keys[i:end], "\n")+"\n")
	}
	client := &http.Client{}
	start := time.Now()
	for _, body := range bodies {
		resp, err := client.Post(url, "text/plain", strings.NewReader(body))
		if err != nil {
			return 0, err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("insert: status %d", resp.StatusCode)
		}
	}
	return float64(len(keys)) / time.Since(start).Seconds() / 1e6, nil
}

// runBinaryIngest ships the stream over the framed binary protocol at
// the given ack window and reports Mitems/s.
func runBinaryIngest(keys []string, batch, window int) (float64, error) {
	h := benchServer()
	defer h.Close()
	if err := h.StartIngest(server.IngestConfig{Addr: "127.0.0.1:0"}); err != nil {
		return 0, err
	}
	conn, err := ingest.Dial(h.Ingest().Addr().String(), ingest.Options{Window: window})
	if err != nil {
		return 0, err
	}
	start := time.Now()
	for i := 0; i < len(keys); i += batch {
		end := min(i+batch, len(keys))
		if err := conn.Insert(keys[i:end]...); err != nil {
			_ = conn.Close()
			return 0, err
		}
	}
	if err := conn.Flush(); err != nil {
		_ = conn.Close()
		return 0, err
	}
	elapsed := time.Since(start)
	if err := conn.Close(); err != nil {
		return 0, err
	}
	return float64(len(keys)) / elapsed.Seconds() / 1e6, nil
}
