// Command sigwatch streams item keys from stdin and emits RAISE/CLEAR
// alert lines when an item's significance crosses thresholds — a minimal
// production loop for the paper's DDoS use case: feed it source addresses,
// alert on sources that are both frequent and persistent.
//
// Input: one key per line, optionally "key period". Without a period
// column, -period-items arrivals form one period. Alerts are evaluated at
// every period boundary. With -flows, keys are flow tuples
// ("src[:port]>dst[:port][/proto]") and -key selects the aggregation
// (src, dst, pair, 5tuple) — the paper's five-tuple flow definition.
//
// With -server, the stream is shipped to a running sigserver instance
// (batched over HTTP with a signal-cancelled context) and alerts are
// evaluated against the remote ranking at each period boundary; -tenant
// selects the namespace. -flows is local-only.
//
// Usage:
//
//	tail -f flow.log | awk '{print $1}' | sigwatch -raise 5000 -min-periods 3
//	siggen -preset caida -n 1000000 | sigwatch -raise 2000
//	cat flows.txt | sigwatch -flows -key src -raise 5000
//	tail -f keys.log | sigwatch -server http://localhost:8080 -tenant edge -raise 2000
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sigstream"
	"sigstream/internal/alert"
	"sigstream/internal/client"
	"sigstream/internal/flowkey"
	"sigstream/internal/stream"
)

func main() {
	var (
		memKB       = flag.Int("mem", 64, "tracker memory budget in KiB")
		alpha       = flag.Float64("alpha", 1, "frequency weight α")
		beta        = flag.Float64("beta", 100, "persistency weight β")
		raise       = flag.Float64("raise", 1000, "significance threshold to raise an alert")
		clear       = flag.Float64("clear", 0, "significance to clear (default raise/2)")
		minPeriods  = flag.Uint64("min-periods", 2, "periods an item must span before it can raise")
		k           = flag.Int("k", 200, "ranking depth scanned for alerts")
		periodItems = flag.Int("period-items", 100_000, "arrivals per period when no period column is present")
		flows       = flag.Bool("flows", false, "parse keys as flow tuples (src[:port]>dst[:port][/proto])")
		keyBy       = flag.String("key", "src", "flow aggregation: src, dst, pair or 5tuple (with -flows)")
		serverURL   = flag.String("server", "", "ship the stream to a sigserver base URL instead of tracking locally")
		tenantNS    = flag.String("tenant", client.DefaultNamespace, "tenant namespace on the server (with -server)")
	)
	flag.Parse()

	if *serverURL != "" {
		if *flows {
			fmt.Fprintln(os.Stderr, "sigwatch: -flows is local-only (aggregate before shipping)")
			os.Exit(2)
		}
		ctx, stop := signal.NotifyContext(context.Background(),
			os.Interrupt, syscall.SIGTERM)
		defer stop()
		w := alert.NewWatcher(alert.Rule{
			Raise: *raise, Clear: *clear, MinPersistency: *minPeriods,
		})
		tn := client.New(*serverURL, nil).Tenant(*tenantNS)
		events, err := watchRemote(ctx, os.Stdin, os.Stdout, tn, w, *k, *periodItems)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sigwatch:", err)
			os.Exit(1)
		}
		fmt.Printf("done: %d scans, %d alert events, %d still active\n",
			w.Scans(), events, w.Active())
		return
	}

	tr := sigstream.New(sigstream.Config{
		MemoryBytes: *memKB << 10,
		Weights:     sigstream.Weights{Alpha: *alpha, Beta: *beta},
	})
	w := alert.NewWatcher(alert.Rule{
		Raise: *raise, Clear: *clear, MinPersistency: *minPeriods,
	})
	keys := sigstream.NewKeyMap()

	intern := internKey(keys)
	if *flows {
		var err error
		intern, err = internFlow(*keyBy)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sigwatch:", err)
			os.Exit(2)
		}
	}
	events, err := watch(os.Stdin, os.Stdout, tr, w, keys, intern, *k, *periodItems)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sigwatch:", err)
		os.Exit(1)
	}
	fmt.Printf("done: %d scans, %d alert events, %d still active\n",
		w.Scans(), events, w.Active())
}

// watch drives the tracker and watcher over the input, printing one line
// per alert transition. It returns the number of events emitted. keys
// holds at most twice the tracker's cells names: those of the items in
// cells and of the active alerts, so a CLEAR line still names an item
// that has left the tracker, and an endless stream of distinct keys
// (tail -f) runs in bounded memory.
func watch(in io.Reader, out io.Writer, tr *sigstream.LTC, w *alert.Watcher,
	keys *sigstream.KeyMap, intern func(string) (sigstream.Item, error),
	k, periodItems int) (int, error) {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	count := 0
	events := 0
	lastPeriod := -1

	named := func(visit func(sigstream.Item)) {
		tr.VisitItems(visit)
		for _, e := range w.ActiveItems() {
			visit(e.Item)
		}
	}
	endPeriod := func() {
		tr.EndPeriod()
		for _, ev := range w.Scan(toInternal(tr.TopK(k))) {
			events++
			fmt.Fprintf(out, "%s key=%s\n", ev, keys.Name(ev.Entry.Item))
		}
	}

	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			if p, err := strconv.Atoi(fields[1]); err == nil {
				if lastPeriod >= 0 && p != lastPeriod {
					endPeriod()
				}
				lastPeriod = p
			}
		} else if periodItems > 0 && count > 0 && count%periodItems == 0 {
			endPeriod()
		}
		item, err := intern(fields[0])
		if err != nil {
			return events, err
		}
		tr.Insert(item)
		keys.Bound(tr.Cells(), named)
		count++
	}
	if err := sc.Err(); err != nil {
		return events, err
	}
	endPeriod()
	return events, nil
}

// remoteBatch is how many keys ship per insert request in -server mode.
const remoteBatch = 1000

// watchRemote drives a server-side tenant over the input: inserts ship in
// batches (backing off when throttled), each period boundary closes the
// remote period and scans the remote ranking for alert transitions. The
// context cancels in-flight requests on SIGINT/SIGTERM.
func watchRemote(ctx context.Context, in io.Reader, out io.Writer,
	tn *client.Tenant, w *alert.Watcher, k, periodItems int) (int, error) {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	count := 0
	events := 0
	lastPeriod := -1
	batch := make([]string, 0, remoteBatch)

	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		for {
			_, err := tn.Insert(ctx, batch...)
			var te *client.ThrottledError
			if errors.As(err, &te) {
				select {
				case <-time.After(te.RetryAfter):
					continue
				case <-ctx.Done():
					return ctx.Err()
				}
			}
			if err == nil {
				batch = batch[:0]
			}
			return err
		}
	}
	endPeriod := func() error {
		if err := flush(); err != nil {
			return err
		}
		if _, err := tn.EndPeriod(ctx); err != nil {
			return err
		}
		top, err := tn.TopK(ctx, k)
		if err != nil {
			return err
		}
		names := make(map[sigstream.Item]string, len(top))
		entries := make([]stream.Entry, len(top))
		for i, e := range top {
			item := sigstream.Item(e.Item)
			names[item] = e.Key
			entries[i] = stream.Entry{Item: item, Frequency: e.Frequency,
				Persistency: e.Persistency, Significance: e.Significance}
		}
		for _, ev := range w.Scan(entries) {
			events++
			fmt.Fprintf(out, "%s key=%s\n", ev, names[ev.Entry.Item])
		}
		return nil
	}

	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		boundary := false
		if len(fields) >= 2 {
			if p, err := strconv.Atoi(fields[1]); err == nil {
				boundary = lastPeriod >= 0 && p != lastPeriod
				lastPeriod = p
			}
		} else if periodItems > 0 && count > 0 && count%periodItems == 0 {
			boundary = true
		}
		if boundary {
			if err := endPeriod(); err != nil {
				return events, err
			}
		}
		batch = append(batch, fields[0])
		count++
		if len(batch) >= remoteBatch {
			if err := flush(); err != nil {
				return events, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return events, err
	}
	if err := endPeriod(); err != nil {
		return events, err
	}
	return events, nil
}

// internKey interns plain string keys.
func internKey(keys *sigstream.KeyMap) func(string) (sigstream.Item, error) {
	return func(s string) (sigstream.Item, error) { return keys.Intern(s), nil }
}

// internFlow parses flow tuples and keys them by the chosen aggregation.
func internFlow(keyBy string) (func(string) (sigstream.Item, error), error) {
	var pick func(flowkey.Flow) sigstream.Item
	switch keyBy {
	case "src":
		pick = flowkey.Flow.KeySrc
	case "dst":
		pick = flowkey.Flow.KeyDst
	case "pair":
		pick = flowkey.Flow.KeyPair
	case "5tuple":
		pick = flowkey.Flow.KeyFiveTuple
	default:
		return nil, fmt.Errorf("unknown -key %q (want src, dst, pair or 5tuple)", keyBy)
	}
	return func(s string) (sigstream.Item, error) {
		f, err := flowkey.ParseFlow(s)
		if err != nil {
			return 0, err
		}
		return pick(f), nil
	}, nil
}

// toInternal converts public entries to the internal form the watcher uses.
func toInternal(es []sigstream.Entry) []stream.Entry {
	out := make([]stream.Entry, len(es))
	for i, e := range es {
		out[i] = stream.Entry{Item: e.Item, Frequency: e.Frequency,
			Persistency: e.Persistency, Significance: e.Significance}
	}
	return out
}
