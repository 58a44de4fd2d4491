// Command sigtop reads a stream of item keys from stdin (one per line,
// optionally "key period") and reports the top-k significant items.
//
// Period boundaries are taken from the second column when present;
// otherwise -period-items arrivals form one period.
//
// With -server, the stream is shipped to a running sigserver instance
// (batched over HTTP with a signal-cancelled context) and the ranking is
// fetched back; -tenant selects the namespace.
//
// Usage:
//
//	siggen -preset caida -n 1000000 | sigtop -k 20
//	tail -f access.log | awk '{print $1}' | sigtop -k 10 -alpha 1 -beta 5
//	cat keys.txt | sigtop -server http://localhost:8080 -tenant edge -k 20
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
	"sigstream/internal/client"
)

func main() {
	var (
		k           = flag.Int("k", 10, "number of items to report")
		memKB       = flag.Int("mem", 64, "memory budget in KiB")
		alpha       = flag.Float64("alpha", 1, "frequency weight α")
		beta        = flag.Float64("beta", 1, "persistency weight β")
		periodItems = flag.Int("period-items", 100_000, "arrivals per period when no period column is present")
		showStats   = flag.Bool("stats", false, "print the tracker's operation counters after the ranking")
		serverURL   = flag.String("server", "", "ship the stream to a sigserver base URL instead of tracking locally")
		tenantNS    = flag.String("tenant", client.DefaultNamespace, "tenant namespace on the server (with -server)")
	)
	flag.Parse()

	if *serverURL != "" {
		ctx, stop := signal.NotifyContext(context.Background(),
			os.Interrupt, syscall.SIGTERM)
		defer stop()
		tn := client.New(*serverURL, nil).Tenant(*tenantNS)
		if err := runRemote(ctx, os.Stdin, os.Stdout, tn, *k, *periodItems); err != nil {
			fmt.Fprintln(os.Stderr, "sigtop:", err)
			os.Exit(1)
		}
		return
	}

	tr := sigstream.New(sigstream.Config{
		MemoryBytes: *memKB << 10,
		Weights:     sigstream.Weights{Alpha: *alpha, Beta: *beta},
	})
	keys := sigstream.NewKeyMap()

	count, err := ingest(os.Stdin, tr, keys, *periodItems)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sigtop:", err)
		os.Exit(1)
	}
	report(os.Stdout, tr, keys, count, *k)
	if *showStats {
		printStats(os.Stdout, tr)
	}
}

// remoteBatch is how many keys ship per insert request in -server mode.
const remoteBatch = 1000

// runRemote streams "key [period]" lines to a server-side tenant —
// batching inserts, closing periods at boundaries, backing off when
// throttled — then fetches and prints the remote ranking. The context
// cancels in-flight requests on SIGINT/SIGTERM.
func runRemote(ctx context.Context, in io.Reader, out io.Writer,
	tn *client.Tenant, k, periodItems int) error {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	count := 0
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
			if err := flush(); err != nil {
				return err
			}
			if _, err := tn.EndPeriod(ctx); err != nil {
				return err
			}
		}
		batch = append(batch, fields[0])
		count++
		if len(batch) >= remoteBatch {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if err := flush(); err != nil {
		return err
	}
	if _, err := tn.EndPeriod(ctx); err != nil {
		return err
	}
	st, err := tn.Stats(ctx)
	if err != nil {
		return err
	}
	top, err := tn.TopK(ctx, k)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "tenant %s: %d arrivals, %d/%d cells occupied, memory %d bytes\n",
		st.Tenant, st.Arrivals, st.Tracker.OccupiedCells, st.Tracker.Cells,
		st.MemoryBytes)
	fmt.Fprintf(out, "%-4s %-24s %12s %12s %14s\n", "#", "item", "frequency",
		"persistency", "significance")
	for i, e := range top {
		fmt.Fprintf(out, "%-4d %-24s %12d %12d %14.1f\n",
			i+1, e.Key, e.Frequency, e.Persistency, e.Significance)
	}
	return nil
}

// ingest feeds "key [period]" lines into the tracker, ending periods at
// column changes (or every periodItems arrivals without a column), plus a
// final EndPeriod. It returns the number of arrivals. keys holds at most
// twice the tracker's cells names, those of the items in cells, so an
// endless stream of distinct keys (tail -f) runs in bounded memory.
func ingest(r io.Reader, tr *sigstream.LTC, keys *sigstream.KeyMap, periodItems int) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	count := 0
	lastPeriod := -1
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			if p, err := strconv.Atoi(fields[1]); err == nil {
				if lastPeriod >= 0 && p != lastPeriod {
					tr.EndPeriod()
				}
				lastPeriod = p
			}
		} else if periodItems > 0 && count > 0 && count%periodItems == 0 {
			tr.EndPeriod()
		}
		tr.Insert(keys.Intern(fields[0]))
		keys.Bound(tr.Cells(), tr.VisitItems)
		count++
	}
	if err := sc.Err(); err != nil {
		return count, err
	}
	tr.EndPeriod()
	return count, nil
}

// report prints the ranking table, headed by the tracker's structured
// snapshot (occupancy and memory come from the one StatsReporter surface
// the HTTP service and experiment harness read too).
func report(w io.Writer, tr *sigstream.LTC, keys *sigstream.KeyMap, count, k int) {
	st, _ := sigstream.TrackerStats(tr)
	fmt.Fprintf(w, "%d arrivals, %d/%d cells occupied, memory %d bytes\n",
		count, st.OccupiedCells, st.Cells, st.MemoryBytes)
	fmt.Fprintf(w, "%-4s %-24s %12s %12s %14s\n", "#", "item", "frequency",
		"persistency", "significance")
	for i, e := range tr.TopK(k) {
		fmt.Fprintf(w, "%-4d %-24s %12d %12d %14.1f\n",
			i+1, keys.Name(e.Item), e.Frequency, e.Persistency, e.Significance)
	}
}

// printStats dumps the tracker's cumulative operation counters — the same
// snapshot /v1/stats serves — for offline diagnosis of eviction pressure.
func printStats(w io.Writer, tr *sigstream.LTC) {
	st, _ := sigstream.TrackerStats(tr)
	fmt.Fprintf(w, "\ncounters: periods %d  hits %d  admissions %d  decrements %d  expulsions %d\n",
		st.Periods, st.Hits, st.Admissions, st.Decrements, st.Expulsions)
	fmt.Fprintf(w, "clock: cells swept %d  flags consumed %d  parity flips %d\n",
		st.CellsSwept, st.FlagsConsumed, st.ParityFlips)
}
