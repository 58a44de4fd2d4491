package main

import (
	"fmt"
	"strconv"
	"time"

	"sigstream"
	"sigstream/internal/metrics"
	"sigstream/internal/oracle"
	"sigstream/internal/stream"
)

const (
	// topK is the query size of every read and of the accuracy score.
	topK = 1000
	// trackerBytes sizes every tracker under test, so that the top-1000
	// is not exact and a loss of accuracy can show.
	trackerBytes = 256 << 10
	// callDeadline bounds any one connection phase or HTTP call the load
	// generator makes, so a wedged server fails the run instead of
	// hanging it.
	callDeadline = 60 * time.Second
)

// weights are the significance coefficients of every tracker and oracle
// (the server default, α = β = 1).
var weights = stream.Weights{Alpha: 1, Beta: 1}

// trace is a generated arrival sequence cut into count-based periods,
// exactly as stream.Replay cuts it. It holds no pointers besides its two
// slices, so the collector never scans it.
type trace struct {
	items  []uint64
	bounds []int // period p is items[bounds[p]:bounds[p+1]]
}

func newTrace(s *stream.Stream) trace {
	per := s.ItemsPerPeriod()
	n := len(s.Items)
	periods := (n + per - 1) / per
	b := make([]int, periods+1)
	for p := range b {
		b[p] = min(p*per, n)
	}
	return trace{items: s.Items, bounds: b}
}

func (t trace) periods() int { return len(t.bounds) - 1 }

func (t trace) period(p int) []uint64 { return t.items[t.bounds[p]:t.bounds[p+1]] }

// arrivals counts the arrivals of periods [from, to).
func (t trace) arrivals(from, to int) int { return t.bounds[to] - t.bounds[from] }

// appendKey renders an item as the decimal string key a producer sends
// (the rendering cmd/siggen uses).
func appendKey(dst []byte, it uint64) []byte { return strconv.AppendUint(dst, it, 10) }

// keyItem is the item a server derives from an item's string key.
func keyItem(it uint64) uint64 {
	var buf [20]byte
	return sigstream.HashKeyBytes(appendKey(buf[:0], it))
}

// exact is the oracle over a trace prefix, with its true top-k.
type exact struct {
	o       *oracle.Oracle
	truth   []stream.Entry
	periods int
}

// buildExact replays periods [0, upto) of t into an exact oracle, closing
// every period. keyed hashes each item's string key first, as a server
// does.
func buildExact(t trace, upto int, keyed bool) exact {
	o := oracle.New(weights)
	for p := 0; p < upto; p++ {
		for _, it := range t.period(p) {
			if keyed {
				it = keyItem(it)
			}
			o.Insert(it)
		}
		o.EndPeriod()
	}
	return exact{o: o, truth: o.TopK(topK), periods: upto}
}

// accuracy is the paper's §V-A score of a reported top-k.
type accuracy struct {
	precision float64
	are       float64
}

// score checks and scores a reported top-k against the oracle: every
// persistency must be at most the periods elapsed, then precision and
// ARE follow internal/metrics.
func (e exact) score(got []sigstream.Entry) (accuracy, error) {
	rep := make([]stream.Entry, len(got))
	for i, g := range got {
		if g.Persistency > uint64(e.periods) {
			return accuracy{}, fmt.Errorf("item %d reports persistency %d after %d periods", g.Item, g.Persistency, e.periods)
		}
		rep[i] = stream.Entry{Item: g.Item, Frequency: g.Frequency, Persistency: g.Persistency, Significance: g.Significance}
	}
	r := metrics.Score(e.o, e.truth, rep, topK)
	return accuracy{precision: r.Precision, are: r.ARE}, nil
}
