package sigstream

import (
	"fmt"
	"runtime"
	"sync"

	"sigstream/internal/hashing"
	"sigstream/internal/ltc"
	"sigstream/internal/stream"
)

// Sharded is a concurrency-safe LTC: the item space is hash-partitioned
// across independent LTC shards, each behind its own mutex, so goroutines
// ingesting different items rarely contend. Because sharding is by item,
// every item's state lives in exactly one shard and global top-k is an
// exact merge of the shards' top-k lists.
//
// EndPeriod takes all shard locks and must be called by a single
// coordinator (concurrent Inserts may proceed; they will order either side
// of the boundary).
type Sharded struct {
	shards []shard
	// scratch pools the partition buffers of InsertBatch and
	// Pipeline.Submit, so the steady-state hot path allocates nothing.
	scratch sync.Pool
}

// batchScratch is the reusable working memory of one partition.
type batchScratch struct {
	owner  []uint32 // owning shard of each batch item (hash computed once)
	counts []int
	next   []int
	sorted []Item
}

type shard struct {
	mu sync.Mutex
	l  *ltc.LTC
}

// NewSharded splits cfg.MemoryBytes across n shards (n ≤ 0 selects
// GOMAXPROCS). The budget is distributed in whole buckets, remainder
// included, so Sharded.MemoryBytes reports the same usable budget a single
// LTC of cfg.MemoryBytes would; n is capped so every shard holds at least
// one bucket (no degenerate shards on small budgets). ItemsPerPeriod is
// divided across shards automatically.
//
// NewSharded panics if cfg is invalid; pre-check untrusted configurations
// with Config.Validate.
func NewSharded(cfg Config, n int) *Sharded {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	cfg = cfg.withDefaults()
	mustValidate(cfg)
	// Distribute the budget in bucket-sized units so no shard is rounded to
	// zero buckets and the division remainder is not silently dropped.
	bucketBytes := ltc.CellBytes * cfg.BucketWidth
	buckets := cfg.MemoryBytes / bucketBytes
	if buckets < 1 {
		buckets = 1
	}
	if n > buckets {
		n = buckets // per-shard minimum: one full bucket
	}
	perShard, extra := buckets/n, buckets%n
	// Per-shard pacing hint: ceil, so a small hint never becomes 0 (which
	// would silently flip that shard to adaptive pacing).
	itemsPerPeriod := 0
	if cfg.ItemsPerPeriod > 0 {
		itemsPerPeriod = (cfg.ItemsPerPeriod + n - 1) / n
	}
	s := &Sharded{shards: make([]shard, n)}
	for i := range s.shards {
		b := perShard
		if i < extra {
			b++
		}
		s.shards[i].l = ltc.New(ltc.Options{
			MemoryBytes:                b * bucketBytes,
			BucketWidth:                cfg.BucketWidth,
			Weights:                    internalWeights(cfg.Weights),
			ItemsPerPeriod:             itemsPerPeriod,
			DisableDeviationEliminator: cfg.DisableDeviationEliminator,
			DisableLongTailReplacement: cfg.DisableLongTailReplacement,
			DecayFactor:                cfg.DecayFactor,
			Seed:                       cfg.Seed + uint32(i)*0x9e37,
		})
	}
	return s
}

// Shards reports the number of shards.
func (s *Sharded) Shards() int { return len(s.shards) }

// shardOf maps item to the one shard of n that owns it. Every path into a
// Sharded — Insert, Query, InsertBatch, Pipeline.Submit — chooses through
// it, so all arrivals of an item land in one shard.
func shardOf(item Item, n int) int {
	return int(hashing.Mix64(item) % uint64(n))
}

func (s *Sharded) owner(item Item) *shard {
	return &s.shards[shardOf(item, len(s.shards))]
}

// insertBatch applies items to the shard under its lock. The unlock is
// deferred so a tracker panic, which a Pipeline worker recovers, does not
// leave the shard locked.
func (sh *shard) insertBatch(items []Item) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.l.InsertBatch(items)
}

// Insert records one arrival. Safe for concurrent use.
func (s *Sharded) Insert(item Item) {
	sh := s.owner(item)
	sh.mu.Lock()
	sh.l.Insert(item)
	sh.mu.Unlock()
}

// InsertBatch records a batch of arrivals (BatchInserter). The batch is
// pre-partitioned by owning shard, so each shard's lock is taken at most
// once per batch instead of once per item; within a shard, items keep
// their arrival order, so the final state is identical to item-at-a-time
// insertion. Safe for concurrent use, but a batch is not atomic: a
// concurrent EndPeriod may fall between two shards' sub-batches, splitting
// the batch across the boundary (just as it can split per-item inserts).
// The steady state is allocation-free: partition scratch is pooled and
// only grows inside getScratch.
//
//sig:noalloc
func (s *Sharded) InsertBatch(items []Item) {
	if len(items) == 0 {
		return
	}
	if len(s.shards) == 1 {
		s.shards[0].insertBatch(items)
		return
	}
	b := s.partition(items)
	for i, c := range b.counts {
		if c > 0 {
			s.shards[i].insertBatch(b.run(i))
		}
	}
	s.scratch.Put(b)
}

// partition groups items by owning shard in pooled scratch, a counting
// sort: one pass hashes each item and sizes the runs, one scatters the
// items into contiguous runs. b.run(i) is shard i's run in arrival order.
// The caller returns b to s.scratch once it is done with the runs.
//
//sig:noalloc
func (s *Sharded) partition(items []Item) *batchScratch {
	n := len(s.shards)
	b := s.getScratch(len(items), n)
	owner, sorted := b.owner[:len(items)], b.sorted[:len(items)]
	counts, next := b.counts[:n], b.next[:n]
	clear(counts)
	for i, it := range items {
		sh := shardOf(it, n)
		owner[i] = uint32(sh)
		counts[sh]++
	}
	sum := 0
	for i, c := range counts {
		next[i] = sum
		sum += c
	}
	for i, it := range items {
		sh := owner[i]
		sorted[next[sh]] = it
		next[sh]++
	}
	b.sorted, b.counts, b.next = sorted, counts, next
	return b
}

// run returns shard i's run of the last partition: the scatter left
// next[i] at the end of that run.
func (b *batchScratch) run(i int) []Item {
	return b.sorted[b.next[i]-b.counts[i] : b.next[i]]
}

// getScratch returns pooled partition scratch with room for items
// arrivals across n shards. Lane growth happens here — on pool miss or a
// larger batch than any seen before — keeping the steady-state partition
// allocation-free.
func (s *Sharded) getScratch(items, n int) *batchScratch {
	b, _ := s.scratch.Get().(*batchScratch)
	if b == nil {
		b = &batchScratch{}
	}
	if cap(b.owner) < items {
		b.owner = make([]uint32, items)
	}
	if cap(b.sorted) < items {
		b.sorted = make([]Item, items)
	}
	if cap(b.counts) < n {
		b.counts = make([]int, n)
		b.next = make([]int, n)
	}
	return b
}

// EndPeriod marks a period boundary on every shard.
func (s *Sharded) EndPeriod() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.l.EndPeriod()
		sh.mu.Unlock()
	}
}

// Query reports the estimate for item. Safe for concurrent use.
func (s *Sharded) Query(item Item) (Entry, bool) {
	sh := s.owner(item)
	sh.mu.Lock()
	e, ok := sh.l.Query(item)
	sh.mu.Unlock()
	return publicEntry(e), ok
}

// TopK reports the k globally most significant items — exact with respect
// to the shards' contents, since each item lives in one shard. It is
// TopKAcross over this one tracker.
func (s *Sharded) TopK(k int) []Entry {
	return TopKAcross(k, s)
}

// TopKAcross reports the k most significant items held by any shard of any
// of trackers, ranked as one tracker holding all their cells would rank
// them. It is exact with respect to the trackers' contents when no item
// lives in two of them, as with a cluster's partitions, which split the
// item space the way a Sharded splits it across its shards. The trackers
// must rank by the same Weights, or their significances do not compare.
// Every shard offers its cells to one selection sized by min(k, total
// occupancy), taking each shard lock in turn.
func TopKAcross(k int, trackers ...*Sharded) []Entry {
	if k <= 0 {
		return []Entry{}
	}
	occupied := 0
	for _, s := range trackers {
		for i := range s.shards {
			sh := &s.shards[i]
			sh.mu.Lock()
			occupied += sh.l.Occupancy()
			sh.mu.Unlock()
		}
	}
	sel := stream.NewSelection(k, occupied)
	for _, s := range trackers {
		for i := range s.shards {
			sh := &s.shards[i]
			sh.mu.Lock()
			sh.l.OfferTo(&sel)
			sh.mu.Unlock()
		}
	}
	ranked := sel.Ranked()
	out := make([]Entry, len(ranked))
	for i, e := range ranked {
		out[i] = publicEntry(e)
	}
	return out
}

// VisitItems calls visit with the item of every occupied cell; pass it to
// KeyMap.Bound to keep only the names of the items the tracker holds.
// Each shard's items are copied into pooled scratch under its lock and
// visited after the lock is released, so visit never stalls that shard's
// inserts and may insert into or query the tracker.
//
//sig:noalloc
func (s *Sharded) VisitItems(visit func(Item)) {
	b := s.getScratch(0, 0)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		b.sorted = sh.l.AppendItems(b.sorted[:0])
		sh.mu.Unlock()
		for _, it := range b.sorted {
			visit(it)
		}
	}
	s.scratch.Put(b)
}

// Cells reports the summed shard cell counts.
func (s *Sharded) Cells() int {
	total := 0
	for i := range s.shards {
		total += s.shards[i].l.Cells()
	}
	return total
}

// MemoryBytes reports the summed shard budgets.
func (s *Sharded) MemoryBytes() int {
	total := 0
	for i := range s.shards {
		total += s.shards[i].l.MemoryBytes()
	}
	return total
}

// Name identifies the tracker.
func (s *Sharded) Name() string {
	return fmt.Sprintf("LTC-sharded%d", len(s.shards))
}

// Stats merges the per-shard snapshots into one global view
// (StatsReporter): capacities, occupancy and operation counters are
// summed; Periods and ParityFlips take the per-shard maximum, since every
// shard sees the same period boundaries. Each shard's counters are plain
// (non-atomic) adds under that shard's existing lock, so instrumentation
// adds no hot-path synchronization; Stats briefly takes each shard lock in
// turn to snapshot.
func (s *Sharded) Stats() Stats {
	var agg stream.Stats
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		st := sh.l.Stats()
		sh.mu.Unlock()
		if i == 0 {
			agg = st
		} else {
			agg.Merge(st)
		}
	}
	agg.Tracker = s.Name()
	agg.Shards = len(s.shards)
	return publicStats(agg)
}

var (
	_ Tracker       = (*Sharded)(nil)
	_ BatchInserter = (*Sharded)(nil)
	_ StatsReporter = (*Sharded)(nil)
)
