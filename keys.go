package sigstream

import (
	"sigstream/internal/hashing"
)

// HashKey derives a stable 64-bit Item from a string key (a username, URL,
// flow tuple, …). It combines two independent 32-bit Bob hashes, so
// accidental collisions are negligible for realistic key sets (~2^-64 per
// pair × pairs).
func HashKey(key string) Item {
	return HashKeyBytes([]byte(key))
}

// HashKeyBytes is HashKey for a raw byte key. It exists so wire decoders
// (the binary ingest protocol, the pooled JSON insert path) can hash keys
// straight out of a network buffer without materialising a string first;
// HashKeyBytes(b) == HashKey(string(b)) for every b.
func HashKeyBytes(key []byte) Item {
	lo := hashing.NewBob(0x5eed0001).Hash(key)
	hi := hashing.NewBob(0x5eed0002).Hash(key)
	return uint64(hi)<<32 | uint64(lo)
}

// keyStripes is the number of stripes a KeyMap splits its names into, by
// an item's top four bits. Bound rebuilds one stripe at a time, so a
// prune costs one walk of the tracker and the copy of one stripe's
// surviving names rather than a rebuild of the whole table.
const keyStripes = 16

// keyBoundFactor is the number of names per tracker cell Bound allows.
// Twice the cells leaves room for as many names again as the tracker
// holds, so a stripe rebuild drops about its share of a tracker's worth
// of names and its cost amortises to O(1) per newly noted key.
const keyBoundFactor = 2

// KeyMap remembers the string behind each hashed Item so query results can
// be reported with their original keys; the trackers themselves only ever
// store the 8-byte Item. Bound keeps the names of the items a tracker
// holds and drops the rest, so names live and die with cells instead of
// accumulating one per distinct key ever seen.
//
// The table is pointer-free, so the garbage collector never scans it: key
// bytes sit in per-stripe byte slabs, indexed by a map from Item to the
// name's packed slab offset and length. A KeyMap is not safe for
// concurrent use; build one with NewKeyMap.
type KeyMap struct {
	stripes [keyStripes]keyStripe
	n       int // names held, over every stripe

	// spare is the one index and slab pair Bound rebuilds a stripe into;
	// the swap hands the stripe's old pair back as the spare, so the 16
	// stripes share one spare rather than each keeping its own.
	spare keyStripe

	// keep is Bound's visitor, built once in NewKeyMap so a prune hands it
	// to the walk without allocating; pruning is the stripe it rebuilds.
	keep    func(Item)
	pruning int
}

// keyStripe is one stripe of a KeyMap: an index and the slab it locates
// names in.
type keyStripe struct {
	index map[Item]uint64 // item → slab offset<<32 | name length
	slab  []byte
}

// at returns the name an index entry locates in the live slab.
func (st *keyStripe) at(loc uint64) []byte {
	off := loc >> 32
	return st.slab[off : off+loc&0xffffffff]
}

// locate packs a name's slab offset and length into an index entry.
func locate(off, n int) uint64 { return uint64(off)<<32 | uint64(n) }

// NewKeyMap creates an empty KeyMap.
func NewKeyMap() *KeyMap {
	m := &KeyMap{spare: keyStripe{index: make(map[Item]uint64)}}
	for s := range m.stripes {
		m.stripes[s].index = make(map[Item]uint64)
	}
	m.keep = m.keepName
	return m
}

// stripeOf is the stripe holding item's name.
func stripeOf(item Item) int { return int(item >> 60) }

// Intern hashes key, remembers the mapping, and returns the Item.
func (m *KeyMap) Intern(key string) Item {
	it := HashKey(key)
	if _, ok := m.stripes[stripeOf(it)].index[it]; !ok {
		m.Note(it, []byte(key))
	}
	return it
}

// Note remembers key as the string behind an already-hashed item. It is
// the byte-slice complement of Intern for callers that computed the Item
// with HashKeyBytes: the bytes are copied into the table only on first
// sight, so a hot key costs one map probe and zero allocations after its
// first arrival. The caller must pass item == HashKeyBytes(key).
//
//sig:noalloc
func (m *KeyMap) Note(item Item, key []byte) {
	st := &m.stripes[stripeOf(item)]
	if _, ok := st.index[item]; ok {
		return
	}
	st.index[item] = locate(len(st.slab), len(key))
	st.slab = append(st.slab, key...)
	m.n++
}

// name returns the bytes behind item, aliasing the stripe's slab.
func (m *KeyMap) name(item Item) ([]byte, bool) {
	st := &m.stripes[stripeOf(item)]
	loc, ok := st.index[item]
	if !ok {
		return nil, false
	}
	return st.at(loc), true
}

// Lookup returns the string behind item, if held.
func (m *KeyMap) Lookup(item Item) (string, bool) {
	b, ok := m.name(item)
	return string(b), ok
}

// Name returns the string behind item, or its PlaceholderKey if unknown.
func (m *KeyMap) Name(item Item) string {
	if b, ok := m.name(item); ok {
		return string(b)
	}
	return PlaceholderKey(item)
}

// PlaceholderKey is the key Name renders for an item it holds no name for:
// "0x" and the item's 16 lowercase hex digits. A reader of a node's top
// list compares a key with it to tell a placeholder from a name.
func PlaceholderKey(item Item) string { return "0x" + hex64(item) }

// Len reports the number of names held.
func (m *KeyMap) Len() int { return m.n }

// Range calls fn for every held (item, key) pair in unspecified order,
// stopping early if fn returns false. It exists so callers that persist a
// KeyMap (e.g. a tenant spill image) can walk the mapping without this
// package committing to an exposed map.
func (m *KeyMap) Range(fn func(item Item, key string) bool) {
	for s := range m.stripes {
		st := &m.stripes[s]
		for it, loc := range st.index {
			if !fn(it, string(st.at(loc))) {
				return
			}
		}
	}
}

// Bound keeps m to at most 2× cells names. While m holds more, it rebuilds
// its fullest stripe (the lowest-numbered on ties, each stripe at most
// once per call) keeping only the names of the items walk passes to its
// visit function, typically a tracker's VisitItems, which yields the item
// of every occupied cell. Every step depends only on the set of names
// held and the items walked, so the same stream noted and bounded in the
// same order leaves the same names however the table was last rebuilt
// (from a snapshot, after a replay). A walk may yield an item more than
// once; a rebuild allocates nothing once the buffers it rotates through
// have grown to their steady size.
//
//sig:noalloc
func (m *KeyMap) Bound(cells int, walk func(visit func(Item))) {
	var rebuilt uint32
	for m.n > keyBoundFactor*cells && rebuilt != 1<<keyStripes-1 {
		s, most := 0, -1
		for i := range m.stripes {
			if rebuilt&(1<<i) == 0 && len(m.stripes[i].index) > most {
				s, most = i, len(m.stripes[i].index)
			}
		}
		rebuilt |= 1 << s
		clear(m.spare.index)
		m.spare.slab = m.spare.slab[:0]
		m.pruning = s
		walk(m.keep)
		m.n += len(m.spare.index) - len(m.stripes[s].index)
		m.stripes[s], m.spare = m.spare, m.stripes[s]
	}
}

// keepName copies item's name into the spare buffers, when item belongs
// to the stripe Bound is rebuilding and has a name.
func (m *KeyMap) keepName(item Item) {
	if stripeOf(item) != m.pruning {
		return
	}
	st := &m.stripes[m.pruning]
	loc, ok := st.index[item]
	if !ok {
		return
	}
	if _, dup := m.spare.index[item]; dup {
		return
	}
	name := st.at(loc)
	m.spare.index[item] = locate(len(m.spare.slab), len(name))
	m.spare.slab = append(m.spare.slab, name...)
}

func hex64(x uint64) string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = digits[x&0xf]
		x >>= 4
	}
	return string(b[:])
}
