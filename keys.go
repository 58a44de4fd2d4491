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

// KeyMap remembers the string behind each hashed Item so query results can
// be reported with their original keys. It is an optional convenience: the
// trackers themselves only ever store the 8-byte Item.
type KeyMap struct {
	names map[Item]string
}

// NewKeyMap creates an empty KeyMap.
func NewKeyMap() *KeyMap {
	return &KeyMap{names: make(map[Item]string)}
}

// Intern hashes key, remembers the mapping, and returns the Item.
func (m *KeyMap) Intern(key string) Item {
	it := HashKey(key)
	if _, ok := m.names[it]; !ok {
		m.names[it] = key
	}
	return it
}

// Note remembers key as the string behind an already-hashed item. It is
// the byte-slice complement of Intern for callers that computed the Item
// with HashKeyBytes: the string copy is made only on first sight, so a
// hot key costs one map probe and zero allocations after its first
// arrival. The caller must pass item == HashKeyBytes(key).
func (m *KeyMap) Note(item Item, key []byte) {
	if _, ok := m.names[item]; !ok {
		m.names[item] = string(key)
	}
}

// Lookup returns the string behind item, if interned.
func (m *KeyMap) Lookup(item Item) (string, bool) {
	s, ok := m.names[item]
	return s, ok
}

// Name returns the string behind item, or a hex rendering if unknown.
func (m *KeyMap) Name(item Item) string {
	if s, ok := m.names[item]; ok {
		return s
	}
	return "0x" + hex64(item)
}

// Len reports the number of interned keys.
func (m *KeyMap) Len() int { return len(m.names) }

// Range calls fn for every interned (item, key) pair in unspecified
// order, stopping early if fn returns false. It exists so callers that
// persist a KeyMap (e.g. a tenant spill image) can walk the mapping
// without this package committing to an exposed map.
func (m *KeyMap) Range(fn func(item Item, key string) bool) {
	for it, key := range m.names {
		if !fn(it, key) {
			return
		}
	}
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
