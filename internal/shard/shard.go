// Package shard provides the sharded string-keyed maps the observe phase's
// shared read-mostly state lives in: memoised documents and detector
// feature caches. A Map spreads keys over fixed shards by fnv-1a hash,
// each guarded by its own RWMutex, so parallel observe workers stop
// contending on one lock. Reads by []byte key are allocation-free (the
// map-index string conversion does not escape), which is what lets callers
// build lookup keys in reused scratch buffers.
//
// Determinism contract: a Map has no iteration primitive, so its shard
// layout and map order can never leak into fingerprints or reports.
package shard

import (
	"slices"
	"sync"
)

const shardCount = 64 // power of two; indexing masks the key hash

// Map is a sharded map from string keys to V values.
type Map[V any] struct {
	shards [shardCount]mapShard[V]
}

type mapShard[V any] struct {
	mu sync.RWMutex
	m  map[string]V
	// Pad each shard to its own cache line so neighbouring shard locks do
	// not false-share under parallel observe traffic.
	_ [32]byte
}

func hashString(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

func hashBytes(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// Get returns the value stored under key.
func (m *Map[V]) Get(key string) (V, bool) {
	sh := &m.shards[hashString(key)&(shardCount-1)]
	sh.mu.RLock()
	v, ok := sh.m[key]
	sh.mu.RUnlock()
	return v, ok
}

// GetBytes returns the value stored under string(key) without allocating:
// the conversion happens inside the map index expression, which the runtime
// special-cases. This is the hot memo-hit path — callers assemble keys in a
// reused scratch buffer and look them up for free.
func (m *Map[V]) GetBytes(key []byte) (V, bool) {
	sh := &m.shards[hashBytes(key)&(shardCount-1)]
	sh.mu.RLock()
	v, ok := sh.m[string(key)]
	sh.mu.RUnlock()
	return v, ok
}

// Set stores v under key, replacing any existing value.
func (m *Map[V]) Set(key string, v V) {
	sh := &m.shards[hashString(key)&(shardCount-1)]
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[string]V)
	}
	sh.m[key] = v
	sh.mu.Unlock()
}

// LoadOrStore returns the existing value for key if present; otherwise it
// stores and returns v. loaded is true if the value was already present.
// Racing stores of the same key keep the first value, matching
// sync.Map.LoadOrStore — callers rely on builds being deterministic per key,
// so either copy is byte-identical.
func (m *Map[V]) LoadOrStore(key string, v V) (actual V, loaded bool) {
	sh := &m.shards[hashString(key)&(shardCount-1)]
	sh.mu.Lock()
	if old, ok := sh.m[key]; ok {
		sh.mu.Unlock()
		return old, true
	}
	if sh.m == nil {
		sh.m = make(map[string]V)
	}
	sh.m[key] = v
	sh.mu.Unlock()
	return v, false
}

// Len returns the total number of entries across all shards.
func (m *Map[V]) Len() int {
	n := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// Clear drops every entry, retaining shard maps for reuse.
func (m *Map[V]) Clear() {
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		clear(sh.m)
		sh.mu.Unlock()
	}
}

// MergeSorted returns, in a new slice, the sorted union of base and adds.
// base must be sorted without duplicates; adds is sorted in place and may
// repeat keys or hold keys base has. base is only read, so it may be
// shared with readers of an earlier result (a checkpoint that is still
// being encoded). This keeps a sorted export of a growing set at the cost
// of the keys added since the last one: sort the few new keys, then one
// linear merge, instead of sorting the whole set again.
func MergeSorted(base, adds []string) []string {
	slices.Sort(adds)
	out := make([]string, 0, len(base)+len(adds))
	i := 0
	for _, k := range adds {
		for i < len(base) && base[i] < k {
			out = append(out, base[i])
			i++
		}
		if i < len(base) && base[i] == k {
			continue
		}
		if n := len(out); n > 0 && out[n-1] == k {
			continue
		}
		out = append(out, k)
	}
	return append(out, base[i:]...)
}

// StrictlySorted reports whether keys is sorted without duplicates: the
// base MergeSorted requires.
func StrictlySorted(keys []string) bool {
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			return false
		}
	}
	return true
}
