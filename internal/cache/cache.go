// Package cache provides the interpreter's native memoization substrate:
// small bounded maps that evict by CLOCK, with observable
// hit/miss/invalidation counters.
//
// The paper's Figure 2 shows users speeding up command dispatch by spoofing
// %pathsearch with a caching version written in es; this package makes the
// same idea a first-class, measured part of the runtime.  Each cache keeps
// counters so the effect of caching on the hot dispatch paths is visible
// (via $&cachestats and the es -cachestats flag) rather than assumed.
//
// Caches are safe for concurrent use: subshells and background jobs share
// the process-wide parse, decode, and glob caches.
package cache

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Counters tracks cache effectiveness.  All methods are safe for
// concurrent use.
type Counters struct {
	name          string
	hits          atomic.Int64
	misses        atomic.Int64
	invalidations atomic.Int64
}

// Stats is a point-in-time snapshot of one cache's counters.
type Stats struct {
	Name          string
	Entries       int
	Hits          int64
	Misses        int64
	Invalidations int64
}

// HitRate returns the fraction of lookups served from the cache, in
// [0, 1]; it is 0 when no lookups have happened.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// String renders the snapshot in the form printed by es -cachestats.
func (s Stats) String() string {
	return fmt.Sprintf("%s: %d entries, %d hits, %d misses, %d invalidated (%.1f%% hit rate)",
		s.Name, s.Entries, s.Hits, s.Misses, s.Invalidations, s.HitRate()*100)
}

// Map is a bounded string-keyed cache that evicts by CLOCK.  Each entry
// sits in a slot with a reference bit, which a hit sets.  A Put into a
// full map sweeps a hand over the slots in order, clearing the bits it
// finds set, and reuses the first slot whose bit was already clear: an
// entry read since the hand last passed it stays, and a one-off entry
// goes at the next pass.  The workloads these caches serve (command
// names, command sources, glob patterns) are heavily skewed: CLOCK keeps
// the hot entries that an arbitrary eviction would drop, for one store
// per hit under the lock Get takes anyway.
type Map[V any] struct {
	Counters
	mu    sync.Mutex
	max   int
	index map[string]int32 // key → its slot
	slots []slot[V]        // at most max; grown by Put, kept by Flush
	free  []int32          // slots Delete emptied, reused first
	hand  int              // the next slot the sweep looks at
}

// slot is one entry and its reference bit.
type slot[V any] struct {
	key string
	val V
	ref bool
}

// NewMap creates a cache holding at most max entries.
func NewMap[V any](name string, max int) *Map[V] {
	if max < 1 {
		max = 1
	}
	m := &Map[V]{max: max, index: make(map[string]int32)}
	m.name = name
	return m
}

// Get looks up key, counting a hit or a miss.  A hit sets the entry's
// reference bit.
func (m *Map[V]) Get(key string) (V, bool) {
	m.mu.Lock()
	var v V
	k, ok := m.index[key]
	if ok {
		s := &m.slots[k]
		s.ref = true
		v = s.val
	}
	m.mu.Unlock()
	if ok {
		m.hits.Add(1)
	} else {
		m.misses.Add(1)
	}
	return v, ok
}

// Put stores key → v.  A new key takes a slot Delete freed, else a new
// slot while the map is under its capacity, else the slot of the entry
// the CLOCK sweep evicts.  It starts with its reference bit clear.
func (m *Map[V]) Put(key string, v V) {
	m.mu.Lock()
	if k, ok := m.index[key]; ok {
		m.slots[k].val = v
		m.mu.Unlock()
		return
	}
	var k int32
	switch {
	case len(m.free) > 0:
		k = m.free[len(m.free)-1]
		m.free = m.free[:len(m.free)-1]
	case len(m.slots) < m.max:
		k = int32(len(m.slots))
		m.slots = append(m.slots, slot[V]{})
	default:
		k = m.evict()
	}
	m.slots[k] = slot[V]{key: key, val: v}
	m.index[key] = k
	m.mu.Unlock()
}

// evict sweeps the hand over the full map's slots, clearing every set
// reference bit it passes, and drops the first entry whose bit was
// clear.  It returns that entry's slot.  The sweep ends within one
// turn and a slot: a turn clears every bit.
func (m *Map[V]) evict() int32 {
	for {
		k := m.hand
		m.hand = (m.hand + 1) % len(m.slots)
		s := &m.slots[k]
		if s.ref {
			s.ref = false
			continue
		}
		delete(m.index, s.key)
		return int32(k)
	}
}

// Delete removes one entry, counting an invalidation if it was present.
// Its slot is the next a new key takes.
func (m *Map[V]) Delete(key string) {
	m.mu.Lock()
	k, ok := m.index[key]
	if ok {
		delete(m.index, key)
		m.slots[k] = slot[V]{}
		m.free = append(m.free, k)
	}
	m.mu.Unlock()
	if ok {
		m.invalidations.Add(1)
	}
}

// Flush drops every entry, counting each as an invalidation.  The index
// and the slots keep their capacity, so a refill allocates none.
func (m *Map[V]) Flush() {
	m.mu.Lock()
	n := len(m.index)
	clear(m.index)
	clear(m.slots)
	m.slots = m.slots[:0]
	m.free = m.free[:0]
	m.hand = 0
	m.mu.Unlock()
	m.invalidations.Add(int64(n))
}

// Len reports the number of cached entries.
func (m *Map[V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.index)
}

// Stats snapshots the cache's counters.
func (m *Map[V]) Stats() Stats {
	return Stats{
		Name:          m.name,
		Entries:       m.Len(),
		Hits:          m.hits.Load(),
		Misses:        m.misses.Load(),
		Invalidations: m.invalidations.Load(),
	}
}
