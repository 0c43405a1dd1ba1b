// Package cache provides the interpreter's native memoization substrate:
// small bounded maps with observable hit/miss/invalidation counters.
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

// Map is a bounded string-keyed cache.  When the map reaches its
// capacity a batch of arbitrary entries is evicted; the workloads these
// caches serve (command names, command sources, glob patterns) are
// heavily skewed, so hot entries repopulate immediately and precise LRU
// bookkeeping would cost more than it saves.
type Map[V any] struct {
	Counters
	mu      sync.Mutex
	max     int
	entries map[string]V
}

// NewMap creates a cache holding at most max entries.
func NewMap[V any](name string, max int) *Map[V] {
	if max < 1 {
		max = 1
	}
	m := &Map[V]{max: max, entries: make(map[string]V)}
	m.name = name
	return m
}

// Get looks up key, counting a hit or a miss.
func (m *Map[V]) Get(key string) (V, bool) {
	m.mu.Lock()
	v, ok := m.entries[key]
	m.mu.Unlock()
	if ok {
		m.hits.Add(1)
	} else {
		m.misses.Add(1)
	}
	return v, ok
}

// Put stores key → v, evicting arbitrary entries if the cache is full.
func (m *Map[V]) Put(key string, v V) {
	m.mu.Lock()
	if _, exists := m.entries[key]; !exists && len(m.entries) >= m.max {
		// Evict an eighth of the cache (at least one entry) so a burst
		// of one-off keys cannot thrash every insertion.
		drop := m.max / 8
		if drop < 1 {
			drop = 1
		}
		for k := range m.entries {
			delete(m.entries, k)
			drop--
			if drop == 0 {
				break
			}
		}
	}
	m.entries[key] = v
	m.mu.Unlock()
}

// Delete removes one entry, counting an invalidation if it was present.
func (m *Map[V]) Delete(key string) {
	m.mu.Lock()
	_, ok := m.entries[key]
	if ok {
		delete(m.entries, key)
	}
	m.mu.Unlock()
	if ok {
		m.invalidations.Add(1)
	}
}

// Flush drops every entry, counting each as an invalidation.
func (m *Map[V]) Flush() {
	m.mu.Lock()
	n := len(m.entries)
	m.entries = make(map[string]V)
	m.mu.Unlock()
	m.invalidations.Add(int64(n))
}

// Len reports the number of cached entries.
func (m *Map[V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
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
