package cache

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strconv"
	"sync"
	"testing"
)

func TestHitMissCounters(t *testing.T) {
	m := NewMap[int]("t", 8)
	if _, ok := m.Get("a"); ok {
		t.Fatal("empty cache hit")
	}
	m.Put("a", 1)
	if v, ok := m.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	s := m.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Invalidations != 0 {
		t.Fatalf("stats = %+v", s)
	}
	if s.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v", s.HitRate())
	}
}

func TestDeleteAndFlushCountInvalidations(t *testing.T) {
	m := NewMap[int]("t", 8)
	m.Put("a", 1)
	m.Put("b", 2)
	m.Delete("a")
	m.Delete("missing") // not present: no invalidation
	m.Flush()
	s := m.Stats()
	if s.Invalidations != 2 {
		t.Fatalf("invalidations = %d, want 2", s.Invalidations)
	}
	if m.Len() != 0 {
		t.Fatalf("len = %d after flush", m.Len())
	}
}

func TestEvictionBoundsSize(t *testing.T) {
	m := NewMap[int]("t", 16)
	for k := 0; k < 1000; k++ {
		m.Put(fmt.Sprintf("k%d", k), k)
	}
	if n := m.Len(); n > 16 {
		t.Fatalf("cache grew past its bound: %d entries", n)
	}
}

func TestOverwriteDoesNotEvict(t *testing.T) {
	m := NewMap[int]("t", 2)
	m.Put("a", 1)
	m.Put("b", 2)
	m.Put("a", 3) // overwrite at capacity must not evict
	if v, ok := m.Get("a"); !ok || v != 3 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
}

// TestConcurrentAccess runs every operation from several goroutines at
// once over more keys than the map holds, so Put evicts, Delete frees
// slots and Flush empties the map while others read and write it.
func TestConcurrentAccess(t *testing.T) {
	m := NewMap[int]("t", 24)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				key := fmt.Sprintf("k%d", (k*7+g)%32)
				m.Put(key, g)
				m.Get(key)
				if k%7 == 0 {
					m.Delete(fmt.Sprintf("k%d", (k+g)%32))
				}
				if k%50 == 0 {
					m.Flush()
				}
			}
		}(g)
	}
	wg.Wait()
	s := m.Stats()
	if s.Hits+s.Misses != 8*200 {
		t.Fatalf("lookup count = %d, want %d", s.Hits+s.Misses, 8*200)
	}
	if n := m.Len(); n > 24 {
		t.Fatalf("cache grew past its bound: %d entries", n)
	}
}

// TestClockHitRatioUnderZipf: a Zipf-skewed draw (s = 1) over four times
// as many keys as the map holds, the shape of a parse cache serving
// scripts, hits at least 0.75 of the time.  The draw is seeded, so the
// ratio is the same in every run; evicting an arbitrary eighth of the
// map when full read about 0.70.
func TestClockHitRatioUnderZipf(t *testing.T) {
	const keys, size, warm, draws = 2048, 512, 20000, 200000
	cdf := make([]float64, keys)
	sum := 0.0
	for k := range cdf {
		sum += 1 / float64(k+1)
		cdf[k] = sum
	}
	names := make([]string, keys)
	for k := range names {
		names[k] = "k" + strconv.Itoa(k)
	}
	r := rand.New(rand.NewPCG(1, 2))
	m := NewMap[int]("t", size)
	hits := 0
	for n := 0; n < warm+draws; n++ {
		k := sort.SearchFloat64s(cdf, r.Float64()*sum)
		if _, ok := m.Get(names[k]); ok {
			if n >= warm {
				hits++
			}
			continue
		}
		m.Put(names[k], k)
	}
	ratio := float64(hits) / draws
	t.Logf("hit ratio %.3f", ratio)
	if ratio < 0.75 {
		t.Errorf("hit ratio %.3f under a Zipf draw, want at least 0.75", ratio)
	}
}

// TestClockKeepsReadKey: a key read between every two one-off inserts
// survives ten capacities' worth of them, since each read sets its bit
// again before the hand comes back round.
func TestClockKeepsReadKey(t *testing.T) {
	m := NewMap[int]("t", 16)
	m.Put("hot", 1)
	for k := 0; k < 10*16; k++ {
		m.Put("once"+strconv.Itoa(k), k)
		if _, ok := m.Get("hot"); !ok {
			t.Fatalf("the read key was evicted after %d one-off inserts", k+1)
		}
	}
	if n := m.Len(); n != 16 {
		t.Fatalf("len = %d, want the full 16", n)
	}
}

// TestDeleteFreesSlot: a Put after a Delete in a full map takes the
// deleted entry's slot and evicts nothing.
func TestDeleteFreesSlot(t *testing.T) {
	m := NewMap[int]("t", 4)
	for k := 0; k < 4; k++ {
		m.Put("k"+strconv.Itoa(k), k)
	}
	m.Delete("k2")
	m.Put("new", 9)
	for _, key := range []string{"k0", "k1", "k3", "new"} {
		if _, ok := m.Get(key); !ok {
			t.Errorf("%s missing after a Delete and a Put in a full map", key)
		}
	}
	if len(m.slots) != 4 {
		t.Errorf("%d slots, want the 4 the map holds", len(m.slots))
	}
}

// TestFlushKeepsSlots: refilling a flushed map allocates no slot and no
// index entry, as the per-interpreter path cache is flushed and refilled
// whenever $path changes.
func TestFlushKeepsSlots(t *testing.T) {
	m := NewMap[int]("t", 64)
	keys := make([]string, 64)
	for k := range keys {
		keys[k] = "k" + strconv.Itoa(k)
		m.Put(keys[k], k)
	}
	allocs := testing.AllocsPerRun(10, func() {
		m.Flush()
		for k, key := range keys {
			m.Put(key, k)
		}
	})
	if allocs != 0 {
		t.Errorf("a refill after Flush made %.0f allocations, want 0", allocs)
	}
	if n := m.Len(); n != 64 {
		t.Errorf("len = %d after the refill, want 64", n)
	}
}
