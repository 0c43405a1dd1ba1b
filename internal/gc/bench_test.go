package gc

import (
	"fmt"
	"testing"
)

func BenchmarkAllocString(b *testing.B) {
	h := NewHeap(1 << 14)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		h.String("benchmark-payload")
	}
}

func BenchmarkAllocConsChain(b *testing.B) {
	h := NewHeap(1 << 14)
	list := Nil
	h.AddRoot(&list)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		list = h.Cons(Nil, list)
		if n%1024 == 0 {
			list = Nil // let the chain die periodically
		}
	}
}

// BenchmarkAllocUnderLiveRoots guards the rootset against regressing to
// O(live roots) per allocation: allocWithRefs pushes and pops two
// temporary roots around every cons, and RemoveRoot must find them at the
// tail regardless of how many long-lived roots sit below.  With the old
// head-first scan this benchmark degraded linearly in the live count.
// Every deadDrop conses the dead cells are dropped, so the space never
// grows and B/op does not depend on b.N.
func BenchmarkAllocUnderLiveRoots(b *testing.B) {
	const deadDrop = 1 << 15
	for _, live := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("roots=%d", live), func(b *testing.B) {
			h := NewHeap(1 << 16)
			h.Disable() // isolate rootset bookkeeping from collection cost
			defer h.Enable()
			slots := make([]Ref, live)
			for k := range slots {
				slots[k] = h.String("pinned")
				h.AddRoot(&slots[k])
			}
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if n%deadDrop == 0 {
					h.space = h.space[:live]
				}
				h.Cons(Nil, Nil)
			}
		})
	}
}

// Collection cost as a function of live-set size: pause time should be
// proportional to live data, not heap size — the property that justifies
// a copying collector for mostly-dead shell heaps.
func BenchmarkCollectByLiveSize(b *testing.B) {
	for _, live := range []int{64, 512, 4096} {
		b.Run(fmt.Sprintf("live=%d", live), func(b *testing.B) {
			h := NewHeap(live * 8)
			env := Nil
			h.AddRoot(&env)
			for k := 0; k < live/2; k++ {
				v := h.String("x")
				h.AddRoot(&v)
				env = h.Binding("n", v, env)
				h.RemoveRoot(&v)
			}
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				h.Collect()
			}
			b.ReportMetric(float64(h.Stats().LiveAfterGC), "live")
		})
	}
}

// Heap-size sweep: a roomier semispace trades memory for fewer
// collections ("we picked a strategy where we traded ... being somewhat
// wasteful in the amount of memory used").
func BenchmarkReplayByHeapSize(b *testing.B) {
	for _, size := range []int{MinHeap, 1024, 8192, 65536} {
		b.Run(fmt.Sprintf("heap=%d", size), func(b *testing.B) {
			h := NewHeap(size)
			b.ResetTimer()
			stats := Replay(h, DefaultProfile, b.N)
			b.StopTimer()
			if b.N > 0 {
				b.ReportMetric(float64(stats.Collections)/float64(b.N)*1000, "gcs/1000cmd")
			}
		})
	}
}

// Loop-burst sweep (the paper's observation 2: loops allocate heavily
// but transiently).
func BenchmarkReplayByLoopDepth(b *testing.B) {
	for _, depth := range []int{0, 4, 16} {
		b.Run(fmt.Sprintf("loop=%d", depth), func(b *testing.B) {
			p := DefaultProfile
			p.LoopDepth = depth
			h := NewHeap(4096)
			b.ResetTimer()
			Replay(h, p, b.N)
		})
	}
}

// BenchmarkCopyingVsGenerational is the E8 ablation: the paper chose a
// plain copying collector over a generational one to avoid "the added
// complexity implied by switching to the generational model".  Both
// replay the same shell allocation profile.
func BenchmarkCopyingVsGenerational(b *testing.B) {
	profiles := map[string]CommandProfile{
		"interactive": DefaultProfile,
		"loop-heavy": func() CommandProfile {
			p := DefaultProfile
			p.LoopDepth = 16
			return p
		}(),
	}
	for name, p := range profiles {
		b.Run("copying/"+name, func(b *testing.B) {
			h := NewHeap(4096)
			b.ResetTimer()
			stats := Replay(h, p, b.N)
			b.StopTimer()
			report(b, stats)
		})
		b.Run("generational/"+name, func(b *testing.B) {
			h := NewGenHeap(4096, 32768)
			b.ResetTimer()
			stats := Replay(h, p, b.N)
			b.StopTimer()
			report(b, stats)
			gs := h.GenStats()
			if b.N > 0 {
				b.ReportMetric(float64(gs.Promoted)/float64(b.N), "promoted/cmd")
				b.ReportMetric(float64(gs.BarrierHits)/float64(b.N), "barrier/cmd")
			}
		})
	}
}

func report(b *testing.B, stats Stats) {
	if b.N > 0 {
		b.ReportMetric(float64(stats.Collections)/float64(b.N)*1000, "gcs/1000cmd")
		b.ReportMetric(float64(stats.GCTime.Nanoseconds())/float64(b.N), "gc-ns/cmd")
	}
}
