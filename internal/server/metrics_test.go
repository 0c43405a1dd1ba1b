package server

import (
	"testing"
	"time"
)

// bucketOf returns the index of the single bucket an Observe(d) call
// increments, by diffing the histogram.
func bucketOf(t *testing.T, d time.Duration) int {
	t.Helper()
	var m Metrics
	m.Observe(d)
	idx := -1
	for k := range m.lat {
		if n := m.lat[k].Load(); n != 0 {
			if idx != -1 || n != 1 {
				t.Fatalf("Observe(%v) incremented more than one bucket", d)
			}
			idx = k
		}
	}
	if idx == -1 {
		t.Fatalf("Observe(%v) incremented no bucket", d)
	}
	return idx
}

// TestObserveBucketRanges pins the documented ranges: bucket 0 is
// [0, 1µs) (with negatives clamped in), bucket k ≥ 1 is [2^(k-1), 2^k)
// microseconds, and the last bucket absorbs the overflow.
func TestObserveBucketRanges(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{-time.Second, 0}, // clamped, not a real bucket skew
		{0, 0},
		{500 * time.Nanosecond, 0},
		{999 * time.Nanosecond, 0},
		{time.Microsecond, 1},
		{1999 * time.Nanosecond, 1},
		{2 * time.Microsecond, 2},
		{3 * time.Microsecond, 2},
		{4 * time.Microsecond, 3},
		{7 * time.Microsecond, 3},
		{8 * time.Microsecond, 4},
		{100 * time.Microsecond, 7},        // [64µs, 128µs)
		{time.Millisecond, 10},             // 1000µs ∈ [512µs, 1024µs)
		{8760 * time.Hour, latBuckets - 1}, // a year: far past the last lower edge
	}
	for _, c := range cases {
		if got := bucketOf(t, c.d); got != c.want {
			t.Errorf("Observe(%v): bucket %d, want %d", c.d, got, c.want)
		}
	}
}

// TestQuantileKnownDistribution checks q=0, q=0.5 and q=1 against a
// distribution whose per-bucket placement is known exactly.
func TestQuantileKnownDistribution(t *testing.T) {
	var m Metrics
	// 4 sub-µs, 4 in [2µs,4µs), 2 in [64µs,128µs): n = 10.
	for i := 0; i < 4; i++ {
		m.Observe(100 * time.Nanosecond)
	}
	for i := 0; i < 4; i++ {
		m.Observe(3 * time.Microsecond)
	}
	m.Observe(100 * time.Microsecond)
	m.Observe(90 * time.Microsecond)

	// q=0 is the minimum: the lower edge of the first non-empty bucket
	// (0 here, since sub-µs observations exist) — not that bucket's
	// upper edge as the old formula reported.
	if got := m.Quantile(0); got != 0 {
		t.Errorf("Quantile(0) = %v, want 0", got)
	}
	// q=0.5: rank ceil(0.5·10) = 5, which is the first observation in
	// the [2µs,4µs) bucket; upper bound 4µs.
	if got := m.Quantile(0.5); got != 4*time.Microsecond {
		t.Errorf("Quantile(0.5) = %v, want 4µs", got)
	}
	// q=1: rank 10, the slowest observation, in [64µs,128µs); upper
	// bound 128µs.
	if got := m.Quantile(1); got != 128*time.Microsecond {
		t.Errorf("Quantile(1) = %v, want 128µs", got)
	}
	// Out-of-range q clamps rather than misbehaving.
	if got := m.Quantile(-0.5); got != 0 {
		t.Errorf("Quantile(-0.5) = %v, want 0", got)
	}
	if got := m.Quantile(2); got != 128*time.Microsecond {
		t.Errorf("Quantile(2) = %v, want 128µs", got)
	}
}

// TestQuantileEdges covers the empty histogram and a minimum that does
// not sit in bucket 0.
func TestQuantileEdges(t *testing.T) {
	var m Metrics
	if got := m.Quantile(0.5); got != 0 {
		t.Errorf("Quantile on empty histogram = %v, want 0", got)
	}
	m.Observe(3 * time.Microsecond) // bucket 2: [2µs, 4µs)
	if got := m.Quantile(0); got != 2*time.Microsecond {
		t.Errorf("Quantile(0) = %v, want lower edge 2µs", got)
	}
	if got := m.Quantile(1); got != 4*time.Microsecond {
		t.Errorf("Quantile(1) = %v, want upper edge 4µs", got)
	}
}
