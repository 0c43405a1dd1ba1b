package server

// Server observability, in the same counter idiom as internal/cache:
// plain atomics snapshotted on demand, never sampled behind a lock on the
// hot path.  Latency is a fixed power-of-two histogram in microseconds,
// so p50/p99 are one pass over 40 counters with bounded (~2x) bucket
// error — the classic serving-histogram trade.

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// latBuckets is the histogram size.  Bucket 0 counts sub-microsecond
// evals — the interval [0µs, 1µs) — and bucket k for k ≥ 1 counts
// [2^(k-1), 2^k) microseconds; the final bucket also absorbs anything
// slower than its lower edge, which is already past an hour.
const latBuckets = 40

// Metrics is the server-wide counter set.  All fields are safe for
// concurrent use.
type Metrics struct {
	SessionsOpened atomic.Int64
	SessionsClosed atomic.Int64
	Evals          atomic.Int64 // eval frames processed
	Errors         atomic.Int64 // evals that raised an uncaught exception
	Timeouts       atomic.Int64 // the subset of Errors that were `signal deadline`
	InFlight       atomic.Int64 // evals currently holding the semaphore
	Checks         atomic.Int64 // scripts statically analyzed (check frames + -vet pre-checks)
	CheckRejects   atomic.Int64 // the subset with static errors
	Snapshots      atomic.Int64 // snap frames served
	Restores       atomic.Int64 // restore frames applied
	Migrations     atomic.Int64 // sessions handed to another daemon
	Queued         atomic.Int64 // evals admitted but not yet running (the dispatch-queue depth)
	Sheds          atomic.Int64 // evals refused by admission control (`signal overload`)
	QuotaRejects   atomic.Int64 // evals/sessions refused by tenant quotas (`signal quota`)
	BytesIn        atomic.Int64
	BytesOut       atomic.Int64

	lat [latBuckets]atomic.Int64

	lmu       sync.Mutex
	listeners []*ListenerStats
}

// ListenerStats is the per-listener slice of the transport counters: one
// per accept surface (unix, tcp, tls), folded into Words after the
// globals.
type ListenerStats struct {
	Name     string
	Sessions atomic.Int64
	BytesIn  atomic.Int64
	BytesOut atomic.Int64
}

// registerListener adds a per-listener counter set under name.
func (m *Metrics) registerListener(name string) *ListenerStats {
	m.lmu.Lock()
	defer m.lmu.Unlock()
	ls := &ListenerStats{Name: name}
	m.listeners = append(m.listeners, ls)
	return ls
}

// Observe records one eval's wall-clock latency.  Sub-microsecond
// evals land in bucket 0; negative durations (a clock stepped backwards
// mid-eval) are clamped there too rather than skewing a real bucket.
func (m *Metrics) Observe(d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	k := 0
	for us > 0 && k < latBuckets-1 {
		us >>= 1
		k++
	}
	m.lat[k].Add(1)
}

// bucketLower and bucketUpper are the documented edges of bucket k:
// [0, 1µs) for bucket 0, [2^(k-1), 2^k) µs for k ≥ 1.
func bucketLower(k int) time.Duration {
	if k == 0 {
		return 0
	}
	return time.Duration(int64(1)<<uint(k-1)) * time.Microsecond
}

func bucketUpper(k int) time.Duration {
	return time.Duration(int64(1)<<uint(k)) * time.Microsecond
}

// Quantile returns a bound on the q-quantile (q clamped to [0,1]) of
// observed latencies; zero when nothing has been observed.  For q > 0
// it reports the upper edge of the bucket holding the ceil(q·n)-th
// fastest observation — an upper bound with the histogram's ~2x
// resolution.  q = 0 asks for the minimum, so it reports the lower edge
// of the first non-empty bucket instead: the old rank formula returned
// that bucket's upper edge, claiming a "minimum" larger than an
// observation that was actually made.
func (m *Metrics) Quantile(q float64) time.Duration {
	return quantileOfCounts(m.buckets(), q)
}

// buckets snapshots the latency histogram counts, bucket edges as
// documented above.  The admission controller keeps the previous
// snapshot and takes the difference for its sliding window.
func (m *Metrics) buckets() []int64 {
	counts := make([]int64, latBuckets)
	for k := range m.lat {
		counts[k] = m.lat[k].Load()
	}
	return counts
}

// quantileOfCounts is Quantile over an arbitrary count vector with the
// same bucket edges — the piece the admission controller runs over an
// interval delta of buckets rather than the lifetime histogram.
func quantileOfCounts(counts []int64, q float64) time.Duration {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q <= 0 {
		for k, c := range counts {
			if c > 0 {
				return bucketLower(k)
			}
		}
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank > total {
		rank = total
	}
	var seen int64
	for k, c := range counts {
		seen += c
		if seen >= rank {
			return bucketUpper(k)
		}
	}
	return bucketUpper(len(counts) - 1)
}

// Words renders the counters as name:value words, the wire/script surface
// shared by the stats frame and the $&serverstats primitive (the same
// shape as $&cachestats).  The order is fixed so output is diffable.
func (m *Metrics) Words() []string {
	open := m.SessionsOpened.Load() - m.SessionsClosed.Load()
	words := []string{
		fmt.Sprintf("sessions_open:%d", open),
		fmt.Sprintf("sessions_total:%d", m.SessionsOpened.Load()),
		fmt.Sprintf("evals:%d", m.Evals.Load()),
		fmt.Sprintf("errors:%d", m.Errors.Load()),
		fmt.Sprintf("timeouts:%d", m.Timeouts.Load()),
		fmt.Sprintf("inflight:%d", m.InFlight.Load()),
		fmt.Sprintf("checks:%d", m.Checks.Load()),
		fmt.Sprintf("check_rejects:%d", m.CheckRejects.Load()),
		fmt.Sprintf("snapshots:%d", m.Snapshots.Load()),
		fmt.Sprintf("restores:%d", m.Restores.Load()),
		fmt.Sprintf("migrations:%d", m.Migrations.Load()),
		fmt.Sprintf("queued:%d", m.Queued.Load()),
		fmt.Sprintf("sheds:%d", m.Sheds.Load()),
		fmt.Sprintf("quota_rejects:%d", m.QuotaRejects.Load()),
		fmt.Sprintf("bytes_in:%d", m.BytesIn.Load()),
		fmt.Sprintf("bytes_out:%d", m.BytesOut.Load()),
		fmt.Sprintf("p50_us:%d", m.Quantile(0.50).Microseconds()),
		fmt.Sprintf("p99_us:%d", m.Quantile(0.99).Microseconds()),
		fmt.Sprintf("gc_cpu_frac:%.3f", gcCPUFrac()),
	}
	words = append(words, heapWords()...)
	m.lmu.Lock()
	listeners := append([]*ListenerStats(nil), m.listeners...)
	m.lmu.Unlock()
	for _, ls := range listeners {
		words = append(words,
			fmt.Sprintf("lst_%s_sessions:%d", ls.Name, ls.Sessions.Load()),
			fmt.Sprintf("lst_%s_bytes_in:%d", ls.Name, ls.BytesIn.Load()),
			fmt.Sprintf("lst_%s_bytes_out:%d", ls.Name, ls.BytesOut.Load()),
		)
	}
	return words
}

// gcCPUFrac is the garbage collector's share of the CPU this process has
// used: GC time over all CPU time but idle, so an idle daemon does not
// dilute it.  The runtime refreshes these classes at each collection.
func gcCPUFrac() float64 {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	used := s[1].Value.Float64() - s[2].Value.Float64()
	if used <= 0 {
		return 0
	}
	return s[0].Value.Float64() / used
}

// heapWords reports the heap as of the last collection: the bytes of the
// objects it marked live, and the bytes of heap it has to scan for
// pointers, which is what each collection's mark work follows.
func heapWords() []string {
	s := []metrics.Sample{
		{Name: "/gc/heap/live:bytes"},
		{Name: "/gc/scan/heap:bytes"},
	}
	metrics.Read(s)
	return []string{
		fmt.Sprintf("heap_live_bytes:%d", s[0].Value.Uint64()),
		fmt.Sprintf("heap_scan_bytes:%d", s[1].Value.Uint64()),
	}
}

// sessionMetrics is the per-session slice of the same counters, reported
// in a session's stats frame alongside the globals.
type sessionMetrics struct {
	evals    atomic.Int64
	errors   atomic.Int64
	timeouts atomic.Int64
}

func (sm *sessionMetrics) words(id uint64) []string {
	return []string{
		fmt.Sprintf("session:%d", id),
		fmt.Sprintf("session_evals:%d", sm.evals.Load()),
		fmt.Sprintf("session_errors:%d", sm.errors.Load()),
		fmt.Sprintf("session_timeouts:%d", sm.timeouts.Load()),
	}
}
