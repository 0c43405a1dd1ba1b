package server

// The p99-aware admission controller.  Load shedding has to act on the
// present, but the server's histogram is cumulative over the process
// lifetime, so the controller keeps the previous bucket snapshot and
// computes quantiles of the interval delta: the latency distribution of
// exactly the evals that finished in the last sample period.  When that
// interval p99 crosses the ceiling, a flag flips and the read loops shed
// arriving evals with retryable `signal overload` frames; shed requests
// cost no interpreter time and are not observed into the histogram, so
// as the backlog clears the interval p99 falls and admission reopens —
// a sampled bang-bang controller, deliberately simple.  Queue depth is
// the second, instantaneous signal: it is one atomic load, so it is
// checked inline on every admission rather than sampled.

import (
	"sync/atomic"
	"time"
)

// samplePeriod is how often the controller re-reads the histogram.
const samplePeriod = 100 * time.Millisecond

// minIntervalSamples is how many evals must finish inside one sample
// period before its p99 is believed; a near-idle interval's quantiles
// are noise, and an idle server must never shed.
const minIntervalSamples = 8

type controller struct {
	m            *Metrics
	p99Ceiling   time.Duration
	queueCeiling int
	retryMS      int64

	shedding atomic.Bool
	prev     []int64
}

func newController(m *Metrics, cfg Config) controller {
	return controller{
		m:            m,
		p99Ceiling:   cfg.P99Ceiling,
		queueCeiling: cfg.QueueCeiling,
		retryMS:      cfg.RetryAfterMS,
	}
}

// run samples the histogram every period until stop closes.
func (c *controller) run(stop <-chan struct{}) {
	tick := time.NewTicker(samplePeriod)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			c.sample()
		}
	}
}

// sample advances the sliding window by one period and re-decides the
// shed flag from the interval's p99.
func (c *controller) sample() {
	cur := c.m.buckets()
	delta := make([]int64, len(cur))
	var n int64
	for k := range cur {
		delta[k] = cur[k] - c.prev[k]
		n += delta[k]
	}
	c.prev = cur
	switch {
	case n >= minIntervalSamples:
		c.shedding.Store(quantileOfCounts(delta, 0.99) > c.p99Ceiling)
	case n == 0:
		// Nothing finished: either idle (stop shedding) or everything is
		// wedged behind the queue — and the queue-depth check covers that.
		c.shedding.Store(false)
	}
	// 0 < n < minIntervalSamples: too little evidence either way; hold
	// the previous verdict.
}

// admit decides one arriving eval: nil admits, non-nil sheds.  With no
// ceiling configured it is two integer compares.
func (c *controller) admit() *overload {
	if c.queueCeiling > 0 && c.m.Queued.Load() >= int64(c.queueCeiling) {
		return &overload{Signal: "overload",
			Reason: "queue depth over ceiling", RetryAfterMS: c.retryMS}
	}
	if c.p99Ceiling > 0 && c.shedding.Load() {
		return &overload{Signal: "overload",
			Reason: "p99 over ceiling", RetryAfterMS: c.retryMS}
	}
	return nil
}
