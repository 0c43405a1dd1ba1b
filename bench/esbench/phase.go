package main

// The closed-loop phase runner.  A worker sends its next request when the
// reply to an earlier one arrives — a window of them for a pipelined rpc
// worker, one otherwise — so a slower system receives less load, which is
// how esd's real callers behave.  An open-loop pacer cannot work here: a
// sleeping one is at the mercy of a ~1 ms timer quantum, 35 times an esd
// round trip, and a spinning one would take one of the two cores.

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"syscall"
	"time"
)

// tally is one worker's outcome in one phase.
type tally struct {
	lat       []float64 // round trip of each correct reply, µs
	attempted int
	failed    int // transport errors, error frames and oracle mismatches
	errs      []string
	end       time.Time // when the last reply arrived
}

// fail counts a failed request, keeping the first few reasons.
func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.errs) < 3 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

// A worker issues one workload's requests closed loop.
type worker interface {
	// run sends requests until the deadline passes, then collects the
	// replies still outstanding.  Every failure is counted in t; after a
	// transport error run returns early.
	run(until time.Time, t *tally)
	close()
}

// A sut is the system under test of one workload.
type sut interface {
	// launch starts the program cold and returns the time until its first
	// request was answered.  The last launch stays up for the load.
	launch() (time.Duration, error)
	// worker k is the k-th concurrent client; window is how many requests
	// it may keep outstanding.  tb is nil when the phase is not traced.
	worker(k, window int, tb *traceBuf) (worker, error)
	// cpu is the program's CPU time so far.
	cpu() (time.Duration, error)
	// peakRSS is the program's peak resident set in MB.
	peakRSS() (float64, error)
	close()
}

// phase is the outcome of one load phase, or of one block of it.
type phase struct {
	dur       time.Duration // from start to the last reply
	tallies   []*tally
	bufs      []*traceBuf // one per worker when traced
	cpu       time.Duration
	clientCPU time.Duration
}

// load is a set of concurrent workers that stay connected while it runs
// one block of requests after another.
type load struct {
	s       sut
	workers []worker
	bufs    []*traceBuf // one per worker when traced
}

// openLoad connects workers concurrent workers to s, each keeping up to
// window requests outstanding.
func openLoad(s sut, name string, workers, window int, epoch time.Time, traced bool) (*load, error) {
	l := &load{s: s}
	for k := 0; k < workers; k++ {
		var tb *traceBuf
		if traced {
			tb = newTraceBuf(name, epoch)
			l.bufs = append(l.bufs, tb)
		}
		w, err := s.worker(k, window, tb)
		if err != nil {
			l.close()
			return nil, err
		}
		l.workers = append(l.workers, w)
	}
	return l, nil
}

func (l *load) close() {
	for _, w := range l.workers {
		w.close()
	}
}

// runPhase drives workers concurrent workers against s for d.
func runPhase(s sut, name string, workers, window int, d time.Duration, epoch time.Time, traced bool) (*phase, error) {
	l, err := openLoad(s, name, workers, window, epoch, traced)
	if err != nil {
		return nil, err
	}
	defer l.close()
	return l.run(d)
}

// run drives every worker of the load for d and collects the block's
// outcome.
func (l *load) run(d time.Duration) (*phase, error) {
	p := &phase{bufs: l.bufs}
	for range l.workers {
		p.tallies = append(p.tallies, &tally{})
	}
	cpu0, err := l.s.cpu()
	if err != nil {
		return nil, err
	}
	client0 := selfCPU()
	start := time.Now()
	until := start.Add(d)
	var wg sync.WaitGroup
	for k, w := range l.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(until, p.tallies[k])
		}()
	}
	wg.Wait()
	end := start
	for _, t := range p.tallies {
		if t.end.After(end) {
			end = t.end
		}
	}
	p.dur = end.Sub(start)
	p.clientCPU = selfCPU() - client0
	cpu1, err := l.s.cpu()
	if err != nil {
		return nil, err
	}
	p.cpu = cpu1 - cpu0
	return p, nil
}

func (p *phase) lat() []float64 {
	var all []float64
	for _, t := range p.tallies {
		all = append(all, t.lat...)
	}
	return all
}

func (p *phase) completed() int {
	n := 0
	for _, t := range p.tallies {
		n += len(t.lat)
	}
	return n
}

func (p *phase) counts() (attempted, failed int, errs []string) {
	for _, t := range p.tallies {
		attempted += t.attempted
		failed += t.failed
		errs = append(errs, t.errs...)
	}
	return attempted, failed, errs
}

// throughput is correct replies per second.
func (p *phase) throughput() float64 {
	if p.dur <= 0 {
		return 0
	}
	return float64(p.completed()) / p.dur.Seconds()
}

// perReq divides a duration over the phase's completed requests, in µs.
func (p *phase) perReq(d time.Duration) float64 {
	n := p.completed()
	if n == 0 {
		return 0
	}
	return us(d) / float64(n)
}

// selfCPU is the benchmark process's own user+system time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return rusageCPU(&ru)
}

func rusageCPU(ru *syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// quantile is the nearest-rank q-quantile; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
