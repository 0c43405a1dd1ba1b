package main

// The host yardstick.  The benchmark runs on a machine it shares with
// other tenants, whose load slows memory access and process start-up, and
// with them every workload, by up to half, in bursts of a second or so
// whose share of the time drifts from minute to minute; arithmetic does
// not slow down.  A yardstick times fixed work that depends only on the
// host between the benchmark's blocks, and each time measured in a block
// is divided by how much slower than nominal the host was around it.

import (
	"fmt"
	"math"
	"os/exec"
	"time"
)

// The yardstick's work: walkReads increments of random words of a
// walkWords-word array, and one start of true(1) to its exit.  Their
// nominal times are what they take on a quiet host of the machine
// bench/README.md's baseline comes from; they only set the scale at which
// the slowness is 1.
const (
	walkWords     = 4 << 20 // 32 MB, several times any last-level cache
	walkReads     = 100_000
	walkNominal   = 1000 * time.Microsecond
	startNominal  = 370 * time.Microsecond
	yardstickRuns = 3 // each part is the median of this many runs
)

type yardstick struct {
	words    []uint64
	truePath string    // path of true(1)
	readings []float64 // every slowness read, for the report
}

func newYardstick() (*yardstick, error) {
	path, err := exec.LookPath("true")
	if err != nil {
		return nil, fmt.Errorf("host yardstick: %w", err)
	}
	y := &yardstick{words: make([]uint64, walkWords), truePath: path}
	for k := range y.words {
		y.words[k] = uint64(k) // fault every page in before the first walk
	}
	return y, nil
}

// read returns the host's slowness: how many times slower than nominal it
// is now, the geometric mean of the walk's and the start's time over
// their nominal times.
func (y *yardstick) read() (float64, error) {
	walks := make([]float64, yardstickRuns)
	starts := make([]float64, yardstickRuns)
	for k := range walks {
		walks[k] = float64(y.walk())
		t := time.Now()
		if err := exec.Command(y.truePath).Run(); err != nil {
			return 0, fmt.Errorf("host yardstick: %w", err)
		}
		starts[k] = float64(time.Since(t))
	}
	walk := quantile(walks, 0.5) / float64(walkNominal)
	start := quantile(starts, 0.5) / float64(startNominal)
	slow := math.Sqrt(walk * start)
	y.readings = append(y.readings, slow)
	return slow, nil
}

// walk times walkReads increments of words drawn at random.
func (y *yardstick) walk() time.Duration {
	x := uint64(1)
	t := time.Now()
	for k := 0; k < walkReads; k++ {
		x = x*6364136223846793005 + 1442695040888963407
		y.words[(x>>40)%walkWords]++
	}
	return time.Since(t)
}
