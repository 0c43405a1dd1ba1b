package core

import (
	"sync"
	"testing"
	"time"
)

// TestRunnersRetire: runners that find no work within the idle period
// exit, so the number of live runners returns to 0; a pool that keeps
// its runners fails here.
func TestRunnersRetire(t *testing.T) {
	runnerWait.Store(int64(20 * time.Millisecond))
	defer runnerWait.Store(0)

	// Three subshells that wait on each other need three runners.
	var started, wg sync.WaitGroup
	release := make(chan struct{})
	started.Add(3)
	wg.Add(3)
	for k := 0; k < 3; k++ {
		Go(func() {
			started.Done()
			<-release
			wg.Done()
		})
	}
	started.Wait()
	if busy, _ := Runners(); busy < 3 {
		t.Fatalf("%d runners busy with three blocked subshells, want at least 3", busy)
	}
	close(release)
	wg.Wait()

	deadline := time.Now().Add(10 * time.Second)
	for {
		busy, idle := Runners()
		if busy == 0 && idle == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("runners still alive long after the idle period: %d busy, %d idle", busy, idle)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRunnerReused: a subshell started while a runner is parked runs on
// that runner instead of a new one.
func TestRunnerReused(t *testing.T) {
	done := make(chan struct{})
	Go(func() { close(done) })
	<-done
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, idle := Runners(); idle > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no runner parked after its subshell ended")
		}
		time.Sleep(time.Millisecond)
	}
	before := liveRunners.Load()
	done = make(chan struct{})
	Go(func() { close(done) })
	<-done
	if after := liveRunners.Load(); after > before {
		t.Errorf("live runners went %d -> %d: the parked runner was not reused", before, after)
	}
}
