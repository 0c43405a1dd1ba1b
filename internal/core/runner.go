package core

// Subshell runners.  C es forks a process for every pipeline element and
// background job; here each runs on a goroutine of its own.  A new
// goroutine starts on a small stack and grows it by copying, frame by
// frame, as es code descends through applyTerm, execSeq and a
// builtin's line reader.  A runner does not exit when its subshell ends:
// it parks, and the next subshell starts on the stack it has already
// grown.  esd runs each session on a runner too, for the same reason: a
// session's first eval would otherwise regrow the stack every earlier
// session grew.  A session's runner counts as busy while it is open.
//
// The runners are not bounded, on purpose.  The elements of one pipeline
// wait on each other (cat waits for its writer, `{while {} {echo y}} |
// sed 1q` runs until its reader goes, and an element may itself run a
// pipeline), so a fixed set of workers could deadlock.  The busy runners
// are the goroutines a plain go statement would start, one per running
// element, job or session; the pool adds only idle ones, and each exits
// after runnerIdle, so an idle process holds none.  A parked runner
// holds no reference to its last subshell: its fn is dropped, and the
// collector does not scan a stack's dead frames.

import (
	"sync/atomic"
	"time"
)

// runnerIdle is how long a runner waits for its next subshell before it
// exits.
const runnerIdle = 2 * time.Second

var (
	// work hands a subshell to a parked runner.  It is unbuffered, so a
	// send succeeds only when a runner is waiting: a subshell never waits
	// behind a busy runner.
	work = make(chan func())

	// runnerWait overrides runnerIdle when set; only tests set it.
	runnerWait atomic.Int64

	liveRunners, idleRunners atomic.Int64
)

// Go runs fn on a goroutine of its own, as a go statement does, for a
// subshell (a pipeline element or a background job) or an esd session.
// It hands fn to a parked runner when there is one, and starts a runner
// otherwise.
func Go(fn func()) {
	select {
	case work <- fn:
	default:
		liveRunners.Add(1)
		go runner(fn)
	}
}

// Runners reports how many runners are running a subshell or a session
// and how many are parked, waiting for one.
func Runners() (busy, idle int) {
	n, i := liveRunners.Load(), idleRunners.Load()
	return int(n - i), int(i)
}

// runner runs fn, then each subshell Go hands it, until it has waited
// runnerIdle for one.
func runner(fn func()) {
	defer liveRunners.Add(-1)
	t := time.NewTimer(runnerIdle)
	for {
		fn()
		fn = nil
		wait := time.Duration(runnerWait.Load())
		if wait == 0 {
			wait = runnerIdle
		}
		t.Reset(wait)
		idleRunners.Add(1)
		select {
		case fn = <-work:
			idleRunners.Add(-1)
		case <-t.C:
			idleRunners.Add(-1)
			return
		}
	}
}
