package core

// Background job bookkeeping for %background, wait and apids.  The table
// is shared with forked children so a subshell can wait for jobs started
// by its parent frame, mirroring the process-group behaviour of the C
// implementation.

import (
	"reflect"
	"sort"
)

// StartJob runs fn in a new goroutine and returns the job id (the es
// analogue of the child pid printed by &).
func (i *Interp) StartJob(fn func() List) int {
	i.jobs.mu.Lock()
	i.jobs.next++
	j := &job{id: i.jobs.next, done: make(chan struct{})}
	i.jobs.jobs[j.id] = j
	i.jobs.mu.Unlock()
	go func() {
		j.res = fn()
		close(j.done)
	}()
	return j.id
}

// WaitJob blocks until job id finishes and returns its result; ok is
// false for an unknown id.  The job is reaped under the table lock before
// this waiter blocks, so concurrent WaitJob calls on the same id are
// well-defined: exactly one caller claims the job and gets its result,
// every other caller sees ok=false immediately.
func (i *Interp) WaitJob(id int) (List, bool) {
	i.jobs.mu.Lock()
	j, ok := i.jobs.jobs[id]
	if ok {
		delete(i.jobs.jobs, id)
	}
	i.jobs.mu.Unlock()
	if !ok {
		return nil, false
	}
	<-j.done
	return j.res, true
}

// WaitAny blocks until some job finishes; it returns the job's id and
// result, or ok=false when no jobs exist.  It reaps whichever job
// finishes first — not the lowest id, which would hang `wait` behind a
// long-running early job while later jobs sit finished — breaking ties on
// the lowest id so the result is deterministic when several are already
// done.
func (i *Interp) WaitAny() (int, List, bool) {
	for {
		i.jobs.mu.Lock()
		ids := make([]int, 0, len(i.jobs.jobs))
		for id := range i.jobs.jobs {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		chans := make([]chan struct{}, len(ids))
		for k, id := range ids {
			chans[k] = i.jobs.jobs[id].done
		}
		i.jobs.mu.Unlock()
		if len(ids) == 0 {
			return 0, nil, false
		}
		// Fast path: claim the lowest-id job that has already finished.
		raced := false
		for k, id := range ids {
			select {
			case <-chans[k]:
				if res, ok := i.WaitJob(id); ok {
					return id, res, true
				}
				// A concurrent waiter claimed it between our snapshot and
				// the reap; take a fresh snapshot.
				raced = true
			default:
			}
			if raced {
				break
			}
		}
		if raced {
			continue
		}
		// Nothing finished yet: block until any of the snapshot's jobs
		// closes its done channel, then re-scan from the top (the re-scan
		// applies the lowest-id tie-break and tolerates concurrent
		// waiters reaping the job first).
		cases := make([]reflect.SelectCase, len(chans))
		for k, ch := range chans {
			cases[k] = reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(ch)}
		}
		reflect.Select(cases)
	}
}

// JobIDs returns the live background job ids (unwaited), sorted ascending.
func (i *Interp) JobIDs() []int {
	i.jobs.mu.Lock()
	defer i.jobs.mu.Unlock()
	out := make([]int, 0, len(i.jobs.jobs))
	for id := range i.jobs.jobs {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}
