package core

// Background job bookkeeping for %background, wait and apids.  The table
// is shared with forked children so a subshell can wait for jobs started
// by its parent frame, mirroring the process-group behaviour of the C
// implementation.

import (
	"sort"
	"sync"
)

// StartJob runs fn, which evaluates in i, on a subshell runner (see Go)
// as a background job of i's fork group, and returns the job id (the es
// analogue of the child pid printed by &).  i is the job's own subshell.
//
// A job started with no cancel token armed shares the group's signals,
// and takes each interrupt once, as every subshell does.  A job started
// under an armed token keeps that token: i gets signals of its own that
// hold it, which neither ClearCancel nor the next SetCancel on the group
// touches, so the deadline of the request that started the job still
// ends it after the request has returned.
func (i *Interp) StartJob(fn func() List) int {
	t := i.jobs
	t.mu.Lock()
	if t.jobs == nil {
		t.jobs = make(map[int]*job)
		t.finished = sync.NewCond(&t.mu)
	}
	t.next++
	j := &job{id: t.next, done: make(chan struct{})}
	t.jobs[j.id] = j
	t.mu.Unlock()
	c := i.sig.cancel.Load()
	if c != nil {
		c.jobs.Add(1)
		i.sig, i.intrSeen = new(signals), 0
		i.sig.cancel.Store(c)
	}
	Go(func() {
		j.res = fn()
		if c != nil {
			c.jobs.Add(-1)
		}
		t.mu.Lock()
		close(j.done)
		t.finished.Broadcast()
		t.mu.Unlock()
	})
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
// done.  It looks under the table lock, and waits for the next job to
// finish when none has.
func (i *Interp) WaitAny() (int, List, bool) {
	t := i.jobs
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.jobs) > 0 {
		first := 0
		for id, j := range t.jobs {
			select {
			case <-j.done:
				if first == 0 || id < first {
					first = id
				}
			default:
			}
		}
		if first != 0 {
			j := t.jobs[first]
			delete(t.jobs, first)
			return first, j.res, true
		}
		t.finished.Wait()
	}
	return 0, nil, false
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
