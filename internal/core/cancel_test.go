package core_test

// Tests for cooperative cancellation (SetCancel) and interrupts: a fired
// deadline surfaces as the catchable exception `signal <reason>`, and an
// interrupt as `signal sigint`; delivery is one-shot per interpreter of a
// fork group, an eval that is both interrupted and past its deadline
// raises exactly one exception, and ClearInterrupt at a prompt does not
// disarm a server-side deadline.

import (
	"testing"
	"time"

	"es/internal/core"
	"es/internal/coreutils"
)

func closedChan() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}

func wantSignal(t *testing.T, err error, reason string) {
	t.Helper()
	exc := core.AsException(err)
	if exc == nil {
		t.Fatalf("got %v, want exception signal %s", err, reason)
	}
	if got := exc.Args.Flatten(" "); got != "signal "+reason {
		t.Fatalf("got exception %q, want %q", got, "signal "+reason)
	}
}

func TestCancelRaisesSignalExceptionOnce(t *testing.T) {
	i, ctx, out := harness(t)
	i.SetCancel(closedChan(), "deadline")
	_, err := i.RunString(ctx, "echo never")
	wantSignal(t, err, "deadline")
	if out.String() != "" {
		t.Errorf("cancelled command produced output %q", out.String())
	}
	// Delivery is one-shot, like a signal: the fired token does not abort
	// the next eval on this interpreter.
	res, err := i.RunString(ctx, "result ok")
	if err != nil || res.Flatten(" ") != "ok" {
		t.Fatalf("after one-shot delivery: %v %v", res, err)
	}
	i.ClearCancel()
}

func TestCancelAbortsInfiniteLoop(t *testing.T) {
	i, ctx, _ := harness(t)
	done := make(chan struct{})
	timer := time.AfterFunc(30*time.Millisecond, func() { close(done) })
	defer timer.Stop()
	i.SetCancel(done, "deadline")
	defer i.ClearCancel()
	start := time.Now()
	_, err := i.RunString(ctx, "while {} {}")
	wantSignal(t, err, "deadline")
	if el := time.Since(start); el > 5*time.Second {
		t.Errorf("deadline took %v to fire", el)
	}
}

func TestCancelIsCatchableInScript(t *testing.T) {
	i, ctx, _ := harness(t)
	done := make(chan struct{})
	timer := time.AfterFunc(20*time.Millisecond, func() { close(done) })
	defer timer.Stop()
	i.SetCancel(done, "deadline")
	defer i.ClearCancel()
	// The handler must observe `signal deadline` and — because delivery is
	// one-shot — run its own commands without being re-aborted.
	res, err := i.RunString(ctx, "catch @ e {result caught $e} {while {} {}}")
	if err != nil {
		t.Fatalf("catch did not intercept the deadline: %v", err)
	}
	if got := res.Flatten(" "); got != "caught signal deadline" {
		t.Fatalf("handler result = %q, want %q", got, "caught signal deadline")
	}
}

func TestCancelAndInterruptRaiseExactlyOneException(t *testing.T) {
	i, ctx, _ := harness(t)
	i.SetCancel(closedChan(), "deadline")
	i.Interrupt()
	// Both pending: the fired deadline wins and consumes the interrupt —
	// the request is aborting for one cause, one exception.
	_, err := i.RunString(ctx, "echo x")
	wantSignal(t, err, "deadline")
	// Neither a second deadline nor a stale sigint hits the next eval.
	res, err := i.RunString(ctx, "result ok")
	if err != nil || res.Flatten(" ") != "ok" {
		t.Fatalf("second exception leaked into the next eval: %v %v", res, err)
	}
	i.ClearCancel()
}

func TestClearInterruptKeepsCancelArmed(t *testing.T) {
	i, ctx, _ := harness(t)
	done := make(chan struct{})
	i.SetCancel(done, "deadline")
	defer i.ClearCancel()
	i.Interrupt()
	i.ClearInterrupt() // the prompt idiom (%parse) — must not disarm the deadline
	close(done)
	_, err := i.RunString(ctx, "echo x")
	wantSignal(t, err, "deadline")
}

func TestSpawnDetachesSignalStateAndJobs(t *testing.T) {
	i, ctx, _ := harness(t)
	child := i.Spawn()
	cctx := ctx.NonTail()

	// An interrupt aimed at the parent must not abort the spawned child.
	i.Interrupt()
	if res, err := child.RunString(cctx, "result ok"); err != nil || res.Flatten(" ") != "ok" {
		t.Fatalf("parent interrupt leaked into spawned child: %v %v", res, err)
	}
	_, err := i.RunString(ctx, "echo x")
	wantSignal(t, err, "sigint")

	// A deadline armed on the child must not abort the parent.
	child.SetCancel(closedChan(), "deadline")
	if res, err := i.RunString(ctx, "result ok"); err != nil || res.Flatten(" ") != "ok" {
		t.Fatalf("child deadline leaked into parent: %v %v", res, err)
	}
	_, err = child.RunString(cctx, "echo x")
	wantSignal(t, err, "deadline")

	// Job tables are separate: the parent cannot reap the child's jobs.
	child.StartJob(func() core.List { return core.StrList("x") })
	if _, _, ok := i.WaitAny(); ok {
		t.Error("parent reaped a job started by a spawned child")
	}
	if id, res, ok := child.WaitAny(); !ok || res.Flatten(" ") != "x" {
		t.Errorf("child WaitAny = %d %v %v", id, res, ok)
	}
}

// deadlineWithin runs src on a fresh interpreter whose deadline fires
// after 50ms, waits for the jobs it started, and returns what it printed
// and its error; it fails the test if that takes more than a second past
// the deadline.
func deadlineWithin(t *testing.T, src string) (*core.Buffer, error) {
	t.Helper()
	return abortWithin(t, src, func(i *core.Interp) func() {
		done := make(chan struct{})
		i.SetCancel(done, "deadline")
		return func() { close(done) }
	})
}

// interruptWithin is deadlineWithin with one interrupt for the deadline.
func interruptWithin(t *testing.T, src string) (*core.Buffer, error) {
	t.Helper()
	return abortWithin(t, src, func(i *core.Interp) func() { return i.Interrupt })
}

// abortWithin runs src on a fresh interpreter, calls the abort that arm
// returns after 50ms, waits for the jobs src started, and returns what
// it printed and its error; it fails the test if that takes more than a
// second past the abort.
func abortWithin(t *testing.T, src string, arm func(i *core.Interp) (abort func())) (*core.Buffer, error) {
	t.Helper()
	i, ctx, out := harness(t)
	coreutils.Register(i)
	timer := time.AfterFunc(50*time.Millisecond, arm(i))
	defer timer.Stop()
	defer i.ClearCancel()
	errc := make(chan error, 1)
	go func() {
		_, err := i.RunString(ctx, src)
		// The jobs src started take their own delivery: wait for them
		// while a deadline is still armed.
		for {
			if _, _, ok := i.WaitAny(); !ok {
				break
			}
		}
		errc <- err
	}()
	select {
	case err := <-errc:
		return out, err
	case <-time.After(time.Second + 50*time.Millisecond):
		t.Fatalf("%s still running a second after it was aborted", src)
		return nil, nil
	}
}

// TestCancelEndsEveryElement: each interpreter of a fork group takes its
// own delivery of a deadline, so it ends pipelines whose elements loop
// and jobs that loop beside their parent, and the pipeline itself ends
// with the signal even when no command follows it.
func TestCancelEndsEveryElement(t *testing.T) {
	for _, src := range []string{
		"{while {} {}} | {while {} {}}",
		"{while {} {}} | cat",
		"{while {} {}} & while {} {}",
		"fork {while {} {}}",
	} {
		_, err := deadlineWithin(t, src)
		wantSignal(t, err, "deadline")
	}
}

// TestInterruptEndsEveryElement: one interrupt reaches every
// interpreter of a fork group, each of which takes its own delivery, so
// it ends pipelines whose elements loop, jobs that loop beside their
// parent, and the subshells and jobs a command waits for, and the
// command that waited raises it too.
func TestInterruptEndsEveryElement(t *testing.T) {
	for _, src := range []string{
		"{while {} {}} | {while {} {}}",
		"{while {} {}} | cat",
		"{while {} {}} & while {} {}",
		"fork {while {} {}}",
		"x = `{while {} {}}",
		"{while {} {}} & wait",
	} {
		_, err := interruptWithin(t, src)
		wantSignal(t, err, "sigint")
	}
}

// TestInterruptReachesBackgroundJob: a job started with no deadline
// armed takes an interrupt like every other subshell of the group, and
// does not take the shell's delivery from it.
func TestInterruptReachesBackgroundJob(t *testing.T) {
	i, ctx, _ := harness(t)
	if _, err := i.RunString(ctx, "{while {} {}} &"); err != nil {
		t.Fatal(err)
	}
	i.Interrupt()
	ended := make(chan struct{})
	go func() {
		i.WaitAny()
		close(ended)
	}()
	select {
	case <-ended:
	case <-time.After(time.Second):
		t.Fatal("job still running a second after the interrupt")
	}
	_, err := i.RunString(ctx, "result ok")
	wantSignal(t, err, "sigint")
}

// TestCancelHandlerPipelineRuns: the subshells a handler starts after
// catching the deadline inherit its delivery and are not aborted again.
func TestCancelHandlerPipelineRuns(t *testing.T) {
	for _, src := range []string{
		"catch @ e {echo caught $e | cat} {while {} {}}",
		"catch @ e {echo caught $e} {x = `{while {} {}}}",
	} {
		out, err := deadlineWithin(t, src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if out.String() != "caught signal deadline\n" {
			t.Errorf("%s printed %q, want %q", src, out.String(), "caught signal deadline\n")
		}
	}
}

// TestCancelKeptByBackgroundJob: a job started under a token keeps it.
// ClearCancel reports the job still running, a token armed afterwards
// does not reach the job, and closing the first token ends it.
func TestCancelKeptByBackgroundJob(t *testing.T) {
	i, ctx, out := harness(t)
	done := make(chan struct{})
	i.SetCancel(done, "deadline")
	if _, err := i.RunString(ctx, "{while {} {}} &"); err != nil {
		t.Fatal(err)
	}
	if !i.ClearCancel() {
		t.Fatal("ClearCancel reports no job running under the token")
	}
	i.SetCancel(make(chan struct{}), "next")
	close(done)
	ended := make(chan struct{})
	go func() {
		i.WaitAny()
		close(ended)
	}()
	select {
	case <-ended:
	case <-time.After(time.Second):
		t.Fatal("job still running a second after its token fired")
	}
	if want := "es: uncaught exception in background job: signal deadline\n"; out.String() != want {
		t.Errorf("job printed %q, want %q", out.String(), want)
	}
	if i.ClearCancel() {
		t.Error("ClearCancel reports a job running under a token armed after it started")
	}
}
