package core

import (
	"strings"
	"sync/atomic"
)

// Interrupt requests that every interpreter of this one's fork group —
// the shell, its pipeline elements, subshells and jobs — raise a signal
// exception at its next command boundary, once each, as a SIGINT reaches
// each process of a Unix process group.  "Exceptions ... provide a way
// for user code to interact with UNIX signals."  Interrupting one
// embedded Interp does not abort commands running in an unrelated one.
func (i *Interp) Interrupt() { i.sig.intr.Add(1) }

// ClearInterrupt drops the interrupts sent to the group that this
// interpreter has not raised.  The REPL calls this when it returns to
// the prompt (%parse), so a SIGINT delivered in the dead time after one
// command finishes does not stay pending and abort the next, unrelated
// command.  It touches only the interrupt line: a server-side deadline
// armed with SetCancel stays armed — a user pressing ^C at an embedded
// prompt must not grant a request more time.
func (i *Interp) ClearInterrupt() { i.intrSeen = i.sig.intr.Load() }

// signals is what a fork group shares for asynchronous aborts: the count
// of interrupts sent to the group, and the cooperative-cancellation slot
// a serving layer arms per request (SetCancel), which every command
// boundary in the group polls.
type signals struct {
	intr   atomic.Uint32
	cancel atomic.Pointer[cancelState]
}

// cancelState is one armed cooperative cancellation: once done is closed,
// the next command boundary of every interpreter in the fork group
// raises `signal <reason>`.  Delivery is one-shot per interpreter, like
// a Unix signal to each process of a group: an interpreter records the
// token it raised (Interp.raised), so a handler that catches the
// exception then runs normally instead of being re-aborted at its own
// first command, and so do the subshells it starts, which inherit the
// record.
type cancelState struct {
	done   <-chan struct{}
	reason string
	// jobs counts the background jobs still running under this token;
	// see StartJob.
	jobs atomic.Int32
}

// SetCancel arms cooperative cancellation for this interpreter and its
// forks: when done is closed, evaluation raises the catchable exception
// `signal <reason>` at the next command boundary.  This is how a serving
// layer imposes a per-request deadline on an eval without killing its
// goroutine — the timeout unwinds through the script like any signal
// (`throw signal deadline`), scripts may catch it, and the interpreter
// stays usable for the next request.  Arming replaces any previous token.
func (i *Interp) SetCancel(done <-chan struct{}, reason string) {
	i.sig.cancel.Store(&cancelState{done: done, reason: reason})
}

// ClearCancel disarms SetCancel.  It does not drop a pending interrupt;
// the interrupt line and the cancel slot are independent (ClearInterrupt
// likewise leaves the cancel token armed).  It reports whether a
// background job started under the token is still running: the job
// keeps the token (see StartJob), so its done channel must still close.
func (i *Interp) ClearCancel() (jobsRunning bool) {
	c := i.sig.cancel.Swap(nil)
	return c != nil && c.jobs.Load() > 0
}

// CheckCancel is the one poll for asynchronous aborts: it raises `signal
// <reason>` once the token SetCancel armed has fired, and `signal sigint`
// once the group has been interrupted, each once per interpreter.  It
// runs at every command boundary and closure application (so that
// `while {} {}` observes aborts), and a primitive that waits for
// subshells or jobs calls it when they end, so an abort that ended them
// ends the command that waited, even when no boundary follows.  The
// common path, with no token armed and no interrupt, costs two atomic
// loads, no read-modify-write, and inlines.
func (i *Interp) CheckCancel() error {
	if s := i.sig; s.cancel.Load() != nil || s.intr.Load() != i.intrSeen {
		return i.abort()
	}
	return nil
}

// abort is CheckCancel's slow path.  A fired token outranks a pending
// interrupt, and consumes it: an eval that is both interrupted and past
// its deadline raises exactly one exception.
func (i *Interp) abort() error {
	if c := i.sig.cancel.Load(); c != nil && c != i.raised {
		select {
		case <-c.done:
			i.raised = c
			i.intrSeen = i.sig.intr.Load()
			return Throw(StrList("signal", c.reason))
		default:
		}
	}
	if n := i.sig.intr.Load(); n != i.intrSeen {
		i.intrSeen = n
		return Throw(StrList("signal", "sigint"))
	}
	return nil
}

// applyTerm dispatches a command head: closures are applied, primitives
// invoked, and plain strings resolved through fn- lookup, then the builtin
// table, then %pathsearch and external execution.
func (i *Interp) applyTerm(ctx *Ctx, env *Binding, head Term, args List) (List, error) {
	switch {
	case head.Closure != nil:
		if ctx.Tail && !i.NoTailCalls {
			return nil, &tailCall{cl: head.Closure, args: args}
		}
		return i.Apply(ctx, head.Closure, args)
	case head.Prim != "":
		fn := i.prims[head.Prim]
		if fn == nil {
			return nil, ErrorExc("$&" + head.Prim + ": unknown primitive")
		}
		return fn(i, ctx, args)
	}
	name := head.Str
	// "when a name like apply is seen by es, it first looks in its
	// symbol table for a variable by the name fn-apply."
	if fnval := lookupVar(i, env, "fn-"+name); len(fnval) > 0 {
		newArgs := args
		if len(fnval) > 1 {
			newArgs = append(append(List{}, fnval[1:]...), args...)
		}
		h := fnval[0]
		if h.Closure != nil || h.Prim != "" {
			return i.applyTerm(ctx, env, h, newArgs)
		}
		// A string-valued fn- definition (e.g. the path cache's
		// fn-$prog = /full/path) names a file to run directly.
		return i.runExternal(ctx, env, h.Str, newArgs)
	}
	if fn := i.builtins[name]; fn != nil {
		return i.runBuiltin(ctx, fn, name, args)
	}
	return i.runExternal(ctx, env, name, args)
}

// ApplyTerm applies a head term — closure, primitive reference or command
// name — to arguments, exactly as command dispatch does: a closure
// application is a function-call boundary that intercepts the return
// exception.
func (i *Interp) ApplyTerm(ctx *Ctx, head Term, args List) (List, error) {
	return i.applyTerm(ctx, nil, head, args)
}

// Call applies a head term WITHOUT establishing a return boundary.  This
// is how primitives run their thunk arguments: `return` inside an if
// branch, a catch handler, or a redirection body must unwind past the
// primitive to the enclosing function invocation, exactly as the C
// implementation's internal eval() does.
func (i *Interp) Call(ctx *Ctx, head Term, args List) (List, error) {
	if head.Closure != nil {
		if ctx.Tail && !i.NoTailCalls {
			return nil, &tailCall{cl: head.Closure, args: args}
		}
		return i.applyClosure(ctx, head.Closure, args, false)
	}
	return i.applyTerm(ctx, nil, head, args)
}

// Apply applies a closure to arguments as a function call: it trampolines
// tail calls so that properly tail-recursive functions run in constant Go
// stack — the paper's stated future work ("tail calls consume stack
// space, something they could be optimized not to do") — and it catches
// the return exception.
func (i *Interp) Apply(ctx *Ctx, cl *Closure, args List) (List, error) {
	return i.applyClosure(ctx, cl, args, true)
}

func (i *Interp) applyClosure(ctx *Ctx, cl *Closure, args List, boundary bool) (List, error) {
	i.depth++
	defer func() { i.depth-- }()
	if i.depth > i.maxDepth {
		return nil, ErrorExc("too much recursion")
	}
	body := ctx
	if !i.NoTailCalls {
		body = ctx.InTail()
	}
	for {
		if err := i.CheckCancel(); err != nil {
			return nil, err
		}
		env := bindParams(i, cl, args)
		res, err := i.execUnit(body, cl.Unit, env)
		if err == nil {
			return res, nil
		}
		if tc, ok := err.(*tailCall); ok {
			cl, args = tc.cl, tc.args
			continue
		}
		if boundary {
			if ret, ok := ReturnValue(err); ok {
				return ret, nil
			}
		}
		return nil, err
	}
}

// bindParams binds arguments to parameters: "es assigns arguments to
// parameters one-to-one, and any leftovers are assigned to the last
// parameter"; missing parameters are left null.  A lambda without a
// declared parameter list binds everything to *.
func bindParams(i *Interp, cl *Closure, args List) *Binding {
	// $* always holds the full argument list, named parameters or not
	// (the paper's watch settor is "@ { ... return $* }").
	env := &Binding{Name: "*", Value: args, Next: cl.Env}
	u := cl.Unit
	if !u.Params.Set() {
		i.Alloc.binding(1)
		return env
	}
	n := int(u.Params.Len)
	i.Alloc.binding(n + 1)
	for k := 0; k < n; k++ {
		var v List
		switch {
		case k == n-1 && len(args) > k:
			v = args[k:]
		case k < len(args):
			v = args[k : k+1 : k+1]
		}
		env = &Binding{Name: u.Prog.Name(u.Params.Off + int32(k)), Value: v, Next: env}
	}
	return env
}

// CallHook invokes a %-hook by name: the fn-%name variable if defined
// (and thus spoofable), else the underlying primitive.
func (i *Interp) CallHook(ctx *Ctx, hook string, args List) (List, error) {
	if fnval := i.Var("fn-" + hook); len(fnval) > 0 {
		h := fnval[0]
		rest := append(append(List{}, fnval[1:]...), args...)
		return i.applyTerm(ctx, nil, h, rest)
	}
	prim := strings.TrimPrefix(hook, "%")
	if fn := i.prims[prim]; fn != nil {
		return fn(i, ctx, args)
	}
	return nil, ErrorExc(hook + ": hook not defined")
}
