package prim

import (
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"es/internal/core"
)

func registerPlumbing(i *core.Interp) {
	i.RegisterPrim("pipe", primPipe)
	i.RegisterPrim("create", primCreate)
	i.RegisterPrim("append", primAppend)
	i.RegisterPrim("open", primOpen)
	i.RegisterPrim("dup", primDup)
	i.RegisterPrim("close", primClose)
	i.RegisterPrim("background", primBackground)
	i.RegisterPrim("fork", primFork)
	i.RegisterPrim("backquote", primBackquote)
	i.RegisterPrim("wait", primWait)
	i.RegisterPrim("apids", primApids)
	i.RegisterPrim("read", primRead)
	i.RegisterPrim("here", primHere)
}

// primHere is the herestring service: `cmd <<< text` becomes
// %here 0 text {cmd}, feeding text (with a trailing newline) as input.
func primHere(i *core.Interp, ctx *core.Ctx, args core.List) (core.List, error) {
	if len(args) < 3 {
		return nil, core.ErrorExc("%here: usage: %here fd text cmd")
	}
	fd, err := strconv.Atoi(args[0].String())
	if err != nil {
		return nil, core.ErrorExc("%here: bad file descriptor")
	}
	text := args[1].String()
	if !strings.HasSuffix(text, "\n") {
		text += "\n"
	}
	r := strings.NewReader(text)
	cctx := ctx.NonTail().WithIO(ctx.IO.WithFD(fd, r))
	return run(i, cctx, args[2], args[3:])
}

// primPipe runs a flattened pipeline: cmd (outfd infd cmd)...  Every
// element runs in its own forked interpreter (the in-process analogue of
// the per-element fork in the C implementation) on a subshell runner
// (core.Go), connected with in-process pipes (core.NewPipe) that become
// real pipes only when an external process needs a descriptor, so
// externals and shell functions mix freely and a pipeline of builtins
// holds no descriptor.  The result is the final element's result.  All
// elements are forked before any starts: Fork may fold the parent's
// variables, which must not race with a running sibling's fork.
func primPipe(i *core.Interp, ctx *core.Ctx, args core.List) (core.List, error) {
	if len(args) == 0 {
		return core.True(), nil
	}
	type elem struct {
		cmd   core.Term
		outFd int              // descriptor this element writes the next pipe on
		inFd  int              // descriptor this element reads its pipe on
		r     *core.PipeReader // the pipe this element reads; nil for the first
		w     *core.PipeWriter // the pipe this element writes; nil for the last
		child *core.Interp
		res   core.List
		err   error
	}
	elems := make([]elem, 1, 1+len(args)/3)
	elems[0].cmd = args[0]
	for k := 1; k < len(args); k += 3 {
		if k+2 > len(args)-1 {
			return nil, core.ErrorExc("%pipe: malformed pipeline")
		}
		outFd, err1 := strconv.Atoi(args[k].String())
		inFd, err2 := strconv.Atoi(args[k+1].String())
		if err1 != nil || err2 != nil {
			return nil, core.ErrorExc("%pipe: bad file descriptor")
		}
		elems[len(elems)-1].outFd = outFd
		elems = append(elems, elem{cmd: args[k+2], inFd: inFd})
	}
	if len(elems) == 1 {
		return run(i, ctx.NonTail(), elems[0].cmd, nil)
	}

	// Wire n-1 pipes between n elements, and fork every element.
	for k := 1; k < len(elems); k++ {
		elems[k].r, elems[k-1].w = core.NewPipe()
	}
	for k := range elems {
		elems[k].child, elems[k].cmd, _ = i.ForkCmd(elems[k].cmd, nil)
	}
	var wg sync.WaitGroup
	wg.Add(len(elems))
	for k := range elems {
		e := &elems[k]
		core.Go(func() {
			// One copy of the caller's table per element, bound to its
			// input, then its output.
			var rs [2]core.Redir
			fds := rs[:0]
			if e.r != nil {
				fds = append(fds, core.Redir{Fd: e.inFd, Stream: e.r})
			}
			if e.w != nil {
				fds = append(fds, core.Redir{Fd: e.outFd, Stream: e.w})
			}
			e.res, e.err = e.child.ApplyTerm(ctx.IO.WithFDs(fds...).Ctx(), e.cmd, nil)
			// Close this element's pipe ends so neighbours see EOF.
			if e.r != nil {
				e.r.Close()
			}
			if e.w != nil {
				e.w.Close()
			}
			wg.Done()
		})
	}
	wg.Wait()

	// Exceptions from pipeline elements cannot propagate out of their
	// subshell: report them and fail, as the paper laments.  An exit
	// becomes the element's status, silently.
	for k := range elems {
		if err := elems[k].err; err != nil {
			elems[k].res = subshellResult(ctx, err, "in pipeline")
		}
	}
	// A deadline that ended the elements ends the pipeline too.
	if err := i.CheckCancel(); err != nil {
		return nil, err
	}
	return elems[len(elems)-1].res, nil
}

func openRedir(i *core.Interp, ctx *core.Ctx, args core.List, flag int, what string) (core.List, error) {
	if len(args) < 3 {
		return nil, core.ErrorExc(what + ": usage: " + what + " fd file cmd")
	}
	if len(args) > 3 {
		return nil, core.ErrorExc(what + ": too many words in redirection (a single name is required)")
	}
	fd, err := strconv.Atoi(args[0].String())
	if err != nil {
		return nil, core.ErrorExc(what + ": bad file descriptor " + args[0].String())
	}
	path := args[1].String()
	if !filepath.IsAbs(path) {
		path = filepath.Join(i.Dir(), path)
	}
	f, ferr := os.OpenFile(path, flag, 0o666)
	if ferr != nil {
		return nil, core.ErrorExc(ferr.Error())
	}
	defer f.Close()
	cctx := ctx.NonTail().WithIO(ctx.IO.WithFD(fd, f))
	return run(i, cctx, args[2], args[3:])
}

// primCreate is the service behind `cmd > file`:
// %create fd file {cmd}.
func primCreate(i *core.Interp, ctx *core.Ctx, args core.List) (core.List, error) {
	return openRedir(i, ctx, args, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, "%create")
}

// primAppend implements `cmd >> file`: %append opens for appending,
// creating the file if needed.
func primAppend(i *core.Interp, ctx *core.Ctx, args core.List) (core.List, error) {
	return openRedir(i, ctx, args, os.O_WRONLY|os.O_CREATE|os.O_APPEND, "%append")
}

// primOpen implements `cmd < file`: %open opens the file read-only on
// the requested descriptor.
func primOpen(i *core.Interp, ctx *core.Ctx, args core.List) (core.List, error) {
	return openRedir(i, ctx, args, os.O_RDONLY, "%open")
}

// primDup implements `cmd >[a=b]`: %dup a b {cmd}.
func primDup(i *core.Interp, ctx *core.Ctx, args core.List) (core.List, error) {
	if len(args) < 3 {
		return nil, core.ErrorExc("%dup: usage: %dup newfd oldfd cmd")
	}
	newFd, err1 := strconv.Atoi(args[0].String())
	oldFd, err2 := strconv.Atoi(args[1].String())
	if err1 != nil || err2 != nil {
		return nil, core.ErrorExc("%dup: bad file descriptor")
	}
	cctx := ctx.NonTail().WithIO(ctx.IO.WithFD(newFd, ctx.IO.Get(oldFd)))
	return run(i, cctx, args[2], args[3:])
}

// primClose implements `cmd >[fd=]`: run cmd with fd closed.
func primClose(i *core.Interp, ctx *core.Ctx, args core.List) (core.List, error) {
	if len(args) < 2 {
		return nil, core.ErrorExc("%close: usage: %close fd cmd")
	}
	fd, err := strconv.Atoi(args[0].String())
	if err != nil {
		return nil, core.ErrorExc("%close: bad file descriptor")
	}
	cctx := ctx.NonTail().WithIO(ctx.IO.WithFD(fd, nil))
	return run(i, cctx, args[1], args[2:])
}

// primBackground starts a job in a forked interpreter; $apid receives the
// job id, as the C implementation stores the child pid.
func primBackground(i *core.Interp, ctx *core.Ctx, args core.List) (core.List, error) {
	if len(args) == 0 {
		return core.True(), nil
	}
	child, cmd, rest := i.ForkCmd(args[0], args[1:])
	cctx := ctx.NonTail()
	stderr := ctx.Stderr()
	id := child.StartJob(func() core.List {
		res, err := child.ApplyTerm(cctx, cmd, rest)
		if err != nil {
			return subshellResultTo(stderr, err, "in background job")
		}
		return res
	})
	i.SetVarRaw("apid", core.StrList(strconv.Itoa(id)))
	return core.True(), nil
}

// primFork runs its arguments in a subshell: state changes are isolated
// and exceptions cannot propagate — "a message is printed on exit from
// the subshell and a false exit status is returned".  A bare `fork` (the
// paper's "run the rest in a subshell" idiom) cannot be expressed
// in-process and is a no-op here; see DESIGN.md.
func primFork(i *core.Interp, ctx *core.Ctx, args core.List) (core.List, error) {
	if len(args) == 0 {
		return core.True(), nil
	}
	child, cmd, rest := i.ForkCmd(args[0], args[1:])
	res, err := child.ApplyTerm(ctx.NonTail(), cmd, rest)
	if err != nil {
		res = subshellResult(ctx, err, "in subshell")
	}
	if err := i.CheckCancel(); err != nil {
		return nil, err
	}
	return res, nil
}

// subshellResult converts a subshell's terminal error into its status: an
// exit exception becomes the status it carries, and signal sigpipe the
// status sigpipe, as for an external killed by SIGPIPE; anything else is
// the paper's "a message is printed on exit from the subshell and a false
// exit status is returned".
func subshellResult(ctx *core.Ctx, err error, where string) core.List {
	return subshellResultTo(ctx.Stderr(), err, where)
}

func subshellResultTo(stderr io.Writer, err error, where string) core.List {
	if e := core.AsException(err); e != nil {
		switch {
		case e.Name() == "exit":
			return core.StrList(strconv.Itoa(ExitStatus(e.Args[1:])))
		case e.Name() == "signal" && len(e.Args) > 1 && e.Args[1].String() == "sigpipe":
			return core.StrList("sigpipe")
		}
	}
	io.WriteString(stderr, "es: uncaught exception "+where+": "+err.Error()+"\n")
	return core.False()
}

// primBackquote runs a fragment in a subshell with its output captured,
// then splits it on $ifs — the service behind `{cmd}.  In-process writers
// append to the capture directly; an external gets a pipe from
// IOTable.File, whose copier appends what it writes.
func primBackquote(i *core.Interp, ctx *core.Ctx, args core.List) (core.List, error) {
	if len(args) == 0 {
		return nil, core.ErrorExc("%backquote: missing command")
	}
	ifs := " \t\n"
	if v := i.Var("ifs"); v != nil {
		ifs = v.Flatten("")
	}
	child, cmd, rest := i.ForkCmd(args[0], args[1:])
	var buf core.Buffer
	cctx := ctx.NonTail().WithIO(ctx.IO.WithFD(1, &buf))
	_, err := child.ApplyTerm(cctx, cmd, rest)
	buf.Close()
	if err := i.CheckCancel(); err != nil {
		return nil, err
	}
	if err != nil {
		if core.AsException(err) != nil {
			return nil, err
		}
		return nil, core.ErrorExc(err.Error())
	}
	return core.StrList(splitIfs(buf.String(), ifs)...), nil
}

// splitIfs splits on any ifs character, dropping empty fields, as shells
// do for command substitution.
func splitIfs(s, ifs string) []string {
	if ifs == "" {
		if s == "" {
			return nil
		}
		return []string{strings.TrimSuffix(s, "\n")}
	}
	return strings.FieldsFunc(s, func(r rune) bool {
		return strings.ContainsRune(ifs, r)
	})
}

// primWait waits for a background job: `wait [id]`.  An interrupt or a
// deadline that ended the job ends the wait too.
func primWait(i *core.Interp, ctx *core.Ctx, args core.List) (core.List, error) {
	if len(args) == 0 {
		_, res, ok := i.WaitAny()
		if !ok {
			return nil, core.ErrorExc("wait: no processes to wait for")
		}
		return res, i.CheckCancel()
	}
	id, err := strconv.Atoi(args[0].String())
	if err != nil {
		return nil, core.ErrorExc("wait: bad process id " + args[0].String())
	}
	res, ok := i.WaitJob(id)
	if !ok {
		return nil, core.ErrorExc("wait: unknown process " + args[0].String())
	}
	return res, i.CheckCancel()
}

// primApids lists the process ids of the outstanding background jobs,
// the value of the $apids variable.
func primApids(i *core.Interp, ctx *core.Ctx, args core.List) (core.List, error) {
	ids := i.JobIDs()
	out := make([]string, len(ids))
	for k, id := range ids {
		out[k] = strconv.Itoa(id)
	}
	return core.StrList(out...), nil
}

// primRead reads one line from standard input, returning it as a single
// term; at end of input it throws eof.
func primRead(i *core.Interp, ctx *core.Ctx, args core.List) (core.List, error) {
	var line []byte
	buf := make([]byte, 1)
	r := ctx.Stdin()
	for {
		n, err := r.Read(buf)
		if n > 0 {
			if buf[0] == '\n' {
				return core.StrList(string(line)), nil
			}
			line = append(line, buf[0])
		}
		if err != nil {
			if len(line) > 0 {
				return core.StrList(string(line)), nil
			}
			return nil, core.Throw(core.StrList("eof"))
		}
	}
}
