package prim

import (
	"errors"
	"io"
	"strconv"
	"strings"
	"syscall"

	"es/internal/core"
	"es/internal/glob"
)

func registerWords(i *core.Interp) {
	i.RegisterPrim("flatten", primFlatten)
	i.RegisterPrim("fsplit", primFsplit)
	i.RegisterPrim("split", primSplit)
	i.RegisterPrim("count", primCount)
	i.RegisterPrim("match", primMatch)
	i.RegisterPrim("echo", primEcho)
}

// primFlatten joins a list into one term: %flatten sep list...
func primFlatten(i *core.Interp, ctx *core.Ctx, args core.List) (core.List, error) {
	if len(args) == 0 {
		return nil, core.ErrorExc("usage: %flatten separator [args ...]")
	}
	sep := args[0].String()
	rest := core.List(args[1:])
	if len(rest) == 0 {
		return core.List{}, nil
	}
	return core.StrList(rest.Flatten(sep)), nil
}

// primFsplit splits each argument on a separator string, keeping empty
// fields: %fsplit : a:b::c → a b ” c.
func primFsplit(i *core.Interp, ctx *core.Ctx, args core.List) (core.List, error) {
	if len(args) == 0 {
		return nil, core.ErrorExc("usage: %fsplit separator [args ...]")
	}
	sep := args[0].String()
	var out []string
	for _, t := range args[1:] {
		if sep == "" {
			out = append(out, t.String())
			continue
		}
		out = append(out, strings.Split(t.String(), sep)...)
	}
	return core.StrList(out...), nil
}

// primSplit splits on any character of the separator set, dropping empty
// fields (ifs-style).
func primSplit(i *core.Interp, ctx *core.Ctx, args core.List) (core.List, error) {
	if len(args) == 0 {
		return nil, core.ErrorExc("usage: %split separator [args ...]")
	}
	set := args[0].String()
	var out []string
	for _, t := range args[1:] {
		out = append(out, splitIfs(t.String(), set)...)
	}
	return core.StrList(out...), nil
}

// primCount returns the number of terms in its argument list, the
// value behind $#var.
func primCount(i *core.Interp, ctx *core.Ctx, args core.List) (core.List, error) {
	return core.StrList(strconv.Itoa(len(args))), nil
}

// primMatch is the function form of the ~ command: $&match subject
// patterns...  (The subject is a single term here; the syntax form
// handles list subjects.)
func primMatch(i *core.Interp, ctx *core.Ctx, args core.List) (core.List, error) {
	if len(args) == 0 {
		return core.True(), nil
	}
	subj := args[0].String()
	for _, p := range args[1:] {
		if glob.New(p.String()).Match(subj) {
			return core.True(), nil
		}
	}
	return core.False(), nil
}

// primEcho prints its arguments separated by spaces; -n suppresses the
// newline, -- ends option processing.  A failed write ends it as
// writeFailed says.
func primEcho(i *core.Interp, ctx *core.Ctx, args core.List) (core.List, error) {
	nl := true
	if len(args) > 0 {
		switch args[0].String() {
		case "-n":
			nl = false
			args = args[1:]
		case "--":
			args = args[1:]
		}
	}
	var b strings.Builder
	for k, t := range args {
		if k > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(t.String())
	}
	if nl {
		b.WriteByte('\n')
	}
	if _, err := io.WriteString(ctx.Stdout(), b.String()); err != nil {
		return writeFailed(err)
	}
	return core.True(), nil
}

// writeFailed is the outcome of a primitive whose write to its standard
// output failed with err.  A write to a pipe whose reader has gone throws
// signal sigpipe, which ends the pipeline element as SIGPIPE ends it in C
// es, so a loop that writes into an early reader stops; any other failed
// write returns false.
func writeFailed(err error) (core.List, error) {
	if errors.Is(err, syscall.EPIPE) {
		return nil, core.Throw(core.StrList("signal", "sigpipe"))
	}
	return core.False(), nil
}
