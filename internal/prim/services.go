package prim

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"es/internal/core"
	"es/internal/proc"
	"es/internal/syntax"
)

// Version identifies this implementation in $&version.
const Version = "es-go 0.9 (reproduction of Haahr & Rakitzis, USENIX W'93)"

func registerServices(i *core.Interp) {
	i.RegisterPrim("cd", primCd)
	i.RegisterPrim("pathsearch", primPathsearch)
	i.RegisterPrim("recache", primRecache)
	i.RegisterPrim("cachestats", primCacheStats)
	i.RegisterPrim("serverstats", primServerStats)
	i.RegisterPrim("whatis", primWhatis)
	i.RegisterPrim("vars", primVars)
	i.RegisterPrim("var", primVar)
	i.RegisterPrim("parse", primParse)
	i.RegisterPrim("time", primTime)
	i.RegisterPrim("version", primVersion)
	i.RegisterPrim("primitives", primPrimitives)
	i.RegisterPrim("noexport", primNoexport)
	i.RegisterPrim("interactive-loop", primFallbackLoop) // esvet:ok fallback only; initial.es defines fn %interactive-loop itself
}

// primCd changes the interpreter's working directory.
func primCd(i *core.Interp, ctx *core.Ctx, args core.List) (core.List, error) {
	var dir string
	switch len(args) {
	case 0:
		home := i.Var("home")
		if len(home) == 0 {
			return nil, core.ErrorExc("chdir: no home directory")
		}
		dir = home[0].String()
	default:
		dir = args[0].String()
	}
	resolved := dir
	if !filepath.IsAbs(resolved) {
		resolved = filepath.Join(i.Dir(), resolved)
	}
	resolved = filepath.Clean(resolved)
	fi, err := os.Stat(resolved)
	if err != nil {
		return nil, core.ErrorExc("chdir " + dir + ": No such file or directory")
	}
	if !fi.IsDir() {
		return nil, core.ErrorExc("chdir " + dir + ": Not a directory")
	}
	i.SetDir(resolved)
	return core.True(), nil
}

// primPathsearch looks a program up in $path; it is the service behind
// the %pathsearch hook that Figure 2 replaces with a caching version.
//
// The primitive now caches natively: successful absolute lookups are
// memoized per interpreter, invalidated whenever path/PATH is assigned
// (the settor round-trip) or $&recache runs, and re-verified with one
// stat on every hit so a deleted binary falls back to a full search.  The
// hook remains fully spoofable — a user's fn %pathsearch (lib/pathcache.es)
// replaces this entire primitive, native cache included.
func primPathsearch(i *core.Interp, ctx *core.Ctx, args core.List) (core.List, error) {
	if len(args) == 0 {
		return nil, core.ErrorExc("usage: %pathsearch program")
	}
	name := args[0].String()
	if strings.ContainsRune(name, '/') {
		return core.StrList(name), nil
	}
	pc := i.PathCache()
	if file, ok := pc.Get(name); ok {
		if proc.Executable(file) {
			return core.StrList(file), nil
		}
		pc.Delete(name) // stale: binary vanished since it was cached
	}
	dirs := i.Var("path").Strings()
	if file, ok := proc.Lookup(name, dirs); ok {
		// Only absolute results are cached: a hit for a relative $path
		// entry would go wrong the moment the shell changes directory.
		if filepath.IsAbs(file) {
			pc.Put(name, file)
		}
		return core.StrList(file), nil
	}
	// Misses are never cached, so a program installed after a failed
	// lookup is found immediately.
	return nil, core.ErrorExc(name + ": not found")
}

// primRecache drops the native caches: the pathsearch memo plus the
// process-wide parse, decode, and compiled-glob caches.  It is the native
// analogue of Figure 2's recache function (which remains free to shadow
// it: lib/pathcache.es redefines fn-recache for its own spoofed cache).
func primRecache(i *core.Interp, ctx *core.Ctx, args core.List) (core.List, error) {
	i.FlushCaches()
	return core.True(), nil
}

// primCacheStats returns one term per native cache in the form
// name:hits:misses:invalidations:entries, the shell-visible face of the
// counter surface behind es -cachestats.
func primCacheStats(i *core.Interp, ctx *core.Ctx, args core.List) (core.List, error) {
	var out core.List
	for _, s := range i.CacheStats() {
		out = append(out, core.StrTerm(fmt.Sprintf("%s:%d:%d:%d:%d",
			s.Name, s.Hits, s.Misses, s.Invalidations, s.Entries)))
	}
	return out, nil
}

// primServerStats returns the serving layer's counters as name:value
// words (sessions, evals, timeouts, p50/p99 latency, bytes in/out), the
// same shape as $&cachestats, for the daemon serving this interpreter
// (core.Interp.ServerStats).  Outside a daemon it throws error, so
// scripts can probe for the serving layer with catch.
func primServerStats(i *core.Interp, ctx *core.Ctx, args core.List) (core.List, error) {
	if i.ServerStats == nil {
		return nil, core.ErrorExc("serverstats: no server running in this process")
	}
	return core.StrList(i.ServerStats()...), nil
}

// primWhatis prints how each name would be interpreted: the environment
// encoding of its fn- definition (the paper's `whatis foo` →
// `%closure(a=b)@ * {echo $a}`), the $& form for builtins, or the path of
// the external.  A failed write ends it as writeFailed says.
func primWhatis(i *core.Interp, ctx *core.Ctx, args core.List) (core.List, error) {
	out := ctx.Stdout()
	status := core.True()
	for _, t := range args {
		name := t.String()
		var line string
		if fnval := i.Var("fn-" + name); len(fnval) > 0 {
			line = core.EncodeValue(fnval)
		} else if i.Builtin(name) != nil {
			line = "$&" + name
		} else {
			found, err := i.CallHook(ctx.NonTail(), "%pathsearch", core.StrList(name))
			if err != nil && !core.ExcNamed(err, "error") {
				// A spoofed %pathsearch may throw real exceptions —
				// signal, break, a user's own names — which must
				// unwind, not be misreported as "not found".
				return nil, err
			}
			if err != nil || len(found) == 0 {
				io.WriteString(ctx.Stderr(), name+": not found\n")
				status = core.False()
				continue
			}
			line = found.Flatten(" ")
		}
		if _, err := io.WriteString(out, line+"\n"); err != nil {
			return writeFailed(err)
		}
	}
	return status, nil
}

// primVars prints the variable table, one name=value per line.  A failed
// write ends it as writeFailed says.
func primVars(i *core.Interp, ctx *core.Ctx, args core.List) (core.List, error) {
	out := ctx.Stdout()
	for _, name := range i.VarNames() {
		v := i.Var(name)
		if v == nil {
			continue
		}
		if _, err := io.WriteString(out, name+"="+core.EncodeValue(v)+"\n"); err != nil {
			return writeFailed(err)
		}
	}
	return core.True(), nil
}

// primVar returns the values of the named variables (a read that works
// on computed names).
func primVar(i *core.Interp, ctx *core.Ctx, args core.List) (core.List, error) {
	var out core.List
	for _, t := range args {
		out = append(out, i.Var(t.String())...)
	}
	return out, nil
}

// primParse prints its first argument to standard error, reads a command
// — potentially more than one line long, prompting with its second
// argument for continuations — and returns the parsed command as a
// closure.  It throws eof when the input source is exhausted.
func primParse(i *core.Interp, ctx *core.Ctx, args core.List) (core.List, error) {
	if i.Reader == nil {
		return nil, core.Throw(core.StrList("eof"))
	}
	// Back at the prompt: an interrupt that fired after the previous
	// command's last boundary check has no command left to abort; without
	// this it would stay pending and kill the next, unrelated command.
	i.ClearInterrupt()
	p1, p2 := "", ""
	if len(args) > 0 {
		p1 = args[0].String()
	}
	if len(args) > 1 {
		p2 = args[1].String()
	}
	stderr := ctx.Stderr()
	io.WriteString(stderr, p1)
	var src strings.Builder
	for {
		line, err := i.Reader.ReadLine()
		if err != nil {
			if src.Len() == 0 {
				return nil, core.Throw(core.StrList("eof"))
			}
			return nil, core.ErrorExc("unexpected end of input")
		}
		src.WriteString(line)
		u, perr := core.CompileCommand(src.String())
		if perr == nil {
			return core.List{core.Term{Closure: &core.Closure{Unit: u}}}, nil
		}
		if !syntax.IsIncomplete(perr) {
			return nil, core.ErrorExc(perr.Error())
		}
		src.WriteByte('\n')
		io.WriteString(stderr, p2)
	}
}

// primTime runs a command and reports its real/user/system time on
// standard error in the paper's format: `2r 0.3u 0.2s cat paper9`.
func primTime(i *core.Interp, ctx *core.Ctx, args core.List) (core.List, error) {
	if len(args) == 0 {
		return core.True(), nil
	}
	label := commandLabel(args)
	before := proc.Snapshot()
	res, err := run(i, ctx.NonTail(), args[0], args[1:])
	real, user, sys := before.Since()
	fmt.Fprintf(ctx.Stderr(), "%dr %.1fu %.1fs\t%s\n",
		int(real.Seconds()+0.5), user.Seconds(), sys.Seconds(), label)
	return res, err
}

// commandLabel renders a timed command the way the paper prints it: a
// thunk shows its body, other terms their text.
func commandLabel(args core.List) string {
	parts := make([]string, 0, len(args))
	for _, t := range args {
		if t.Closure != nil {
			parts = append(parts, syntax.UnparseBody(t.Closure.Unit.Tree()))
		} else {
			parts = append(parts, t.String())
		}
	}
	return strings.Join(parts, " ")
}

// primVersion reports the interpreter version string.
func primVersion(i *core.Interp, ctx *core.Ctx, args core.List) (core.List, error) {
	return core.StrList(Version), nil
}

// primPrimitives lists the registered $&primitives, sorted, so scripts
// can discover the shell services of the binary they run under.
func primPrimitives(i *core.Interp, ctx *core.Ctx, args core.List) (core.List, error) {
	names := i.PrimNames()
	sort.Strings(names)
	return core.StrList(names...), nil
}

// primNoexport marks variables that must not be exported to the
// environment of child processes.
func primNoexport(i *core.Interp, ctx *core.Ctx, args core.List) (core.List, error) {
	for _, t := range args {
		i.SetNoExport(t.String())
	}
	return core.True(), nil
}

// primFallbackLoop is the $& fallback for %interactive-loop so a shell
// whose hook was deleted still runs: it reads and evaluates commands until
// eof, printing errors.
func primFallbackLoop(i *core.Interp, ctx *core.Ctx, args core.List) (core.List, error) {
	result := core.List{}
	for {
		cmd, err := primParse(i, ctx, i.Var("prompt"))
		if err != nil {
			if core.ExcNamed(err, "eof") {
				return result, nil
			}
			io.WriteString(ctx.Stderr(), err.Error()+"\n")
			continue
		}
		res, err := run(i, ctx.NonTail(), cmd[0], nil)
		if err != nil {
			io.WriteString(ctx.Stderr(), err.Error()+"\n")
			continue
		}
		result = res
	}
}
