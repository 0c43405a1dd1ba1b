// Package es is an embeddable implementation of the es shell — the
// "library version of es which could be used stand-alone as a shell or
// linked in other programs" that Haahr & Rakitzis describe as future work
// in "Es: A shell with higher-order functions" (Winter USENIX 1993).
//
// A Shell wraps a core interpreter with the standard primitives, the
// hermetic coreutils, and the embedded initial.es start-up script:
//
//	sh, err := es.New(es.Options{Stdout: os.Stdout, Stderr: os.Stderr})
//	result, err := sh.Run("fn greet who {echo hello, $who}; greet world")
//
// Program fragments are first-class: results are lists of terms that may
// contain closures, and Go code can register new $& primitives with
// RegisterPrim to extend the language.
package es

import (
	"io"
	"os"
	"strconv"
	"strings"
	"sync"

	"es/internal/core"
	"es/internal/coreutils"
	"es/internal/prim"
)

// Re-exported value types: an es value is a List of Terms, where a Term
// is a string, a closure, or a primitive reference.
type (
	// List is an es value list.
	List = core.List
	// Term is one element of a List.
	Term = core.Term
	// Exception is the error type carrying es exceptions.
	Exception = core.Exception
	// Ctx is a per-command evaluation context (descriptor table).
	Ctx = core.Ctx
	// PrimFunc is the signature of a registered primitive.
	PrimFunc = core.PrimFunc
	// BuiltinFunc is the signature of a registered utility command.
	BuiltinFunc = core.BuiltinFunc
	// CommandReader feeds lines to the interactive %parse primitive.
	CommandReader = core.CommandReader
	// Interp is the underlying interpreter type, exposed so embedders
	// can write PrimFunc implementations without importing internals.
	Interp = core.Interp
)

// Options configures a new Shell.
type Options struct {
	Stdin  io.Reader // defaults to an empty reader
	Stdout io.Writer // defaults to io.Discard
	Stderr io.Writer // defaults to io.Discard

	// Environ is imported into the variable table (fn- and set- values
	// are parsed back into closures).  Leave nil to start clean; pass
	// os.Environ() for a login-like shell.
	Environ []string

	// NoCoreutils skips registration of the hermetic utility commands,
	// leaving only externals and primitives.
	NoCoreutils bool

	// NoTailCalls disables tail-call elimination (the paper notes the C
	// implementation's lack of it as a deficiency; this switch exists
	// for the ablation benchmark).
	NoTailCalls bool

	// Dir is the shell's starting working directory; empty means the
	// process working directory.  The shell's directory is virtual
	// (fork-isolated) and never calls os.Chdir.
	Dir string
}

// Shell is one es interpreter instance.
type Shell struct {
	interp *core.Interp
	ctx    *core.Ctx
}

// New creates a Shell: it registers the primitives and builtins, runs the
// embedded initial.es (binding every %hook to its $&primitive, installing
// the path/PATH settors and the Figure 3 interactive loop), imports the
// environment, and synchronizes imported values through their settors.
func New(opts Options) (*Shell, error) {
	in := opts.Stdin
	if in == nil {
		in = strings.NewReader("")
	}
	out := opts.Stdout
	if out == nil {
		out = io.Discard
	}
	errw := opts.Stderr
	if errw == nil {
		errw = io.Discard
	}
	// Subshells (pipeline elements, background jobs, bridged externals)
	// write concurrently; serialize writes to user-supplied sinks that
	// are not already concurrency-safe files.  Stdout and Stderr bound
	// to the same sink share one lock.
	var mu sync.Mutex
	out = lockWriter(&mu, out)
	if opts.Stderr != nil && opts.Stderr == opts.Stdout {
		errw = out
	} else {
		errw = lockWriter(&mu, errw)
	}
	i := core.New()
	i.NoTailCalls = opts.NoTailCalls
	if opts.Dir != "" {
		i.SetDir(opts.Dir)
	}
	prim.Register(i)
	if !opts.NoCoreutils {
		coreutils.Register(i)
	}
	// $pid, as in the C implementation (used for temporary file names).
	i.SetVarRaw("pid", core.StrList(strconv.Itoa(os.Getpid())))
	i.SetNoExport("pid")
	ctx := core.NewIOTable(in, out, errw).Ctx()
	if err := prim.RunInitial(i, ctx); err != nil {
		return nil, err
	}
	if opts.Environ != nil {
		i.ImportEnv(opts.Environ)
		if err := prim.RunSync(i, ctx); err != nil {
			return nil, err
		}
	}
	return &Shell{interp: i, ctx: ctx}, nil
}

// Run parses and evaluates src, returning its rich return value.  Errors
// of type *Exception carry uncaught es exceptions.
func (s *Shell) Run(src string) (List, error) {
	return s.interp.RunString(s.ctx, src)
}

// RunFile sources a script file with $* bound to args.
func (s *Shell) RunFile(path string, args ...string) (List, error) {
	return s.interp.RunFile(s.ctx, path, core.StrList(args...))
}

// Interactive drives the (spoofable) %interactive-loop hook, reading
// commands from r until eof.  It returns the loop's result — the result
// of the last command, per Figure 3.
func (s *Shell) Interactive(r CommandReader) (List, error) {
	s.interp.Reader = r
	defer func() { s.interp.Reader = nil }()
	return s.interp.CallHook(s.ctx, "%interactive-loop", nil)
}

// Get returns the value of a global variable (nil if unset).
func (s *Shell) Get(name string) List { return s.interp.Var(name) }

// Set assigns a global variable, running its settor like any assignment.
func (s *Shell) Set(name string, values ...string) error {
	return s.interp.SetVar(s.ctx, name, core.StrList(values...))
}

// RegisterPrim adds a $&name primitive callable from the shell.
func (s *Shell) RegisterPrim(name string, fn PrimFunc) {
	s.interp.RegisterPrim(name, fn)
}

// RegisterBuiltin adds a utility command resolved before $PATH.
func (s *Shell) RegisterBuiltin(name string, fn BuiltinFunc) {
	s.interp.RegisterBuiltin(name, fn)
}

// Interp exposes the underlying interpreter for advanced embedding.
func (s *Shell) Interp() *core.Interp { return s.interp }

// Context exposes the root evaluation context.
func (s *Shell) Context() *core.Ctx { return s.ctx }

// lockWriter serializes writes to w; *os.File writers pass through (the
// kernel already serializes them, and externals need the real file).
func lockWriter(mu *sync.Mutex, w io.Writer) io.Writer {
	if _, ok := w.(*os.File); ok {
		return w
	}
	if w == io.Discard {
		return w
	}
	return &syncWriter{mu: mu, w: w}
}

type syncWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// StrList builds a list of plain string terms.
func StrList(ss ...string) List { return core.StrList(ss...) }

// IsException reports whether err is an es exception named name.
func IsException(err error, name string) bool { return core.ExcNamed(err, name) }
