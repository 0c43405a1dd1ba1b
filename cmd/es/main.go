// Command es is the shell: an extensible command interpreter with
// first-class functions, lexical scoping, exceptions and rich return
// values, reproducing Haahr & Rakitzis, "Es: A shell with higher-order
// functions" (Winter USENIX 1993).
//
// Usage:
//
//	es [-c command] [-n] [-check] [-p] [-no-tco] [-cachestats] [-v] [file [args ...]]
//
// With no command or file, es runs interactively, driving the
// %interactive-loop hook (which is itself written in es and can be
// redefined).  Shell state — including function definitions — arrives
// through the environment, so no configuration file is read at startup.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"es"
	"es/internal/analysis"
	"es/internal/core"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		command    = flag.String("c", "", "execute `command` and exit")
		version    = flag.Bool("v", false, "print version and exit")
		noTCO      = flag.Bool("no-tco", false, "disable tail-call elimination")
		parseOnly  = flag.Bool("n", false, "parse input but do not execute it")
		checkOnly  = flag.Bool("check", false, "statically analyze input but do not execute it")
		protected  = flag.Bool("p", false, "protected: do not import function definitions from the environment")
		cacheStats = flag.Bool("cachestats", false, "report native cache hit/miss counters on exit")
	)
	flag.Parse()

	if *parseOnly {
		return checkSyntax(*command, flag.Args())
	}
	if *checkOnly {
		return checkStatic(*command, flag.Args())
	}

	environ := os.Environ()
	if *protected {
		environ = stripFunctions(environ)
	}
	sh, err := es.New(es.Options{
		Stdin:       os.Stdin,
		Stdout:      os.Stdout,
		Stderr:      os.Stderr,
		Environ:     environ,
		NoTailCalls: *noTCO,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "es: startup:", err)
		return 1
	}

	// Interactive exit(2) semantics, like the C implementation.
	sh.Interp().ExitFunc = os.Exit

	if *cacheStats {
		// Printed on the way out (not reached if the shell leaves via
		// $&exit, which calls exit(2) directly).
		defer printCacheStats(sh)
	}

	if *version {
		res, _ := sh.Run("version")
		fmt.Println(res.Flatten(" "))
		return 0
	}

	// SIGINT becomes the signal exception at the next command boundary;
	// the interactive loop reports it and continues.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT)
	go func() {
		for range sig {
			sh.Interp().Interrupt()
		}
	}()

	switch {
	case *command != "":
		return report(sh.Run(*command))
	case flag.NArg() > 0:
		return report(sh.RunFile(flag.Arg(0), flag.Args()[1:]...))
	default:
		return report(sh.Interactive(lineReader{bufio.NewReader(os.Stdin)}))
	}
}

// printCacheStats reports the native dispatch caches (path, parse,
// compile, decode, glob) to standard error, one line per cache.
func printCacheStats(sh *es.Shell) {
	fmt.Fprintln(os.Stderr, "es: native cache statistics:")
	for _, s := range sh.Interp().CacheStats() {
		fmt.Fprintf(os.Stderr, "  %s\n", s)
	}
}

// report converts a result or uncaught exception into a process exit
// status, which is all UNIX lets a shell return: "rich return values ...
// cannot be returned from shell scripts or other external programs,
// because the exit/wait interface only supports passing small integers."
func report(res es.List, err error) int {
	if err != nil {
		if exc, ok := err.(*es.Exception); ok && exc.Name() == "exit" {
			return statusOf(exc.Args[1:])
		}
		fmt.Fprintln(os.Stderr, "es: uncaught exception:", err)
		return 1
	}
	return statusOf(res)
}

func statusOf(res es.List) int {
	if res.True() {
		return 0
	}
	if len(res) == 1 {
		if n, err := strconv.Atoi(res[0].String()); err == nil && n >= 0 && n < 256 {
			return n
		}
	}
	return 1
}

// checkSyntax implements -n: parse the command, files, or stdin and
// report errors without executing anything.
func checkSyntax(command string, files []string) int {
	check := func(label, src string) int {
		if _, err := core.ParseCommand(src); err != nil {
			fmt.Fprintf(os.Stderr, "es: %s: %v\n", label, err)
			return 1
		}
		return 0
	}
	switch {
	case command != "":
		return check("-c", command)
	case len(files) > 0:
		status := 0
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				fmt.Fprintln(os.Stderr, "es:", err)
				status = 1
				continue
			}
			if check(f, string(src)) != 0 {
				status = 1
			}
		}
		return status
	default:
		src, err := io.ReadAll(os.Stdin)
		if err != nil {
			fmt.Fprintln(os.Stderr, "es:", err)
			return 1
		}
		return check("stdin", string(src))
	}
}

// checkStatic implements -check: run the static analyzer (escheck's
// engine) over the command, files, or stdin, resolving hooks, primitives
// and variables against a freshly initialized shell, and report
// diagnostics without executing anything.
func checkStatic(command string, files []string) int {
	sh, err := es.New(es.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "es: startup:", err)
		return 1
	}
	env := analysis.EnvFromInterp(sh.Interp())
	check := func(label, src string) int {
		res := analysis.Analyze(src, analysis.Options{File: label, Env: env})
		for _, d := range res.Diags {
			fmt.Fprintln(os.Stderr, d.String())
		}
		if res.Errors() > 0 {
			return 1
		}
		return 0
	}
	switch {
	case command != "":
		return check("-c", command)
	case len(files) > 0:
		status := 0
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				fmt.Fprintln(os.Stderr, "es:", err)
				status = 1
				continue
			}
			if check(f, string(src)) != 0 {
				status = 1
			}
		}
		return status
	default:
		src, err := io.ReadAll(os.Stdin)
		if err != nil {
			fmt.Fprintln(os.Stderr, "es:", err)
			return 1
		}
		return check("stdin", string(src))
	}
}

// stripFunctions implements -p: fn- and set- definitions inherited from
// the environment are dropped, so a hostile environment cannot redefine
// shell services ("protected" mode, as in the C implementation).
func stripFunctions(environ []string) []string {
	out := environ[:0]
	for _, kv := range environ {
		if strings.HasPrefix(kv, "fn-") || strings.HasPrefix(kv, "set-") {
			continue
		}
		out = append(out, kv)
	}
	return out
}

// lineReader adapts buffered stdin to the %parse protocol.
type lineReader struct {
	r *bufio.Reader
}

func (l lineReader) ReadLine() (string, error) {
	line, err := l.r.ReadString('\n')
	if err != nil {
		if err == io.EOF && line != "" {
			return line, nil
		}
		return "", err
	}
	return line[:len(line)-1], nil
}
