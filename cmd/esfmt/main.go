// Command esfmt formats es scripts in a canonical style: one command per
// line, tab-indented brace bodies, normalized quoting.  Like gofmt, it
// guarantees the output parses to the same program.
//
// Usage:
//
//	esfmt [-w] [-d] [file ...]
//
// With no files, esfmt reads standard input and writes standard output.
// -w rewrites files in place; -d prints whether each file would change
// (exit status 1 if any would) without writing.
//
// esfmt keeps no comments: the syntax tree holds none.  So -w leaves a
// file that holds a comment as it is, names the comment's line, and
// exits with status 2; the other modes print the same message on
// standard error as a warning.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"es/internal/syntax"
)

func main() {
	var (
		write = flag.Bool("w", false, "write result back to the source file")
		diff  = flag.Bool("d", false, "report files whose formatting would change")
	)
	flag.Parse()

	if flag.NArg() == 0 {
		src, err := io.ReadAll(os.Stdin)
		if err != nil {
			fatal("stdin: %v", err)
		}
		out, err := format(string(src))
		if err != nil {
			fatal("stdin: %v", err)
		}
		if note := commentNote("stdin", string(src)); note != "" {
			fmt.Fprintf(os.Stderr, "esfmt: warning: %s\n", note)
		}
		os.Stdout.WriteString(out)
		return
	}

	changed, refused := false, false
	for _, path := range flag.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			fatal("%v", err)
		}
		out, err := format(string(src))
		if err != nil {
			fatal("%s: %v", path, err)
		}
		note := commentNote(path, string(src))
		if *write && !*diff && note != "" {
			fmt.Fprintf(os.Stderr, "esfmt: %s; not rewritten\n", note)
			refused = true
			continue
		}
		if note != "" {
			fmt.Fprintf(os.Stderr, "esfmt: warning: %s\n", note)
		}
		switch {
		case *diff:
			if out != string(src) {
				fmt.Println(path)
				changed = true
			}
		case *write:
			if out != string(src) {
				if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
					fatal("%v", err)
				}
			}
		default:
			os.Stdout.WriteString(out)
		}
	}
	if refused {
		os.Exit(2)
	}
	if changed {
		os.Exit(1)
	}
}

// commentNote names the line of the first comment in src, read from
// name, since the formatted output drops it; it is "" when src holds none.
func commentNote(name, src string) string {
	if line := syntax.CommentLine(src); line > 0 {
		return fmt.Sprintf("%s:%d: a comment, which esfmt does not keep", name, line)
	}
	return ""
}

// format parses and pretty-prints src, verifying the round trip: if the
// formatted output does not parse back to the same program, the original
// is returned with an error rather than corrupting the script.
func format(src string) (string, error) {
	blk, err := syntax.Parse(src)
	if err != nil {
		return "", err
	}
	out := syntax.Pretty(blk)
	reparsed, err := syntax.Parse(out)
	if err != nil {
		return "", fmt.Errorf("internal error: formatted output does not parse: %v", err)
	}
	if syntax.UnparseBody(reparsed) != syntax.UnparseBody(blk) {
		return "", fmt.Errorf("internal error: formatting changed the program")
	}
	return out, nil
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "esfmt: "+format+"\n", args...)
	os.Exit(2)
}
