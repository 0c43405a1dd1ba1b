// Command esdump shows what the es front end does to a program: the
// token stream, the surface parse, and — most importantly — the rewritten
// core form, which demonstrates the paper's claim that "es's shell syntax
// is just a front for calls on built-in functions":
//
//	$ esdump -core 'ls > /tmp/foo'
//	%create 1 /tmp/foo {ls}
//
// Usage:
//
//	esdump [-tokens] [-surface] [-core] [command | -]
//	esdump -image file.esimg
//
// With no stage flags, all three are printed.  "-" (or no argument) reads
// the program from standard input.  -image instead pretty-prints a
// session image (written by `snapshot` or esc -snap): header, sections,
// and each captured variable with its marks.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"es/internal/core"
	"es/internal/image"
	"es/internal/syntax"
)

func main() {
	var (
		tokens  = flag.Bool("tokens", false, "print the token stream")
		surface = flag.Bool("surface", false, "print the surface parse")
		coreF   = flag.Bool("core", false, "print the rewritten core form")
		imageF  = flag.String("image", "", "pretty-print the session image at `file` instead")
	)
	flag.Parse()
	if *imageF != "" {
		if err := dumpImage(*imageF); err != nil {
			fmt.Fprintln(os.Stderr, "esdump:", err)
			os.Exit(1)
		}
		return
	}
	all := !*tokens && !*surface && !*coreF

	src := ""
	if flag.NArg() == 0 || flag.Arg(0) == "-" {
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			fmt.Fprintln(os.Stderr, "esdump:", err)
			os.Exit(1)
		}
		src = string(data)
	} else {
		src = flag.Arg(0)
	}

	if all || *tokens {
		if all {
			fmt.Println("tokens:")
		}
		toks, err := syntax.Lex(src)
		if err != nil {
			fmt.Fprintln(os.Stderr, "esdump:", err)
			os.Exit(1)
		}
		for _, t := range toks {
			if t.Kind == syntax.EOF {
				break
			}
			fmt.Printf("  %v\n", t)
		}
	}

	blk, err := syntax.Parse(src)
	if err != nil {
		fmt.Fprintln(os.Stderr, "esdump:", err)
		os.Exit(1)
	}
	if all || *surface {
		if all {
			fmt.Println("surface:")
		}
		fmt.Println(indent(all, syntax.UnparseBody(blk)))
	}
	// Rewrite lowers blk in place, so the surface form is printed first.
	if all || *coreF {
		if all {
			fmt.Println("core:")
		}
		fmt.Println(indent(all, syntax.UnparseBody(syntax.Rewrite(blk).(*syntax.Block))))
	}
}

func indent(yes bool, s string) string {
	if !yes {
		return s
	}
	return "  " + s
}

// dumpImage pretty-prints one session image.  Decode already verified
// the checksum, the format version, and the framing, so reaching the
// listing at all means the image is intact.
func dumpImage(path string) error {
	img, err := image.ReadFile(path)
	if err != nil {
		return err
	}
	fmt.Printf("%s: es session image, format %d, checksum ok\n", path, img.Format)
	if img.Es != "" {
		fmt.Printf("  es:  %s\n", img.Es)
	}
	keys := make([]string, 0, len(img.Meta))
	for k := range img.Meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %s:  %s\n", k, img.Meta[k])
	}
	if img.Dir != "" {
		fmt.Printf("  cwd: %s\n", img.Dir)
	}
	fmt.Printf("  vars: %d\n", len(img.Vars))
	for _, v := range img.Vars {
		fmt.Printf("  %-4s %s%s\n", varFlags(v), v.Name, varValue(v))
	}
	return nil
}

func varFlags(v core.VarRecord) string {
	f := ""
	if v.NoExport {
		f += "n"
	}
	if v.Phantom {
		f += "p"
	}
	if v.Empty {
		f += "e"
	}
	if f == "" {
		f = "-"
	}
	return f
}

// varValue renders a record's value for the listing: list separators
// made visible, long values truncated — this is a summary, the bytes are
// in the file.
func varValue(v core.VarRecord) string {
	if v.Phantom {
		return ""
	}
	if v.Empty {
		return " = ()"
	}
	val := strings.ReplaceAll(v.Value, "\x01", " \x01 ")
	if len(val) > 72 {
		val = val[:72] + fmt.Sprintf("... (%d bytes)", len(v.Value))
	}
	return " = " + val
}
