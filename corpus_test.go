package es

// Three goldens over the repository's program corpora pin what the
// static analyzer reports, which bindings closure export keeps and how
// esfmt lays a program out, so that a change to how any of them reads a
// tree shows up as a diff:
//
//   - testdata/analysis_golden.json: for the prelude and every corpus
//     program, each diagnostic analysis.Analyze reports with the shell's
//     registry, in the order it reports them, and the effect summary;
//   - testdata/capture_golden.json: for every program root and lambda
//     body, core.EncodeClosure of a closure over that body whose
//     environment binds every literal variable name the program mentions,
//     plus one name it does not mention;
//   - testdata/pretty_golden.json: for the prelude and every corpus
//     program, syntax.Pretty of its parsed tree, or its parse error.
//
// The corpora are the prelude, lib/*.es, testdata/selftest.es, the
// analyzer's escheck battery, and every src of the engine, words and
// rewrite goldens, but not the battery's sequential.es, whose let and
// local headers read the bindings before them in their values: the
// analyzer and export changed on such headers alone when they came to
// see those bindings, and the file's # DIAG lines pin it.  Regenerate
// the files deliberately with:
//
//	go test -run CorpusGolden -update-corpus .

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"es/internal/analysis"
	"es/internal/core"
	"es/internal/prim"
	"es/internal/syntax"
)

var updateCorpus = flag.Bool("update-corpus", false, "regenerate testdata/analysis_golden.json, capture_golden.json and pretty_golden.json")

// corpusProgram is one program of the corpora, named by where it comes from.
type corpusProgram struct {
	name, src string
}

func corpusPrograms(t *testing.T) []corpusProgram {
	t.Helper()
	progs := []corpusProgram{{"<prelude>", prim.InitialES()}}
	for _, pattern := range []string{"lib/*.es", "testdata/selftest.es", "internal/analysis/testdata/escheck/*.es"} {
		files, err := filepath.Glob(pattern)
		if err != nil || len(files) == 0 {
			t.Fatalf("corpus %s: %v", pattern, err)
		}
		for _, file := range files {
			if filepath.Base(file) == "sequential.es" {
				continue
			}
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			progs = append(progs, corpusProgram{filepath.ToSlash(file), string(src)})
		}
	}
	for _, file := range []string{"testdata/engine_golden.json", "testdata/words_golden.json", "internal/syntax/testdata/rewrite_golden.json"} {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var entries []struct {
			Src string `json:"src"`
		}
		if err := json.Unmarshal(data, &entries); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		for k, e := range entries {
			progs = append(progs, corpusProgram{fmt.Sprintf("%s#%d", file, k), e.Src})
		}
	}
	return progs
}

// checkCorpusGolden compares got, rendered as indented JSON, with the
// golden file, or rewrites the file under -update-corpus.
func checkCorpusGolden(t *testing.T, file string, got any) {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(got); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if *updateCorpus {
		if err := os.WriteFile(file, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("golden missing (run: go test -run CorpusGolden -update-corpus .): %v", err)
	}
	if bytes.Equal(data, want) {
		return
	}
	// Name the first program whose entry differs.
	var gotEntries, wantEntries []json.RawMessage
	json.Unmarshal(data, &gotEntries)
	json.Unmarshal(want, &wantEntries)
	for k := 0; k < len(gotEntries) || k < len(wantEntries); k++ {
		var g, w json.RawMessage
		if k < len(gotEntries) {
			g = gotEntries[k]
		}
		if k < len(wantEntries) {
			w = wantEntries[k]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("%s: entry %d differs\n got: %s\nwant: %s", file, k, g, w)
		}
	}
	t.Fatalf("%s differs", file)
}

func TestAnalysisCorpusGolden(t *testing.T) {
	sh, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	env := analysis.EnvFromInterp(sh.Interp())
	type entry struct {
		Program     string           `json:"program"`
		Diagnostics []string         `json:"diagnostics"`
		Effects     analysis.Effects `json:"effects"`
	}
	var got []entry
	for _, p := range corpusPrograms(t) {
		res := analysis.Analyze(p.src, analysis.Options{Env: env})
		e := entry{Program: p.name, Diagnostics: []string{}, Effects: res.Effects}
		for _, d := range res.Diags {
			e.Diagnostics = append(e.Diagnostics, fmt.Sprintf("%s %s %s %s", d.Pos, d.Code, d.Sev, d.Msg))
		}
		got = append(got, e)
	}
	checkCorpusGolden(t, filepath.Join("testdata", "analysis_golden.json"), got)
}

func TestCaptureCorpusGolden(t *testing.T) {
	type entry struct {
		Program  string   `json:"program"`
		Closures []string `json:"closures"`
	}
	var got []entry
	for _, p := range corpusPrograms(t) {
		u, err := core.CompileCommand(p.src)
		if err != nil {
			continue
		}
		prog := u.Prog
		names, bodies := mentions(prog.Units[0].Tree())
		unmentioned := "unmentioned"
		for names[unmentioned] {
			unmentioned += "_"
		}
		names[unmentioned] = true
		sorted := make([]string, 0, len(names))
		for name := range names {
			sorted = append(sorted, name)
		}
		sort.Strings(sorted)
		var env *core.Binding
		for _, name := range sorted {
			env = &core.Binding{Name: name, Value: core.StrList(name), Next: env}
		}
		e := entry{Program: p.name}
		for k := range prog.Units {
			if k > 0 && !bodies[prog.Units[k].Tree()] {
				continue // a substitution body: no closure is made over one
			}
			e.Closures = append(e.Closures, core.EncodeClosure(&core.Closure{Unit: &prog.Units[k], Env: env}))
		}
		got = append(got, e)
	}
	checkCorpusGolden(t, filepath.Join("testdata", "capture_golden.json"), got)
}

func TestPrettyCorpusGolden(t *testing.T) {
	type entry struct {
		Program string `json:"program"`
		Pretty  string `json:"pretty"`
		Error   string `json:"error,omitempty"`
	}
	var got []entry
	for _, p := range corpusPrograms(t) {
		e := entry{Program: p.name}
		if b, err := syntax.Parse(p.src); err != nil {
			e.Error = err.Error()
		} else {
			e.Pretty = syntax.Pretty(b)
		}
		got = append(got, e)
	}
	checkCorpusGolden(t, filepath.Join("testdata", "pretty_golden.json"), got)
}

// mentions finds, by reflection over the tree's fields, every literal
// variable name a tree mentions (references, assignment targets, binding
// names, parameters) and the body of every lambda in it.
func mentions(root *syntax.Block) (names map[string]bool, bodies map[*syntax.Block]bool) {
	names, bodies = map[string]bool{}, map[*syntax.Block]bool{}
	lit := func(w *syntax.Word) {
		if name, ok := w.LitText(); ok {
			names[name] = true
		}
	}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer, reflect.Interface:
			if v.IsNil() {
				return
			}
			switch n := v.Interface().(type) {
			case *syntax.Var:
				lit(n.Name)
			case *syntax.Assign:
				lit(n.Name)
			case *syntax.Lambda:
				bodies[n.Body] = true
				for _, p := range n.Params {
					names[p] = true
				}
			}
			walk(v.Elem())
		case reflect.Slice:
			for k := 0; k < v.Len(); k++ {
				walk(v.Index(k))
			}
		case reflect.Struct:
			if b, ok := v.Interface().(syntax.Binding); ok {
				lit(b.Name)
			}
			for k := 0; k < v.NumField(); k++ {
				walk(v.Field(k))
			}
		}
	}
	walk(reflect.ValueOf(root))
	return names, bodies
}
