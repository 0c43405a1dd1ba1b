package coreutils

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"es/internal/core"
)

// raceEnabled is set under the race detector, which makes sync.Pool drop
// a random quarter of what is put back.
var raceEnabled bool

// TestBuiltinScratchBorrowed pins that a builtin call borrows its
// fixed-size buffers: on a five-line input a call must allocate under
// 2 KiB, where one fresh read, scanner or copy buffer is 32 KiB.  cat
// writes to a pipe, whose os.File copies through a buffer of its own
// unless cat passes one.
func TestBuiltinScratchBorrowed(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items")
	}
	const input = "pear\nfig\nkiwi\npear\nfig\n"
	const calls = 200
	file := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(file, []byte(input), 0o644); err != nil {
		t.Fatal(err)
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	drained := make(chan struct{})
	go func() {
		io.Copy(io.Discard, pr)
		close(drained)
	}()
	defer func() {
		pw.Close()
		<-drained
	}()

	i := newI(t)
	for _, argv := range [][]string{
		{"sort"}, {"uniq", "-c"}, {"sed", "3q"}, {"sed", "/i/d"}, {"tr", "a-z", "A-Z"},
		{"wc", "-l"}, {"head"}, {"grep", "i"}, {"cat", file},
	} {
		var stdout io.Writer = io.Discard
		if argv[0] == "cat" {
			stdout = pw
		}
		in := strings.NewReader(input)
		ctx := &core.Ctx{IO: core.NewIOTable(in, stdout, io.Discard)}
		fn := i.Builtin(argv[0])
		run := func() {
			in.Reset(input)
			if status := fn(i, ctx, argv); status != 0 {
				t.Fatalf("%v: status %d", argv, status)
			}
		}
		run() // the pools start empty
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for k := 0; k < calls; k++ {
			run()
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 2048 {
			t.Errorf("%v allocates %d bytes per call, want under 2048", argv, per)
		}
	}
}

// TestBuiltinsShareScratchConcurrently runs builtins on many goroutines
// at once, as pipeline stages do, so that a buffer lent to two calls at
// a time shows as wrong output or, under -race, as a race.
func TestBuiltinsShareScratchConcurrently(t *testing.T) {
	i := newI(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				word := fmt.Sprintf("w%d-%d", g, k)
				input := strings.Repeat(word+"\n", k%5+1)
				for _, tc := range []struct {
					argv []string
					want string
				}{
					{[]string{"sort"}, input},
					{[]string{"uniq", "-c"}, fmt.Sprintf("%7d %s\n", k%5+1, word)},
					{[]string{"tr", "w", "W"}, strings.ReplaceAll(input, "w", "W")},
					{[]string{"cat"}, input},
				} {
					var out strings.Builder
					ctx := &core.Ctx{IO: core.NewIOTable(strings.NewReader(input), &out, io.Discard)}
					if status := i.Builtin(tc.argv[0])(i, ctx, tc.argv); status != 0 || out.String() != tc.want {
						t.Errorf("%v on %q = %q, %d; want %q", tc.argv, input, out.String(), status, tc.want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
