package main

// The in-process probe: the layers a request passes through, timed one
// at a time inside the benchmark process on the workload's own inputs.
// It complements the wire spans, which see the layers only from outside.

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"es"
	"es/internal/compile"
	"es/internal/core"
	"es/internal/image"
	"es/internal/server"
	"es/internal/syntax"
)

// probeCases bounds how many of a workload's cases the probe cycles
// through: the head of rpc_script's Zipf ranking, all of the others.
const probeCases = 64

// lockedBuffer collects output that pipeline elements write from their
// own goroutines.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// runCase evaluates one case on i and checks it against the oracle.
func runCase(i *core.Interp, c evalCase) error {
	var out lockedBuffer
	ctx := &core.Ctx{IO: core.NewIOTable(strings.NewReader(""), &out, io.Discard)}
	res, err := i.RunString(ctx, c.Src)
	if err != nil {
		return fmt.Errorf("probe: %q: %w", c.Src, err)
	}
	if c.Value != nil && !slices.Equal(res.Strings(), c.Value) {
		return fmt.Errorf("probe: %q: value %q, want %q", c.Src, res.Strings(), c.Value)
	}
	if got := out.String(); got != c.Stdout {
		return fmt.Errorf("probe: %q: stdout %q, want %q", c.Src, got, c.Stdout)
	}
	return nil
}

// loop calls fn until budget has passed and at least three times, and
// returns the mean of the durations fn reports, in µs.
func loop(budget time.Duration, fn func(k int) (time.Duration, error)) (float64, error) {
	var total time.Duration
	n := 0
	for start := time.Now(); n < 3 || time.Since(start) < budget; n++ {
		d, err := fn(n)
		if err != nil {
			return 0, err
		}
		total += d
	}
	return us(total) / float64(n), nil
}

// probe measures every in-process layer metric for the workload.  dir is
// the run directory, which holds the files the requests read.
func probe(in *inputs, dir string, budget time.Duration) (map[string]float64, error) {
	m := make(map[string]float64)
	env := append(runDirEnv(dir), in.env...)
	var err error
	m["startup.new_us"], err = loop(budget, func(int) (time.Duration, error) {
		t := time.Now()
		_, err := es.New(es.Options{Environ: env, Dir: dir})
		return time.Since(t), err
	})
	if err != nil {
		return nil, err
	}

	sh, err := es.New(es.Options{Environ: env, Dir: dir})
	if err != nil {
		return nil, err
	}
	// The template holds the workload's session state, as esd's sessions
	// do after a restore.
	tmpl := sh.Interp()
	cases := in.cases[:min(probeCases, len(in.cases))]
	if in.initSrc != "" {
		gen := genName(0, 0)
		if err := runCase(tmpl, evalCase{Src: in.initSrc + "gen = " + gen + "; result 0", Value: []string{"0"}}); err != nil {
			return nil, err
		}
		steps := make([]evalCase, len(cases))
		for k, c := range cases {
			steps[k] = evalCase{Src: "step " + gen + " " + c.Src, Value: []string{gen, c.Value[0]}}
		}
		cases = steps
	}

	m["syntax.parse_us"], err = loop(budget, func(k int) (time.Duration, error) {
		core.FlushParseCache()
		t := time.Now()
		_, err := core.ParseCommand(cases[k%len(cases)].Src)
		return time.Since(t), err
	})
	if err != nil {
		return nil, err
	}
	// One checked pass refills the caches the parse probe flushed, so the
	// exec probe times warm runs.
	sess := tmpl.Spawn()
	for _, c := range cases {
		if err := runCase(sess, c); err != nil {
			return nil, err
		}
	}
	m["core.exec_us"], err = loop(budget, func(k int) (time.Duration, error) {
		t := time.Now()
		err := runCase(sess, cases[k%len(cases)])
		return time.Since(t), err
	})
	if err != nil {
		return nil, err
	}
	// Lowering is timed on the parsed block itself, nested closure bodies
	// included, as on a compile-cache miss.  Taking it as a cold run minus
	// a parse and a warm run instead leaves it below the noise of any
	// request that runs a pipeline.
	blocks := make([]*syntax.Block, len(cases))
	for k, c := range cases {
		if blocks[k], err = core.ParseCommand(c.Src); err != nil {
			return nil, err
		}
	}
	m["compile.lower_us"], err = loop(budget, func(k int) (time.Duration, error) {
		t := time.Now()
		_, err := compile.Compile(blocks[k%len(blocks)], nil)
		return time.Since(t), err
	})
	if err != nil {
		return nil, err
	}

	probeSpawn(m, tmpl)
	if err := probeImage(m, tmpl, budget); err != nil {
		return nil, err
	}
	if err := probeFrames(m, in, cases, image.Capture(tmpl, nil).Encode(), budget); err != nil {
		return nil, err
	}
	return m, nil
}

// spawnSessions is how many sessions the spawn probe keeps alive at once
// to measure their resident bytes.
const spawnSessions = 256

// probeSpawn times Interp.Spawn and measures what a spawned session keeps
// resident: the heap growth over spawnSessions live sessions.
func probeSpawn(m map[string]float64, tmpl *core.Interp) {
	kept := make([]*core.Interp, 0, spawnSessions)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t := time.Now()
	for len(kept) < spawnSessions {
		kept = append(kept, tmpl.Spawn())
	}
	m["core.spawn_us"] = us(time.Since(t)) / spawnSessions
	runtime.GC()
	runtime.ReadMemStats(&after)
	m["core.spawn_bytes"] = float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / spawnSessions
	runtime.KeepAlive(kept)
}

// probeImage times each stage of a session image's round trip.
func probeImage(m map[string]float64, tmpl *core.Interp, budget time.Duration) error {
	img := image.Capture(tmpl, nil)
	data := img.Encode()
	m["image.bytes"] = float64(len(data))
	var err error
	if m["image.capture_us"], err = loop(budget, func(int) (time.Duration, error) {
		t := time.Now()
		image.Capture(tmpl, nil)
		return time.Since(t), nil
	}); err != nil {
		return err
	}
	if m["image.encode_us"], err = loop(budget, func(int) (time.Duration, error) {
		t := time.Now()
		img.Encode()
		return time.Since(t), nil
	}); err != nil {
		return err
	}
	if m["image.decode_us"], err = loop(budget, func(int) (time.Duration, error) {
		t := time.Now()
		_, err := image.Decode(data)
		return time.Since(t), err
	}); err != nil {
		return err
	}
	m["image.restore_us"], err = loop(budget, func(int) (time.Duration, error) {
		target := tmpl.Spawn()
		t := time.Now()
		img.Restore(target)
		return time.Since(t), nil
	})
	return err
}

// repeatReader yields its bytes over and over.
type repeatReader struct {
	b   []byte
	off int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := copy(p, r.b[r.off:])
	r.off = (r.off + n) % len(r.b)
	return n, nil
}

// probeFrames times the server's frame codec on the workload's traffic:
// decoding the requests esd reads and encoding the replies it writes.
func probeFrames(m map[string]float64, in *inputs, cases []evalCase, img []byte, budget time.Duration) error {
	var reqs, replies []*server.Frame
	for k, c := range cases {
		id := int64(k + 1)
		if in.workload == "session_state" {
			b64 := base64.StdEncoding.EncodeToString(img)
			reqs = append(reqs, &server.Frame{Type: "restore", ID: id, Image: b64},
				&server.Frame{Type: "eval", ID: id, Src: c.Src},
				&server.Frame{Type: "snap", ID: id}, &server.Frame{Type: "bye"})
			replies = append(replies, &server.Frame{Type: "restore", ID: id, True: true},
				&server.Frame{Type: "result", ID: id, Value: c.Value, MS: 0.01},
				&server.Frame{Type: "snap", ID: id, Image: b64}, &server.Frame{Type: "bye", Reason: "bye"})
			continue
		}
		reqs = append(reqs, &server.Frame{Type: "eval", ID: id, Src: c.Src})
		replies = append(replies, &server.Frame{Type: "result", ID: id, Value: c.Value, Stdout: c.Stdout, MS: 0.01})
	}
	var err error
	fw := server.NewFrameWriter(io.Discard)
	if m["server.frame_encode_us"], err = loop(budget, func(k int) (time.Duration, error) {
		t := time.Now()
		err := fw.Write(replies[k%len(replies)])
		return time.Since(t), err
	}); err != nil {
		return err
	}
	var lines bytes.Buffer
	for _, f := range reqs {
		b, err := json.Marshal(f)
		if err != nil {
			return err
		}
		lines.Write(append(b, '\n'))
	}
	fr := server.NewFrameReader(&repeatReader{b: lines.Bytes()})
	m["server.frame_decode_us"], err = loop(budget, func(int) (time.Duration, error) {
		t := time.Now()
		_, err := fr.Read()
		return time.Since(t), err
	})
	return err
}
