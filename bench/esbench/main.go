// Command esbench is the end-to-end and per-layer benchmark of esd and es.
//
// Usage, from the bench directory:
//
//	go run ./esbench [-workload all|name,...] [-seed n] [-seconds s] [-trace dir]
//
// It builds ./cmd/esd and ./cmd/es from the enclosing checkout, drives
// them as separate processes from this one load process, checks every
// reply against an oracle written in Go, and prints one line per metric:
// `workload metric value unit`.  With one workload selected the last line
// is also a JSON summary.  With -trace the run is a traced one: it prints
// the per-layer metrics instead and writes the spans to dir.
//
// Each workload runs rounds of cold launches (setup), a warm-up, and
// short blocks of light load (one request outstanding) and saturated load
// (two workers) in turn; -seconds is split half light, half saturated.
// A traced run gives one third to the light phase.  The exit
// status is 1 when any request failed or disagreed with its oracle, 2
// when the benchmark itself could not run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

// metric names one reported number and its unit.
type metric struct{ name, unit string }

// endToEnd are the numbers a user of esd or es sees.  fail_frac is
// reported with them but kept out of the JSON summary, which carries the
// same information as its attempted and failed counts.
var (
	endToEnd = []metric{
		{"setup_s", "s"},
		{"lat_p50_us", "us"},
		{"lat_p90_us", "us"},
		{"throughput_rps", "req/s"},
		{"sat_p90_us", "us"},
		{"cpu_us_per_req", "us"},
		{"rss_mb", "MB"},
	}
	failFrac = metric{"fail_frac", "ratio"}
)

// perLayer are the traced run's numbers.  Every workload reports all of
// them; a layer the workload does not pass through reads 0.
var perLayer = []metric{
	{"client.write_us", "us"},
	{"client.wait_us", "us"},
	{"client.decode_us", "us"},
	{"server.exec_us", "us"},
	{"server.overhead_us", "us"},
	{"server.exec_p99_us", "us"},
	{"server.bytes_per_req", "bytes"},
	{"cache.parse_hit_ratio", "ratio"},
	{"cache.compile_hit_ratio", "ratio"},
	{"cache.decode_hit_ratio", "ratio"},
	{"cache.glob_hit_ratio", "ratio"},
	{"sess.dial_us", "us"},
	{"sess.restore_us", "us"},
	{"sess.eval_us", "us"},
	{"sess.snap_us", "us"},
	{"sess.bye_us", "us"},
	{"sess.image_bytes", "bytes"},
	{"proc.wall_us", "us"},
	{"proc.user_us", "us"},
	{"proc.sys_us", "us"},
	{"proc.parse_misses", "count"},
	{"syntax.parse_us", "us"},
	{"compile.lower_us", "us"},
	{"core.exec_us", "us"},
	{"core.spawn_us", "us"},
	{"core.spawn_bytes", "bytes"},
	{"image.capture_us", "us"},
	{"image.encode_us", "us"},
	{"image.decode_us", "us"},
	{"image.restore_us", "us"},
	{"image.bytes", "bytes"},
	{"server.frame_encode_us", "us"},
	{"server.frame_decode_us", "us"},
	{"startup.new_us", "us"},
	{"client.cpu_us_per_req", "us"},
	{"trace.overhead_frac", "ratio"},
}

var workloads = []string{"rpc_tiny", "rpc_script", "session_state", "shell_exec"}

// An untraced run makes rounds rounds, each on a fresh process: launches
// cold starts, a warm-up, then blocks of light and of saturated load in
// turn.  The host yardstick is read before and after every launch and
// block, and each launch's or block's times are divided by the mean of
// the two readings.  A round reports the median over its blocks and the
// run the median over rounds, so one process's luck (its heap, where its
// threads land) does not decide the result.
const (
	rounds   = 5
	launches = 4
	block    = 250 * time.Millisecond // the length a block aims at
)

// rpcWindow is how many evals each saturated rpc worker keeps in flight.
const rpcWindow = 16

func main() {
	os.Exit(run())
}

func run() int {
	var (
		names   = flag.String("workload", "all", "`workloads` to run: all, or a comma-separated list of "+strings.Join(workloads, ", "))
		seed    = flag.Int64("seed", 1, "input generation seed")
		seconds = flag.Float64("seconds", 15, "measured `seconds` per workload, split between light and saturated load")
		trace   = flag.String("trace", "", "run traced: print per-layer metrics and write spans to `dir`")
	)
	flag.Parse()
	selected := workloads
	if *names != "all" {
		selected = strings.Split(*names, ",")
		for _, w := range selected {
			if !slices.Contains(workloads, w) {
				fmt.Fprintf(os.Stderr, "esbench: unknown workload %q\n", w)
				return 2
			}
		}
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "esbench: -seconds must be positive")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "esbench:", err)
		return 2
	}
	b, err := newBench(config{root: root, seed: *seed, seconds: *seconds, traceDir: *trace})
	if err != nil {
		fmt.Fprintln(os.Stderr, "esbench:", err)
		return 2
	}
	defer b.close()

	status := 0
	var last *result
	for _, w := range selected {
		res, err := b.runWorkload(w)
		if err != nil {
			fmt.Fprintf(os.Stderr, "esbench: %s: %v\n", w, err)
			return 2
		}
		res.print(os.Stdout)
		if res.failed > 0 {
			status = 1
		}
		last = res
	}
	if len(selected) == 1 {
		line, err := last.summary()
		if err != nil {
			fmt.Fprintln(os.Stderr, "esbench:", err)
			return 2
		}
		fmt.Println(line)
	}
	return status
}

// findRoot walks up from the working directory to the checkout holding
// cmd/esd.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "esd")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no enclosing checkout with cmd/esd and go.mod")
		}
		dir = parent
	}
}

type config struct {
	root     string // the checkout to build and run
	seed     int64
	seconds  float64
	traceDir string // "" for an untraced run
}

// bench holds the built programs and the run directory.
type bench struct {
	cfg  config
	es   string
	esd  string
	dir  string // removed at close
	host *yardstick
}

// newBench builds es and esd under the checkout's .bench_build.
func newBench(cfg config) (*bench, error) {
	out := filepath.Join(cfg.root, ".bench_build")
	bin := filepath.Join(out, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return nil, err
	}
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/es", "./cmd/esd")
	build.Dir, build.Stdout, build.Stderr = cfg.root, os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		return nil, fmt.Errorf("building es and esd: %w", err)
	}
	host, err := newYardstick()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return nil, err
	}
	return &bench{cfg: cfg, es: filepath.Join(bin, "es"), esd: filepath.Join(bin, "esd"), dir: dir, host: host}, nil
}

func (b *bench) close() { os.RemoveAll(b.dir) }

// result is one workload's report.
type result struct {
	workload  string
	digest    string
	traced    bool
	values    map[string]float64
	notes     []string
	attempted int
	failed    int
	errs      []string
}

// count folds a phase's request counts into the report.
func (r *result) count(p *phase) {
	a, f, errs := p.counts()
	r.attempted += a
	r.failed += f
	r.errs = append(r.errs, errs...)
}

// runWorkload runs one workload, traced or not.
func (b *bench) runWorkload(name string) (*result, error) {
	in, err := genInputs(name, b.cfg.seed)
	if err != nil {
		return nil, err
	}
	res := &result{workload: name, digest: in.digest(), traced: b.cfg.traceDir != "", values: make(map[string]float64)}
	dir, err := os.MkdirTemp(b.dir, name+"-")
	if err != nil {
		return nil, err
	}
	for file, content := range in.files {
		if err := os.WriteFile(filepath.Join(dir, file), []byte(content), 0o644); err != nil {
			return nil, err
		}
	}
	var s sut
	window := 1
	switch name {
	case "shell_exec":
		s = newShellSUT(b.es, dir, append(runDirEnv(dir), in.env...), in)
	default:
		sock, err := relSock(dir)
		if err != nil {
			return nil, err
		}
		if s, err = newEsdSUT(b.esd, dir, sock, runDirEnv(dir), in); err != nil {
			return nil, err
		}
		if strings.HasPrefix(name, "rpc_") {
			window = rpcWindow
		}
	}
	defer s.close()

	total := time.Duration(b.cfg.seconds * float64(time.Second))
	if res.traced {
		err = b.traced(res, s, in, dir, window, total)
	} else {
		err = b.untraced(res, s, window, total)
	}
	if err != nil {
		return nil, err
	}
	if res.attempted > 0 {
		res.values[failFrac.name] = float64(res.failed) / float64(res.attempted)
	}
	return res, nil
}

// untraced measures the end-to-end metrics.  Each round spends one
// rounds-th of the total measured time in blocks, half light and half
// saturated; its warm-up adds two fifteenths of that.  setup_s is the
// median over every launch of the run; every other metric is the median
// over rounds of each round's value.
func (b *bench) untraced(res *result, s sut, window int, total time.Duration) error {
	pairs := max(1, int(math.Round(float64(total)/float64(rounds*2*block))))
	d := total / time.Duration(rounds*2*pairs)
	var setups []float64
	byRound := make(map[string][]float64)
	light, sat := 0, 0
	b.host.readings = nil
	epoch := time.Now()
	for k := 0; k < rounds; k++ {
		before, err := b.host.read()
		if err != nil {
			return err
		}
		for j := 0; j < launches; j++ {
			setup, err := s.launch()
			if err != nil {
				return fmt.Errorf("launch: %w", err)
			}
			after, err := b.host.read()
			if err != nil {
				return err
			}
			setups = append(setups, setup.Seconds()/((before+after)/2))
			before = after
		}
		warm, err := runPhase(s, "warmup", 2, window, total*2/15/rounds, epoch, false)
		if err != nil {
			return err
		}
		res.count(warm)
		r, err := b.round(res, s, window, pairs, d, epoch)
		if err != nil {
			return err
		}
		for name, x := range r.values {
			byRound[name] = append(byRound[name], x)
		}
		light += r.light
		sat += r.sat
	}
	res.values["setup_s"] = quantile(setups, 0.5)
	for name, xs := range byRound {
		res.values[name] = quantile(xs, 0.5)
	}
	res.notes = append(res.notes,
		fmt.Sprintf("%d rounds of %d light and %d saturated blocks of %v: light samples %d, saturated samples %d, launches %d",
			rounds, pairs, pairs, d, light, sat, len(setups)),
		fmt.Sprintf("host slowness %.3f (quartiles %.3f-%.3f over %d readings): times are divided by it, throughputs multiplied",
			quantile(b.host.readings, 0.5), quantile(b.host.readings, 0.25), quantile(b.host.readings, 0.75), len(b.host.readings)))
	return nil
}

// roundResult is one round's value of each end-to-end metric but
// setup_s, and its sample counts.
type roundResult struct {
	values     map[string]float64
	light, sat int
}

// round runs pairs light blocks and pairs saturated blocks of length d in
// turn on the process launched last, and reduces them to the medians over
// blocks of their host-divided values.
func (b *bench) round(res *result, s sut, window, pairs int, d time.Duration, epoch time.Time) (*roundResult, error) {
	light, err := openLoad(s, "light", 1, 1, epoch, false)
	if err != nil {
		return nil, err
	}
	defer light.close()
	sat, err := openLoad(s, "saturated", 2, window, epoch, false)
	if err != nil {
		return nil, err
	}
	defer sat.close()
	r := &roundResult{}
	var p50s, p90s, tputs, sp90s, cpus []float64
	before, err := b.host.read()
	if err != nil {
		return nil, err
	}
	for j := 0; j < pairs; j++ {
		lp, err := light.run(d)
		if err != nil {
			return nil, err
		}
		res.count(lp)
		between, err := b.host.read()
		if err != nil {
			return nil, err
		}
		sp, err := sat.run(d)
		if err != nil {
			return nil, err
		}
		res.count(sp)
		after, err := b.host.read()
		if err != nil {
			return nil, err
		}
		// A block with no correct reply has nothing to measure; its
		// failures are already counted.
		if lat := lp.lat(); len(lat) > 0 {
			slow := (before + between) / 2
			p50s = append(p50s, quantile(lat, 0.5)/slow)
			p90s = append(p90s, quantile(lat, 0.9)/slow)
			r.light += len(lat)
		}
		if lat := sp.lat(); len(lat) > 0 {
			slow := (between + after) / 2
			tputs = append(tputs, sp.throughput()*slow)
			sp90s = append(sp90s, quantile(lat, 0.9)/slow)
			cpus = append(cpus, sp.perReq(sp.cpu)/slow)
			r.sat += len(lat)
		}
		before = after
	}
	rss, err := s.peakRSS()
	if err != nil {
		return nil, err
	}
	r.values = map[string]float64{
		"lat_p50_us":     quantile(p50s, 0.5),
		"lat_p90_us":     quantile(p90s, 0.5),
		"throughput_rps": quantile(tputs, 0.5),
		"sat_p90_us":     quantile(sp90s, 0.5),
		"cpu_us_per_req": quantile(cpus, 0.5),
		"rss_mb":         rss,
	}
	return r, nil
}

// traced measures the per-layer metrics on one launch: a warm-up, a
// traced light phase, the saturated phase split into an untraced and a
// traced half, and the in-process probe.
func (b *bench) traced(res *result, s sut, in *inputs, dir string, window int, total time.Duration) error {
	if _, err := s.launch(); err != nil {
		return fmt.Errorf("launch: %w", err)
	}
	epoch := time.Now()
	warm, err := runPhase(s, "warmup", 2, window, total*2/15, epoch, false)
	if err != nil {
		return err
	}
	res.count(warm)
	light, saturated := total/3, total-total/3
	esd, _ := s.(*esdSUT)
	var stats0 map[string]float64
	var caches0 map[string][2]float64
	if esd != nil {
		if stats0, caches0, err = esd.counters(); err != nil {
			return err
		}
	}
	lp, err := runPhase(s, "light", 1, 1, light, epoch, true)
	if err != nil {
		return err
	}
	res.count(lp)
	su, err := runPhase(s, "saturated_untraced", 2, window, saturated/2, epoch, false)
	if err != nil {
		return err
	}
	res.count(su)
	st, err := runPhase(s, "saturated", 2, window, saturated/2, epoch, true)
	if err != nil {
		return err
	}
	res.count(st)

	v := res.values
	obs := merged(lp.bufs)
	v["client.write_us"] = mean(obs["client.write"])
	v["client.wait_us"] = mean(obs["client.wait"])
	v["client.decode_us"] = mean(obs["client.decode"])
	v["server.exec_us"] = mean(obs["server.exec"])
	v["server.exec_p99_us"] = quantile(obs["server.exec"], 0.99)
	for _, step := range []string{"dial", "restore", "eval", "snap", "bye"} {
		v["sess."+step+"_us"] = mean(obs["sess."+step])
	}
	v["sess.image_bytes"] = mean(obs["sess.image_bytes"])
	switch {
	case len(obs["client.wait"]) > 0:
		v["server.overhead_us"] = v["client.wait_us"] - v["server.exec_us"]
	case len(obs["sess.eval"]) > 0:
		v["server.overhead_us"] = v["sess.eval_us"] - v["server.exec_us"]
	}
	v["proc.wall_us"] = mean(obs["proc.wall"])
	v["proc.user_us"] = mean(obs["proc.user"])
	v["proc.sys_us"] = mean(obs["proc.sys"])
	v["proc.parse_misses"] = mean(obs["cache.parse.misses"])

	caches := make(map[string][2]float64)
	if esd != nil {
		stats1, caches1, err := esd.counters()
		if err != nil {
			return err
		}
		served := lp.completed() + su.completed() + st.completed()
		if served > 0 {
			bytes := stats1["bytes_in"] + stats1["bytes_out"] - stats0["bytes_in"] - stats0["bytes_out"]
			v["server.bytes_per_req"] = bytes / float64(served)
		}
		for name, c1 := range caches1 {
			c0 := caches0[name]
			caches[name] = [2]float64{c1[0] - c0[0], c1[1] - c0[1]}
		}
	} else {
		all := merged(slices.Concat(lp.bufs, st.bufs))
		for _, name := range []string{"parse", "compile", "decode", "glob"} {
			caches[name] = [2]float64{sum(all["cache."+name+".hits"]), sum(all["cache."+name+".misses"])}
		}
	}
	for _, name := range []string{"parse", "compile", "decode", "glob"} {
		if c := caches[name]; c[0]+c[1] > 0 {
			v["cache."+name+"_hit_ratio"] = c[0] / (c[0] + c[1])
		}
	}
	v["client.cpu_us_per_req"] = su.perReq(su.clientCPU)
	if tu := su.throughput(); tu > 0 {
		v["trace.overhead_frac"] = 1 - st.throughput()/tu
	}

	probed, err := probe(in, dir, time.Duration(b.cfg.seconds*float64(time.Second))/60)
	if err != nil {
		return err
	}
	for name, x := range probed {
		v[name] = x
	}
	path, err := writeSpans(b.cfg.traceDir, res.workload, b.cfg.seed, slices.Concat(lp.bufs, st.bufs))
	if err != nil {
		return err
	}
	res.notes = append(res.notes, "spans written to "+path)
	return nil
}

// metrics is the list the report prints: end-to-end or per-layer.
func (r *result) metrics() []metric {
	if r.traced {
		return perLayer
	}
	return append(slices.Clone(endToEnd), failFrac)
}

func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "# %s inputs sha256:%s\n", r.workload, r.digest)
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s %s\n", r.workload, n)
	}
	for _, m := range r.metrics() {
		fmt.Fprintf(w, "%s %s %.6g %s\n", r.workload, m.name, r.values[m.name], m.unit)
	}
	fmt.Fprintf(w, "# %s attempted %d failed %d\n", r.workload, r.attempted, r.failed)
	for _, e := range r.errs {
		fmt.Fprintf(w, "# %s failure: %s\n", r.workload, e)
	}
}

// summary is the one-line JSON report of a single workload's run.
func (r *result) summary() (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value)
	for _, m := range r.metrics() {
		if m == failFrac {
			continue
		}
		x := r.values[m.name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return "", fmt.Errorf("%s %s is %v", r.workload, m.name, x)
		}
		ms[m.name] = value{x, m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, ms})
	return string(b), err
}
