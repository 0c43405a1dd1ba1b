package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func TestInputDigest(t *testing.T) {
	for _, w := range workloads {
		a, err := genInputs(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := genInputs(w, 1)
		c, _ := genInputs(w, 2)
		if a.digest() != b.digest() {
			t.Errorf("%s: seed 1 gave digests %s and %s", w, a.digest(), b.digest())
		}
		if a.digest() == c.digest() {
			t.Errorf("%s: seeds 1 and 2 share digest %s", w, a.digest())
		}
	}
}

// BENCHMARK.json names the workloads and metrics esbench reports.
func TestBenchmarkJSON(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, esbench runs %v", names, workloads)
	}
	for _, c := range []struct {
		listed []struct{ Name, Unit string }
		want   []metric
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.listed) != len(c.want) {
			t.Errorf("BENCHMARK.json lists %d metrics, esbench reports %d", len(c.listed), len(c.want))
			continue
		}
		for k, m := range c.want {
			if c.listed[k].Name != m.name || c.listed[k].Unit != m.unit {
				t.Errorf("BENCHMARK.json metric %d is %v, esbench reports %v", k, c.listed[k], m)
			}
		}
	}
}

// The shell_exec oracle checks the top six lines of `sort -nr`, which is
// only well defined when sort's tie order cannot reach them.
func TestCorpusTopCountsDistinct(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		in, err := genInputs("shell_exec", seed)
		if err != nil {
			t.Fatal(err)
		}
		counts := make(map[string]int)
		for _, w := range strings.FieldsFunc(in.files[corpusFile], func(r rune) bool {
			return !strings.ContainsRune(alnum, r)
		}) {
			counts[w]++
		}
		var cs []int
		for _, c := range counts {
			cs = append(cs, c)
		}
		sort.Sort(sort.Reverse(sort.IntSlice(cs)))
		for k := 1; k < 8; k++ {
			if cs[k-1] <= cs[k] {
				t.Errorf("seed %d: count %d of rank %d is not above rank %d's %d", seed, cs[k-1], k, k+1, cs[k])
			}
		}
	}
}

// active lists, per workload, the per-layer metrics its requests must
// move off zero; the in-process probe's metrics apply to every workload.
var active = map[string][]string{
	"rpc_tiny":      {"client.write_us", "client.wait_us", "client.decode_us", "server.exec_us", "server.overhead_us", "server.bytes_per_req", "cache.parse_hit_ratio"},
	"rpc_script":    {"client.wait_us", "server.exec_us", "server.exec_p99_us", "cache.parse_hit_ratio", "cache.compile_hit_ratio"},
	"session_state": {"sess.dial_us", "sess.restore_us", "sess.eval_us", "sess.snap_us", "sess.bye_us", "sess.image_bytes", "server.bytes_per_req"},
	"shell_exec":    {"proc.wall_us", "proc.user_us", "proc.parse_misses", "cache.parse_hit_ratio"},
}

var probed = []string{"syntax.parse_us", "compile.lower_us", "core.exec_us", "core.spawn_us", "core.spawn_bytes",
	"image.capture_us", "image.encode_us", "image.decode_us", "image.restore_us", "image.bytes",
	"server.frame_encode_us", "server.frame_decode_us", "startup.new_us", "client.cpu_us_per_req"}

// TestSmoke runs every workload with short phases, untraced and traced.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts esd and es processes")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	traceDir := t.TempDir()
	b, err := newBench(config{root: root, seed: 1, seconds: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	for _, traced := range []bool{false, true} {
		if traced {
			b.cfg.traceDir = traceDir
		}
		for _, w := range workloads {
			res, err := b.runWorkload(w)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if res.failed > 0 || res.attempted == 0 || res.values[failFrac.name] != 0 {
				t.Errorf("%s traced=%v: %d of %d requests failed: %q", w, traced, res.failed, res.attempted, res.errs)
			}
			line, err := res.summary()
			if err != nil {
				t.Fatal(err)
			}
			var sum struct {
				Correct bool
				Metrics map[string]struct{ Value float64 }
			}
			if err := json.Unmarshal([]byte(line), &sum); err != nil || !sum.Correct {
				t.Errorf("%s: summary %s: %v", w, line, err)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			for _, m := range want {
				if _, ok := sum.Metrics[m.name]; !ok {
					t.Errorf("%s: summary lacks %s", w, m.name)
				}
			}
			nonzero := []string{}
			for _, m := range endToEnd {
				nonzero = append(nonzero, m.name)
			}
			if traced {
				nonzero = append(active[w], probed...)
			}
			for _, name := range nonzero {
				if sum.Metrics[name].Value <= 0 {
					t.Errorf("%s traced=%v: %s = %v, want > 0", w, traced, name, sum.Metrics[name].Value)
				}
			}
			if traced {
				data, err := os.ReadFile(filepath.Join(traceDir, "spans-"+w+".json"))
				if err != nil {
					t.Fatal(err)
				}
				var file struct{ Spans []span }
				if err := json.Unmarshal(data, &file); err != nil || len(file.Spans) == 0 {
					t.Errorf("%s: span file holds %d spans: %v", w, len(file.Spans), err)
				}
			}
		}
	}
}
