package main

// Seeded input generation and the Go oracles that check every reply.
// Nothing here evaluates es: each expected value is computed from the
// same parameters the generator used to write the script, so a reply is
// checked against Go, never against another run of the shell.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"sort"
	"strconv"
	"strings"
)

// evalCase is one request and the reply the oracle expects for it.
type evalCase struct {
	Src    string
	Value  []string // expected result words (esd workloads)
	Stdout string   // expected standard output
}

// inputs is everything one workload's run sends, generated from the seed.
type inputs struct {
	workload string
	seed     int64
	cases    []evalCase
	cdf      []float64         // when set, cases are drawn Zipf-skewed by rank
	env      []string          // extra environment for es: shell_exec's fn- closures
	initSrc  string            // session_state: builds the state every chain starts from
	files    map[string]string // files the requests read, by name in the run directory
}

// genInputs builds the inputs of one workload.
func genInputs(workload string, seed int64) (*inputs, error) {
	in := &inputs{workload: workload, seed: seed}
	r := rand.New(rand.NewPCG(uint64(seed), streamKey(workload, 0)))
	switch workload {
	case "rpc_tiny":
		in.cases = genTiny(r)
	case "rpc_script":
		in.cases = genScripts(r, scriptVariants)
		in.cdf = zipfCDF(len(in.cases))
	case "session_state":
		in.initSrc, in.cases = genSession(r)
	case "shell_exec":
		in.env, in.files, in.cases = genShell(r)
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	return in, nil
}

// streamKey separates the generator of a workload's inputs (worker 0)
// from the request stream of each load worker (worker k+1).
func streamKey(workload string, worker int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(workload))
	return h.Sum64() + uint64(worker)
}

// stream is the request stream of load worker k: the same seed draws the
// same sequence of requests, however fast the system answers them.
func (in *inputs) stream(k int) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(in.seed), streamKey(in.workload, k+1)))
}

// pick draws the index of the next request's case.
func (in *inputs) pick(r *rand.Rand) int {
	if in.cdf != nil {
		return sort.SearchFloat64s(in.cdf, r.Float64())
	}
	return r.IntN(len(in.cases))
}

// digest fingerprints the generated inputs, including the head of each
// worker's request stream.
func (in *inputs) digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%q\n%q\n", in.workload, in.env, in.initSrc)
	for _, c := range in.cases {
		fmt.Fprintf(h, "%q %q %q\n", c.Src, c.Value, c.Stdout)
	}
	names := make([]string, 0, len(in.files))
	for name := range in.files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(h, "%q %q\n", name, in.files[name])
	}
	for k := 0; k < 2; k++ {
		r := in.stream(k)
		for n := 0; n < 256; n++ {
			fmt.Fprintf(h, "%d ", in.pick(r))
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Words use consonants and digits only, so no generated word is an es
// keyword, a glob metacharacter or a word that needs quoting.  The seed
// picks which words appear, never how many or how long: every list
// length, family mix and word count below is fixed, so runs with
// different seeds do the same amount of work.
const (
	letters = "bcdfghjkmnpqrstvwxz"
	alnum   = letters + "0123456789"
)

// wordLen is the length of every generated word.
const wordLen = 6

func word(r *rand.Rand) string {
	b := make([]byte, wordLen)
	b[0] = letters[r.IntN(len(letters))]
	for k := 1; k < len(b); k++ {
		b[k] = alnum[r.IntN(len(alnum))]
	}
	return string(b)
}

// wordWithout draws a word that does not contain c.
func wordWithout(r *rand.Rand, c byte) string {
	for {
		if w := word(r); strings.IndexByte(w, c) < 0 {
			return w
		}
	}
}

func words(r *rand.Rand, n int) []string {
	ws := make([]string, n)
	for k := range ws {
		ws[k] = word(r)
	}
	return ws
}

// genTiny makes the 64 rpc_tiny commands: each hits the parse and compile
// caches after its first use and executes in well under a microsecond, so
// the serving path dominates the round trip.
func genTiny(r *rand.Rand) []evalCase {
	cs := make([]evalCase, 64)
	for k := range cs {
		a, b, c := word(r), word(r), word(r)
		switch k % 4 {
		case 0:
			cs[k] = evalCase{Src: fmt.Sprintf("x%d = %s; result $x%d", k, a, k), Value: []string{a}}
		case 1:
			cs[k] = evalCase{Src: fmt.Sprintf("result %s %s", a, b), Value: []string{a, b}}
		case 2:
			cs[k] = evalCase{Src: fmt.Sprintf("x%d = %s %s %s; result $x%d(2)", k, a, b, c, k), Value: []string{b}}
		case 3:
			cs[k] = evalCase{Src: fmt.Sprintf("x%d = %s %s; result $#x%d", k, a, b, k), Value: []string{"2"}}
		}
	}
	return cs
}

// scriptVariants is four times esd's 512-entry parse cache, so a
// Zipf-skewed draw over them both hits and misses the cache.
const scriptVariants = 2048

// genScripts makes n distinct higher-order programs; one in four also
// runs a builtin pipeline.  Family and pipeline follow the rank, so the
// head of the Zipf draw has the same mix whatever the seed.
func genScripts(r *rand.Rand, n int) []evalCase {
	seen := make(map[string]bool, n)
	cs := make([]evalCase, 0, n)
	for len(cs) < n {
		var c evalCase
		rank := len(cs)
		switch rank % 4 {
		case 0:
			c = genMapFilterFold(r)
		case 1:
			c = genSubscripts(r)
		case 2:
			c = genMatch(r)
		case 3:
			c = genCurry(r)
		}
		if rank/4%4 == 0 {
			c = withPipeline(r, c)
		}
		if !seen[c.Src] {
			seen[c.Src] = true
			cs = append(cs, c)
		}
	}
	return cs
}

// genMapFilterFold: filter by a ~ pattern, map a prefix, fold with ^.
// Four of the twelve words pass the filter.
func genMapFilterFold(r *rand.Rand) evalCase {
	kc := alnum[r.IntN(len(alnum))]
	k := string(kc)
	xs := make([]string, 12)
	for i := range xs {
		xs[i] = wordWithout(r, kc)
	}
	for _, i := range r.Perm(len(xs))[:4] {
		b := []byte(xs[i])
		b[1+r.IntN(wordLen-1)] = kc
		xs[i] = string(b)
	}
	pfx, seed := word(r), word(r)
	acc := seed
	for _, x := range xs {
		if strings.Contains(x, k) {
			acc += "." + pfx + x
		}
	}
	src := fmt.Sprintf("let (map = @ f l {let (acc = ) {for (x = $l) {acc = $acc <={$f $x}}; result $acc}}; "+
		"filter = @ p l {let (acc = ) {for (x = $l) {if {$p $x} {acc = $acc $x}}; result $acc}}; "+
		"fold = @ f a l {for (x = $l) {a = <={$f $a $x}}; result $a}) "+
		"{result <={$fold @ a b {result $a^.^$b} %s <={$map @ x {result %s^$x} <={$filter @ x {~ $x *%s*} %s}}}}",
		seed, pfx, k, strings.Join(xs, " "))
	return evalCase{Src: src, Value: []string{acc}}
}

// genSubscripts: local and let bindings, $#, subscripts and distributive
// concatenation.
func genSubscripts(r *rand.Rand) evalCase {
	xs := words(r, 10)
	n := len(xs)
	idx := r.Perm(n)[:3]
	pfx := word(r)
	var value []string
	for _, i := range idx {
		value = append(value, xs[i]+"-"+strconv.Itoa(n))
	}
	value = append(value, xs[n-1], pfx+xs[0])
	src := fmt.Sprintf("local (v = %s) {let (h = $v(%d %d %d); n = $#v) {result $h^-^$n $v($n) <={result %s^$v(1)}}}",
		strings.Join(xs, " "), idx[0]+1, idx[1]+1, idx[2]+1, pfx)
	return evalCase{Src: src, Value: value}
}

// genMatch: a closure dispatching on ~ patterns, applied over a list.
func genMatch(r *rand.Rand) evalCase {
	xs := words(r, 10)
	p1 := string(letters[r.IntN(len(letters))])
	p2 := string(alnum[r.IntN(len(alnum))])
	l1, l2 := xs[r.IntN(len(xs))], xs[r.IntN(len(xs))]
	var value []string
	for _, w := range xs {
		switch {
		case strings.HasPrefix(w, p1):
			value = append(value, "A"+w)
		case strings.HasSuffix(w, p2):
			value = append(value, "B")
		case w == l1 || w == l2:
			value = append(value, "C")
		default:
			value = append(value, "D")
		}
	}
	src := fmt.Sprintf("let (cls = @ w {if {~ $w %s*} {result A^$w} {~ $w *%s} {result B} {~ $w (%s %s)} {result C} {result D}}; out = ) "+
		"{for (w = %s) {out = $out <={$cls $w}}; result $out}",
		p1, p2, l1, l2, strings.Join(xs, " "))
	return evalCase{Src: src, Value: value}
}

// genCurry: closures returned from closures, and a higher-order twice.
func genCurry(r *rand.Rand) evalCase {
	p, q, a, b, c := word(r), word(r), word(r), word(r), word(r)
	src := fmt.Sprintf("let (mk = @ p {result @ x {result $p^$x}}; twice = @ f x {$f <={$f $x}}) "+
		"{let (f = <={$mk %s}; g = <={$mk %s}) {result <={$f %s} <={$twice $g %s} <={$f <={$g %s}}}}",
		p, q, a, b, c)
	return evalCase{Src: src, Value: []string{p + a, q + q + b, p + q + c}}
}

// withPipeline prefixes a word count through the builtin text tools.
func withPipeline(r *rand.Rand, c evalCase) evalCase {
	vocab := words(r, 5)
	ws := make([]string, 12)
	for k := range ws {
		ws[k] = vocab[r.IntN(len(vocab))]
	}
	c.Src = fmt.Sprintf("echo %s | tr ' ' '\\012' | sort | uniq -c | sed 3q; %s", strings.Join(ws, " "), c.Src)
	c.Stdout = wordCounts(ws, false, 3)
	return c
}

// wordCounts renders `sort | uniq -c` output (or, with byCount, `sort |
// uniq -c | sort -nr`) truncated to limit lines.  By-count order is only
// defined when the counts within the limit are distinct.
func wordCounts(ws []string, byCount bool, limit int) string {
	counts := make(map[string]int)
	for _, w := range ws {
		counts[w]++
	}
	keys := make([]string, 0, len(counts))
	for w := range counts {
		keys = append(keys, w)
	}
	sort.Strings(keys)
	if byCount {
		sort.SliceStable(keys, func(a, b int) bool { return counts[keys[a]] > counts[keys[b]] })
	}
	if len(keys) > limit {
		keys = keys[:limit]
	}
	var b strings.Builder
	for _, w := range keys {
		fmt.Fprintf(&b, "%7d %s\n", counts[w], w)
	}
	return b.String()
}

// zipfCDF is the cumulative distribution of a Zipf law with s = 1 over n
// ranks.
func zipfCDF(n int) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += 1 / float64(k+1)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	cdf[n-1] = 1
	return cdf
}

// closure is a function whose body concatenates captured words around its
// argument: %closure(p=P)@ x {result $p^$x} or, with Q, $p^$x^$q.
type closure struct{ p, q string }

func genClosure(r *rand.Rand, k int) closure {
	c := closure{p: word(r)}
	if k%2 == 1 {
		c.q = word(r)
	}
	return c
}

func (c closure) apply(x string) string { return c.p + x + c.q }

// define is the es source defining the closure as function name.
func (c closure) define(name string) string {
	if c.q == "" {
		return fmt.Sprintf("let (p = %s) fn %s x {result $p^$x}", c.p, name)
	}
	return fmt.Sprintf("let (p = %s; q = %s) fn %s x {result $p^$x^$q}", c.p, c.q, name)
}

// environ is the closure as the environment carries function name: the
// paper's %closure encoding.
func (c closure) environ(name string) string {
	if c.q == "" {
		return fmt.Sprintf("fn-%s=%%closure(p=%s)@ x {result $p^$x}", name, c.p)
	}
	return fmt.Sprintf("fn-%s=%%closure(p=%s;q=%s)@ x {result $p^$x^$q}", name, c.p, c.q)
}

// sessionVars and sessionClosures size the state a session_state image
// carries.
const (
	sessionVars     = 16
	sessionClosures = 16
	sessionWords    = 6
)

// genSession builds the state script and 256 step requests.  A request's
// Src is the argument list of the step helper; Value holds what the called
// closure returns.  The worker adds the gen values it reads and writes.
func genSession(r *rand.Rand) (string, []evalCase) {
	cls := make([]closure, sessionClosures)
	vars := make([][]string, sessionVars)
	var b strings.Builder
	for k := range cls {
		cls[k] = genClosure(r, k)
		b.WriteString(cls[k].define(fmt.Sprintf("f%d", k)) + "\n")
	}
	for k := range vars {
		vars[k] = words(r, sessionWords)
		fmt.Fprintf(&b, "v%d = %s\n", k, strings.Join(vars[k], " "))
	}
	b.WriteString("fn step new f a {let (old = $gen) {gen = $new; result $old <={$f $a}}}\n")
	cs := make([]evalCase, 256)
	for n := range cs {
		k, j, i := r.IntN(sessionClosures), r.IntN(sessionVars), r.IntN(sessionWords)
		cs[n] = evalCase{
			Src:   fmt.Sprintf("f%d $v%d(%d)", k, j, i+1),
			Value: []string{cls[k].apply(vars[j][i])},
		}
	}
	return b.String(), cs
}

// genName is the gen value session n of worker k's chain writes.
func genName(worker, n int) string { return fmt.Sprintf("g%dn%d", worker, n) }

// shellClosures is how many fn- closures every es -c child imports.
const shellClosures = 24

// corpusFile is the Figure 1 input, written into the run directory.
const corpusFile = "corpus.txt"

// genShell builds the environment's closures, the corpus and 64 scripts.
func genShell(r *rand.Rand) ([]string, map[string]string, []evalCase) {
	cls := make([]closure, shellClosures)
	env := make([]string, shellClosures)
	for k := range cls {
		cls[k] = genClosure(r, k)
		env[k] = cls[k].environ(fmt.Sprintf("h%d", k))
	}
	corpus, top := genCorpus(r)
	cs := make([]evalCase, 64)
	for n := range cs {
		var calls, outs []string
		for c := 0; c < 3; c++ {
			k, arg := r.IntN(shellClosures), word(r)
			calls = append(calls, fmt.Sprintf("<={h%d %s}", k, arg))
			outs = append(outs, cls[k].apply(arg))
		}
		cs[n] = evalCase{
			Src: "echo " + strings.Join(calls, " ") + "; cat " + corpusFile +
				" | tr -cs a-zA-Z0-9 '\\012' | sort | uniq -c | sort -nr | sed 6q",
			Stdout: strings.Join(outs, " ") + "\n" + top,
		}
	}
	return env, map[string]string{corpusFile: corpus}, cs
}

// genCorpus writes 1720 words of punctuated text over a 300-word
// vocabulary.  The seven most frequent words have distinct counts, each
// above every other word's, so the top six lines of `sort -nr` cannot
// depend on how sort orders ties.
func genCorpus(r *rand.Rand) (string, string) {
	seen := make(map[string]bool)
	var vocab []string
	for len(vocab) < 300 {
		if w := word(r); !seen[w] {
			seen[w] = true
			vocab = append(vocab, w)
		}
	}
	var tokens []string
	for k, w := range vocab {
		n := 1 + k%8
		if k < 7 {
			n = 70 - 4*k
		}
		for ; n > 0; n-- {
			tokens = append(tokens, w)
		}
	}
	r.Shuffle(len(tokens), func(a, b int) { tokens[a], tokens[b] = tokens[b], tokens[a] })
	seps := []string{" ", ", ", " - ", "; ", "  "}
	var b strings.Builder
	for k, w := range tokens {
		b.WriteString(w)
		if k == len(tokens)-1 || k%12 == 11 {
			b.WriteString(".\n")
		} else {
			b.WriteString(seps[r.IntN(len(seps))])
		}
	}
	return b.String(), wordCounts(tokens, true, 6)
}
