package image

import (
	"bytes"
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"es/internal/core"
)

var update = flag.Bool("update", false, "regenerate testdata/golden.esimg")

// raceEnabled is set under the race detector, which makes sync.Pool drop
// a random quarter of what is put back.
var raceEnabled bool

// richInterp builds an interpreter exercising every kind of definable
// state an image must carry: plain and multi-word variables, noexport
// marks, phantom marks, the null/empty-string distinction, functions
// with (nested) captures, a settor, and a spoofed % hook.
func richInterp(t testing.TB) *core.Interp {
	t.Helper()
	i := core.New()
	i.SetDir("/tmp")
	i.SetVarRaw("greeting", core.StrList("hello", "wor ld"))
	i.SetVarRaw("secret", core.StrList("hunter2"))
	i.SetNoExport("secret")
	i.SetNoExport("phantom-mark")
	i.SetVarRaw("null", core.List{})
	i.SetVarRaw("empty", core.StrList(""))
	setClosure(t, i, "fn-greet", "@ who {echo hi $who}")
	setClosure(t, i, "fn-outer", "%closure(inner=%closure(n=5)@ * {echo $n})@ * {$inner}")
	setClosure(t, i, "set-watched", "@ {result $*}")
	setClosure(t, i, "fn-%pathsearch", "@ name {result /spoofed/$name}")
	return i
}

// setClosure decodes src, which must be one closure, and assigns it.
func setClosure(t testing.TB, i *core.Interp, name, src string) {
	t.Helper()
	val := i.DecodeValue(name, src)
	if len(val) != 1 || val[0].Closure == nil {
		t.Fatalf("decode %q failed: %v", src, val)
	}
	i.SetVarRaw(name, val)
}

// sessionInterp holds the state of an esd session_state image: 16
// closures made by let, each with its own captured words, 16 variables
// of six words, and the step function that a session runs.
func sessionInterp(t testing.TB) *core.Interp {
	t.Helper()
	i := core.New()
	i.SetDir("/srv/es")
	for k := 0; k < 16; k++ {
		setClosure(t, i, fmt.Sprintf("fn-f%d", k), fmt.Sprintf("%%closure(p=p%d;q=q%d)@ x {result $p^$x^$q}", k, k))
		i.SetVarRaw(fmt.Sprintf("v%d", k), core.StrList("alpha", "beta", "gamma", "delta", "eps"+strconv.Itoa(k), "zeta"))
	}
	setClosure(t, i, "fn-step", "@ new f a {let (old = $gen) {gen = $new; result $old <={$f $a}}}")
	i.SetVarRaw("gen", core.StrList("g0n0"))
	return i
}

// The differential battery: snapshot -> restore -> re-snapshot must be
// byte-identical, both while the restored slots are still lazy and after
// every value has been force-decoded (encode(decode(x)) == x).
func TestImageRoundTripBattery(t *testing.T) {
	a := richInterp(t)
	first := Capture(a, nil).Encode()

	img, err := Decode(first)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	b := core.New()
	img.Restore(b)
	if got := Capture(b, nil).Encode(); !bytes.Equal(first, got) {
		t.Errorf("lazy re-snapshot differs:\n%s\n----\n%s", first, got)
	}
	for _, name := range b.VarNames() {
		b.Var(name)
	}
	if got := Capture(b, nil).Encode(); !bytes.Equal(first, got) {
		t.Errorf("decoded re-snapshot differs:\n%s\n----\n%s", first, got)
	}

	// Restored state behaves: dir, marks, and the null distinction.
	if b.Dir() != "/tmp" {
		t.Errorf("dir = %q", b.Dir())
	}
	env := strings.Join(b.ExportEnv(), "\n")
	if strings.Contains(env, "secret") {
		t.Errorf("noexport mark lost: %v", env)
	}
	if !strings.Contains(env, "greeting=hello\x01wor ld") {
		t.Errorf("greeting missing from export: %v", env)
	}
	if got := b.Var("null"); len(got) != 0 {
		t.Errorf("null became %v", got)
	}
	if got := b.Var("empty"); len(got) != 1 || got[0].Str != "" {
		t.Errorf("empty string became %v", got)
	}
}

func TestImageMetaHeaders(t *testing.T) {
	a := core.New()
	a.SetVarRaw("x", core.StrList("1"))
	EsVersion = "es-test 0.0"
	defer func() { EsVersion = "" }()
	img := Capture(a, map[string]string{"origin": "sess-7", "multi": "two\nlines"})
	got, err := Decode(img.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Es != "es-test 0.0" {
		t.Errorf("es header = %q", got.Es)
	}
	if got.Meta["origin"] != "sess-7" || got.Meta["multi"] != "two\nlines" {
		t.Errorf("meta = %v", got.Meta)
	}
	// Meta ordering is canonical: two captures encode identically.
	if !bytes.Equal(img.Encode(), Capture(a, map[string]string{"multi": "two\nlines", "origin": "sess-7"}).Encode()) {
		t.Errorf("meta encoding not deterministic")
	}
}

// $pid is re-stamped on restore: process identity does not migrate.
func TestImagePidRestamp(t *testing.T) {
	img := &Image{Vars: []core.VarRecord{{Name: "pid", Value: "99999", NoExport: true}}}
	b := core.New()
	img.Restore(b)
	if got := b.Var("pid").Flatten(" "); got != strconv.Itoa(os.Getpid()) {
		t.Errorf("pid = %q, want current process", got)
	}
	if strings.Contains(strings.Join(b.ExportEnv(), "\n"), "pid=") {
		t.Errorf("pid noexport mark lost in re-stamp")
	}
}

func TestImageRejectsCorruption(t *testing.T) {
	enc := Capture(richInterp(t), nil).Encode()
	if _, err := Decode(enc); err != nil {
		t.Fatalf("control decode failed: %v", err)
	}
	// Flip one payload byte: the checksum must catch it.
	bad := bytes.Replace(enc, []byte("hunter2"), []byte("hunter3"), 1)
	if _, err := Decode(bad); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("corrupted image accepted (err = %v)", err)
	}
	// Every truncation point must be rejected, never misread.
	for n := 0; n < len(enc); n += 7 {
		if _, err := Decode(enc[:n]); err == nil {
			t.Errorf("truncation at %d accepted", n)
		}
	}
	// Trailing bytes after the trailer are rejected too.
	if _, err := Decode(append(append([]byte{}, enc...), "junk\n"...)); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing garbage accepted (err = %v)", err)
	}
	if _, err := Decode([]byte("not an image\n")); err == nil {
		t.Errorf("arbitrary bytes accepted")
	}
}

func TestImageRejectsNewerFormat(t *testing.T) {
	enc := Capture(core.New(), nil).Encode()
	bumped := bytes.Replace(enc, []byte("%esimg 1\n"), []byte("%esimg 2\n"), 1)
	_, err := Decode(bumped)
	if err == nil || !strings.Contains(err.Error(), "too new") {
		t.Errorf("newer format accepted (err = %v)", err)
	}
}

// A same-version image from a future writer may carry sections this
// reader has never heard of; they are skipped, not fatal.
func TestImageSkipsUnknownSection(t *testing.T) {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%%esimg 1\n")
	fmt.Fprintf(&b, "s vars 1\nr %d\n%s\n", len("- 1 x1"), "- 1 x1")
	fmt.Fprintf(&b, "s jobs 2\nr 5\nj1 %%1\nr 10\nj2 \x00binary\n")
	fmt.Fprintf(&b, "t crc32 %08x\n", crc32.ChecksumIEEE(b.Bytes()))
	img, err := Decode(b.Bytes())
	if err != nil {
		t.Fatalf("unknown section rejected: %v", err)
	}
	if len(img.Vars) != 1 || img.Vars[0].Name != "x" || img.Vars[0].Value != "1" {
		t.Errorf("vars = %+v", img.Vars)
	}
	// Unknown var flags are likewise additive.
	var c bytes.Buffer
	fmt.Fprintf(&c, "%%esimg 1\n")
	fmt.Fprintf(&c, "s vars 1\nr %d\n%s\n", len("nZ 1 x1"), "nZ 1 x1")
	fmt.Fprintf(&c, "t crc32 %08x\n", crc32.ChecksumIEEE(c.Bytes()))
	img, err = Decode(c.Bytes())
	if err != nil {
		t.Fatalf("unknown flag rejected: %v", err)
	}
	if !img.Vars[0].NoExport || img.Vars[0].Value != "1" {
		t.Errorf("known flags lost next to unknown one: %+v", img.Vars[0])
	}
}

func TestImageFileHelpers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sess.esimg")
	img := Capture(richInterp(t), nil)
	if err := WriteFile(path, img); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Encode(), img.Encode()) {
		t.Errorf("file round trip changed the image")
	}
	if fi, _ := os.Stat(path); fi.Mode().Perm() != 0o600 {
		t.Errorf("image mode = %v, want 0600", fi.Mode().Perm())
	}
}

// goldenImage is a fixed literal, independent of process state, so the
// golden file pins the wire format itself: any byte-level drift in the
// encoder fails here.  Regenerate deliberately with -update.
func goldenImage() *Image {
	return &Image{
		Format: FormatVersion,
		Es:     "es-golden 1.0",
		Meta:   map[string]string{"note": "fixture"},
		Dir:    "/tmp",
		Vars: []core.VarRecord{
			{Name: "empty", Value: ""},
			{Name: "fn-f", Value: "%closure(n=5)@ * {echo $n}", NoExport: true},
			{Name: "mark", Phantom: true, NoExport: true},
			{Name: "null", Empty: true},
			{Name: "words", Value: "a\x01b c\x01don't"},
		},
	}
}

func TestImageGolden(t *testing.T) {
	path := filepath.Join("testdata", "golden.esimg")
	want := goldenImage().Encode()
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden fixture missing (run: go test ./internal/image -update): %v", err)
	}
	if !bytes.Equal(onDisk, want) {
		t.Errorf("image format drifted from golden fixture:\n--- testdata/golden.esimg\n%s--- encoder output\n%s", onDisk, want)
	}
	img, err := Decode(onDisk)
	if err != nil {
		t.Fatalf("golden fixture no longer decodes: %v", err)
	}
	if !bytes.Equal(img.Encode(), want) {
		t.Errorf("golden fixture decode/re-encode not the identity")
	}
}

// A restore frame is client input, so the section count cannot size the
// records: a count of a billion with nothing after it is rejected
// without allocating for it.
func TestImageDecodeHugeCount(t *testing.T) {
	data := []byte("%esimg 1\ns vars 1000000000\n")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decode(data)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("an image that promises a billion records and holds none was accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<10 {
		t.Errorf("rejecting it allocated %d bytes", grew)
	}
}

// Encode sizes its one buffer from the records: a session image takes
// one allocation, and fills it exactly.  Decode copies the bytes once,
// into the string every record's name and value are cut from.
func TestImageCodecAllocations(t *testing.T) {
	img := Capture(sessionInterp(t), nil)
	enc := img.Encode()
	if len(enc) != cap(enc) {
		t.Errorf("Encode made a buffer of %d bytes for %d", cap(enc), len(enc))
	}
	if n := testing.AllocsPerRun(50, func() { img.Encode() }); n != 1 {
		t.Errorf("Encode makes %v allocations, want 1", n)
	}
	// The string, the Image and its records.
	if n := testing.AllocsPerRun(50, func() { Decode(enc) }); n != 3 {
		t.Errorf("Decode makes %v allocations, want 3", n)
	}
}

// The append-style entry points write and read what Encode and Decode
// do: AppendEncode and AppendCapture append Encode's bytes after what
// the buffer holds, and RestoreString installs what Decode and Restore
// install.  A string that is not an image leaves the interpreter as it
// was.
func TestImageAppendEntryPoints(t *testing.T) {
	i := richInterp(t)
	want := Capture(i, nil).Encode()
	prefix := []byte("prefix:")
	if got := Capture(i, nil).AppendEncode(bytes.Clone(prefix)); !bytes.Equal(got, append(bytes.Clone(prefix), want...)) {
		t.Errorf("AppendEncode:\n%q\nwant the prefix, then\n%q", got, want)
	}
	if got := AppendCapture(bytes.Clone(prefix), i); !bytes.Equal(got, append(bytes.Clone(prefix), want...)) {
		t.Errorf("AppendCapture:\n%q\nwant the prefix, then\n%q", got, want)
	}

	j := core.New()
	if err := RestoreString(j, string(want)); err != nil {
		t.Fatalf("RestoreString: %v", err)
	}
	if got := Capture(j, nil).Encode(); !bytes.Equal(got, want) {
		t.Errorf("after RestoreString:\n%s\nwant\n%s", got, want)
	}
	bad := string(want[:len(want)-3]) + "0\n"
	if err := RestoreString(j, bad); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Errorf("RestoreString of a corrupted image: err = %v", err)
	}
	if got := Capture(j, nil).Encode(); !bytes.Equal(got, want) {
		t.Errorf("a refused RestoreString changed the state:\n%s", got)
	}
}

// AppendCapture into a buffer that has room allocates only the values it
// must encode, none for a state restored and not yet read; RestoreString
// allocates only what RestoreVars installs of the records, so it neither
// copies the string it is given nor keeps a record slice.
func TestImageAppendAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items")
	}
	data := string(Capture(sessionInterp(t), nil).Encode())
	i := core.New()
	if err := RestoreString(i, data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 2*len(data))
	if n := testing.AllocsPerRun(50, func() { AppendCapture(buf, i) }); n != 0 {
		t.Errorf("AppendCapture of a restored state makes %v allocations, want 0", n)
	}
	img, err := Decode([]byte(data))
	if err != nil {
		t.Fatal(err)
	}
	want := testing.AllocsPerRun(50, func() { i.RestoreVars(img.Vars) })
	if n := testing.AllocsPerRun(50, func() { RestoreString(i, data) }); n != want {
		t.Errorf("RestoreString makes %v allocations, RestoreVars of its records %v", n, want)
	}
}
