package analysis_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"es"
	"es/internal/analysis"
)

// TestBindingHeadersAgainstEvaluator builds let, local and for headers
// over three names, whose values read earlier, later and the same names,
// inside an optional outer let or local.  Every reference is a probe,
// <>{echo $#x}, that prints how many terms $x held when the evaluator
// read it: every bound value is one term, so 0 means unset.  A binding's
// name is sometimes computed by such a probe, <>{echo $#x; result z1},
// which binds a name nothing reads.  The analyzer must report W110 or
// W111 on exactly the probes that printed 0.
func TestBindingHeadersAgainstEvaluator(t *testing.T) {
	var out bytes.Buffer
	sh, err := es.New(es.Options{Stdout: &out})
	if err != nil {
		t.Fatal(err)
	}
	env := analysis.EnvFromInterp(sh.Interp())
	rng := rand.New(rand.NewSource(34))
	names := []string{"a", "b", "c"}
	name := func() string { return names[rng.Intn(len(names))] }
	probe := func() string { return "<>{echo $#" + name() + "}" }
	for n := 0; n < 300; n++ {
		var src strings.Builder
		switch rng.Intn(3) {
		case 1:
			fmt.Fprintf(&src, "let (%s = 1) ", name())
		case 2:
			fmt.Fprintf(&src, "local (%s = 1) ", name())
		}
		src.WriteString([]string{"let", "local", "for"}[rng.Intn(3)])
		src.WriteString(" (")
		for k := 0; k < 3; k++ {
			if k > 0 {
				src.WriteString("; ")
			}
			target := name()
			if rng.Intn(3) == 0 {
				target = fmt.Sprintf("<>{echo $#%s; result z%d}", name(), k)
			}
			fmt.Fprintf(&src, "%s = %s", target, probe())
		}
		fmt.Fprintf(&src, ") {echo $#a; echo $#b; echo $#c}")
		prog := src.String()

		// Probes print in source order, the order the evaluator runs
		// them in, so the k-th line answers the k-th $#.
		out.Reset()
		if _, err := sh.Run(prog); err != nil {
			t.Fatalf("%s: %v", prog, err)
		}
		counts := strings.Fields(out.String())
		if strings.Count(prog, "$#") != len(counts) {
			t.Fatalf("%s: %d probes printed %q", prog, strings.Count(prog, "$#"), out.String())
		}
		var want []string
		col := 0
		for _, count := range counts {
			col += strings.Index(prog[col:], "$#") + 1
			if count == "0" {
				want = append(want, fmt.Sprintf("1:%d", col))
			}
		}

		var got []string
		for _, d := range analysis.Analyze(prog, analysis.Options{Env: env}).Diags {
			if d.Code == analysis.CodeUndefVar || d.Code == analysis.CodeDynVar {
				got = append(got, d.Pos.String())
			}
		}
		sort.Strings(want)
		sort.Strings(got)
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s\n evaluator read unset at %v\n analyzer reported at %v", prog, want, got)
		}
	}
}
