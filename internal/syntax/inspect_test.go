package syntax

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// fieldNodes finds, by reflection over the fields of the tree under
// root, every command, *Word and word part below root, in field order.
func fieldNodes(root any) []any {
	var nodes []any
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Pointer:
			if v.IsNil() {
				return
			}
			switch v.Interface().(type) {
			case Cmd, Part, *Word:
				nodes = append(nodes, v.Interface())
			}
			walk(v.Elem())
		case reflect.Slice:
			for k := 0; k < v.Len(); k++ {
				walk(v.Index(k))
			}
		case reflect.Struct:
			for k := 0; k < v.NumField(); k++ {
				walk(v.Field(k))
			}
		}
	}
	walk(reflect.ValueOf(root).Elem())
	return nodes
}

// inspected lists the nodes Inspect passes to f, which stops descending
// at the node stop.
func inspected(root, stop any) []any {
	var nodes []any
	Inspect(root, func(n any) bool {
		nodes = append(nodes, n)
		return n != stop
	})
	return nodes
}

func describe(nodes []any) string {
	var b strings.Builder
	for _, n := range nodes {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		switch n := n.(type) {
		case *Lit:
			b.WriteString(n.Text)
		case *Prim:
			b.WriteString("$&" + n.Name)
		default:
			b.WriteString(strings.TrimPrefix(fmt.Sprintf("%T", n), "*syntax."))
		}
	}
	return b.String()
}

// TestInspect walks one program that holds every core command and every
// word part: Inspect visits each node in source order, and a false
// return from f skips exactly that node's descendants.
func TestInspect(t *testing.T) {
	src := "x = (a $y(1))\n" +
		"let (p = `{q}) local (r = $&s) for (t = <>{u}) ! @ v {w $v}\n" +
		"~ $x a; ~~ $x *"
	b, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	root := Rewrite(b)
	all := inspected(root, nil)
	want := "Block " +
		"Assign Word x Word ListPart Word a Word Var Word y Word 1 " +
		"Bind Word p Word CmdSub Block Simple Word q " +
		"Bind Word r Word $&s " +
		"Bind Word t Word RetSub Block Simple Word u " +
		"Not Simple Word LambdaPart Block Simple Word w Word Var Word v " +
		"Match Word Var Word x Word a " +
		"Match Word Var Word x Word *"
	if got := describe(all); got != want {
		t.Fatalf("Inspect visits\n%s\nwant\n%s", got, want)
	}
	for k, stop := range all {
		below := map[any]bool{}
		for _, n := range fieldNodes(stop) {
			below[n] = true
		}
		var want []any
		for _, n := range all {
			if !below[n] {
				want = append(want, n)
			}
		}
		if got := inspected(root, stop); !slices.Equal(got, want) {
			t.Errorf("stopping at node %d (%s) visits\n%s\nwant\n%s", k, describe(all[k:k+1]), describe(got), describe(want))
		}
	}
}
