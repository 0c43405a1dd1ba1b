package core

import (
	"math/rand/v2"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"testing"
)

// refSnapshotVars is SnapshotVars as it was before the ordered walk:
// every slot, in no order, then sorted by name.
func refSnapshotVars(i *Interp) []VarRecord {
	var out []VarRecord
	for name, slot := range i.allVars {
		rec := VarRecord{Name: name, NoExport: slot.noexport}
		switch {
		case slot.phantom():
			rec.Phantom = true
		case slot.lazy:
			rec.Value = slot.raw
		case len(slot.value) == 0:
			rec.Empty = true
		default:
			rec.Value = EncodeValue(slot.value)
		}
		out = append(out, rec)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// refVarNames is VarNames as it was: the defined slots' names, sorted.
func refVarNames(i *Interp) []string {
	var names []string
	for n, s := range i.allVars {
		if !s.phantom() {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// checkOrder requires SnapshotVars and VarNames to read what the sorting
// algorithm reads.
func checkOrder(t *testing.T, label string, i *Interp) {
	t.Helper()
	if got, want := i.SnapshotVars(), refSnapshotVars(i); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: SnapshotVars =\n  %+v\nsorted slots:\n  %+v", label, got, want)
	}
	if got, want := i.VarNames(), refVarNames(i); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: VarNames = %q, sorted slots %q", label, got, want)
	}
}

// orderImage is a restore image whose names sort before, between and
// after the names the model writes.
func orderImage() []VarRecord {
	return []VarRecord{
		{Name: "b", Value: "x\x01y"},
		{Name: "fn-g", Value: "@ x {result $x $x}"},
		{Name: "m", Empty: true},
		{Name: "mark", Phantom: true, NoExport: true},
		{Name: "q", Value: "", NoExport: true},
		{Name: "set-w", Value: "@ {result $*}"},
		{Name: "y", Value: "%closure(n=5)@ * {result $n}"},
	}
}

// The ordered walk against the sorting algorithm it replaced: random
// sets, unsets, noexport marks and lazy decodes on a restored
// interpreter and on the spawns and forks made of it along the way,
// with a snapshot and a name list compared after every step.  The image
// comes sorted, shuffled (its base sorts its names on first use), and
// with a name twice (a later record wins).
func TestOrderedWalkModel(t *testing.T) {
	names := []string{"", "a", "b", "c", "fn-g", "fn-h", "m", "mark", "n", "q", "set-w", "y", "zz"}
	images := map[string]func(*rand.Rand) []VarRecord{
		"sorted": func(*rand.Rand) []VarRecord { return orderImage() },
		"shuffled": func(r *rand.Rand) []VarRecord {
			recs := orderImage()
			r.Shuffle(len(recs), func(a, b int) { recs[a], recs[b] = recs[b], recs[a] })
			return recs
		},
		"duplicate": func(*rand.Rand) []VarRecord {
			// Sorted but for the name twice, so only the strict order
			// test keeps the records from giving the base its names.
			recs := orderImage()
			return append(recs[:1], append([]VarRecord{{Name: "b", Value: "again"}}, recs[1:]...)...)
		},
	}
	for label, image := range images {
		for seed := uint64(1); seed <= 40; seed++ {
			r := rand.New(rand.NewPCG(seed, 7))
			root := New()
			root.RestoreVars(image(r))
			if label == "duplicate" {
				if got := root.Var("b").Flatten(" "); got != "again" {
					t.Fatalf("duplicate: b = %q, want the later record's value", got)
				}
			}
			interps := []*Interp{root}
			for step := 0; step < 60; step++ {
				at := r.IntN(len(interps))
				i := interps[at]
				name := names[r.IntN(len(names))]
				switch op := r.IntN(7); op {
				case 0, 1:
					i.SetVarRaw(name, StrList("v"+strconv.Itoa(step)))
				case 2:
					i.SetVarRaw(name, nil)
				case 3:
					i.SetNoExport(name)
				case 4:
					i.Var(name)
				case 5:
					interps = append(interps, i.Spawn())
				case 6:
					interps = append(interps, i.Fork())
				}
				for k, i := range interps {
					checkOrder(t, label+" seed "+strconv.FormatUint(seed, 10)+" step "+strconv.Itoa(step)+" interp "+strconv.Itoa(k), i)
				}
			}
		}
	}
}

// esd spawns every session from one template, and sessions snapshot at
// once: the first to snapshot sorts the shared base's names while the
// others wait, and every image equals the one the session gives when it
// snapshots alone.
func TestConcurrentSnapshotsShareBase(t *testing.T) {
	tmpl := New()
	for k := 0; k < 60; k++ {
		tmpl.SetVarRaw("v"+strconv.Itoa(k), StrList("tmpl", strconv.Itoa(k)))
	}
	tmpl.ImportEnv([]string{"fn-lazy=@ * {echo lazy}"})
	sessions := make([]*Interp, 8)
	for k := range sessions {
		sessions[k] = tmpl.Spawn()
		sessions[k].SetVarRaw("gen", StrList("g"+strconv.Itoa(k)))
		sessions[k].SetVarRaw("v"+strconv.Itoa(k), nil)
	}
	if sessions[0].base != sessions[7].base || sessions[0].base.names != nil {
		t.Fatal("sessions do not share one unsorted base")
	}
	snaps := make([][]VarRecord, len(sessions))
	var wg sync.WaitGroup
	for k, s := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			snaps[k] = s.SnapshotVars()
		}()
	}
	wg.Wait()
	for k, s := range sessions {
		if want := s.SnapshotVars(); !reflect.DeepEqual(snaps[k], want) {
			t.Errorf("session %d: concurrent snapshot\n  %+v\nalone\n  %+v", k, snaps[k], want)
		}
		checkOrder(t, "session "+strconv.Itoa(k), s)
	}
}
