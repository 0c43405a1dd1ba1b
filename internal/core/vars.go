package core

import (
	"maps"
	"slices"
	"strings"
	"sync"
)

// varSlot holds one global (dynamic) variable.  Values imported from the
// environment stay as raw strings until first use: parsing every
// inherited function definition at startup would defeat the paper's
// "shell startup becomes very quick", so — like the C implementation —
// decoding is lazy.
type varSlot struct {
	value    List
	raw      string // undecoded environment string (valid while lazy)
	lazy     bool
	noexport bool
}

// phantom reports a slot that only records noexport status for a name
// that has never been assigned.  Every assignment path stores a non-nil
// value (evalAssign normalizes empty to List{}, SetVarRaw deletes on
// nil, lazy decode always yields a list), so a nil-value non-lazy slot
// can only come from SetNoExport on an unset name and must not make the
// variable visible.
func (s *varSlot) phantom() bool {
	return s.value == nil && !s.lazy
}

// The global table has two levels, the in-process analogue of the
// copy-on-write pages fork(2) gives the C implementation's subshells.
// Interp.base is frozen: an interpreter shares it with every fork made
// since it was last folded, so neither its map nor any slot in it is
// ever written again.  Interp.over is private to one interpreter and
// takes every write — assignment, unset (a nil tombstone), SetNoExport
// and lazy decode — while lookups fall through it to the base.  Fork
// folds a written overlay into a new base first (one map clone), so a
// child costs one Interp however many variables there are.

// frozenVars is a base table.
type frozenVars struct {
	slots map[string]*varSlot
	// captured names the slots whose values hold closures with captured
	// bindings.  Bindings are mutable, so every fork still copies these
	// slots through a forkMemo; the list is made once per base.
	captured []string
	// names holds the slots' names in byte order, for the ordered walk
	// of SnapshotVars and VarNames.  RestoreVars takes it from records
	// that arrive sorted; any other base sorts its names on first use,
	// once, since sessions spawned from one template share their base.
	names []string
	order sync.Once
}

// sorted returns the base's names in byte order.
func (b *frozenVars) sorted() []string {
	b.order.Do(func() {
		if b.names == nil {
			b.names = sortedKeys(b.slots)
		}
	})
	return b.names
}

// sortedKeys returns m's names in byte order; nil when m is empty.
func sortedKeys(m map[string]*varSlot) []string {
	if len(m) == 0 {
		return nil
	}
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// slot returns name's current slot, or nil if it has none.
func (i *Interp) slot(name string) *varSlot {
	if s, ok := i.over[name]; ok {
		return s // nil: unset since the last fold
	}
	return i.base.slots[name]
}

// put stores s (nil to unset) as name's slot in the overlay.
func (i *Interp) put(name string, s *varSlot) {
	if i.over == nil {
		i.over = make(map[string]*varSlot)
	}
	i.over[name] = s
	i.dirty = true
}

// own returns name's slot for writing: the overlay's, copied up from
// the base (or made empty) on the first write since the last fold.
func (i *Interp) own(name string) *varSlot {
	i.dirty = true
	s, ok := i.over[name]
	if s != nil {
		return s
	}
	s = new(varSlot)
	if b := i.base.slots[name]; !ok && b != nil {
		*s = *b
	}
	i.put(name, s)
	return s
}

// fold makes the overlay's writes part of a new base; the old base is
// left as it was, for the forks still sharing it.
func (i *Interp) fold() {
	if !i.dirty {
		return
	}
	slots := maps.Clone(i.base.slots)
	if slots == nil {
		slots = make(map[string]*varSlot, len(i.over))
	}
	var captured []string
	for _, name := range i.base.captured {
		if _, ok := i.over[name]; !ok {
			captured = append(captured, name)
		}
	}
	for name, s := range i.over {
		switch {
		case s == nil:
			delete(slots, name)
		case !s.lazy && capturesBindings(s.value):
			captured = append(captured, name)
			fallthrough
		default:
			slots[name] = s
		}
	}
	i.base = &frozenVars{slots: slots, captured: captured}
	clear(i.over)
	i.dirty = false
}

// allVars ranges over every slot the table holds, phantoms included, in
// no particular order.  sortedVars is the same walk in byte order of
// name.
func (i *Interp) allVars(yield func(string, *varSlot) bool) {
	for name, s := range i.base.slots {
		if _, ok := i.over[name]; !ok && !yield(name, s) {
			return
		}
	}
	for name, s := range i.over {
		if s != nil && !yield(name, s) {
			return
		}
	}
}

// sortedVars ranges over every slot the table holds, phantoms included,
// in byte order of name: one walk that merges the base's sorted names
// with the overlay's, which are few and sorted here.  An overlay slot
// hides the base's slot of its name; a nil one, a tombstone, is skipped.
func (i *Interp) sortedVars(yield func(string, *varSlot) bool) {
	base, over := i.base.sorted(), sortedKeys(i.over)
	for len(base) > 0 || len(over) > 0 {
		var name string
		var s *varSlot
		if len(over) == 0 || len(base) > 0 && base[0] < over[0] {
			name, base = base[0], base[1:]
			s = i.base.slots[name]
		} else {
			name, over = over[0], over[1:]
			s = i.over[name]
			if len(base) > 0 && base[0] == name {
				base = base[1:]
			}
		}
		if s != nil && !yield(name, s) {
			return
		}
	}
}

// Var returns the value of the global variable name (nil if unset).
func (i *Interp) Var(name string) List {
	s := i.slot(name)
	if s == nil {
		return nil
	}
	if s.lazy {
		v := i.DecodeValue(name, s.raw)
		// The copy keeps name from escaping, so callers' "fn-"+name
		// stays off the heap on every command dispatch.
		w := i.own(strings.Clone(name))
		w.value, w.lazy, w.raw = v, false, ""
		return v
	}
	return s.value
}

// Defined reports whether a global variable exists.  Slots that merely
// record a noexport mark for a never-assigned name do not count: before
// this check, SetNoExport on an unset name made Defined report a
// variable that no assignment ever created.
func (i *Interp) Defined(name string) bool {
	s := i.slot(name)
	return s != nil && !s.phantom()
}

// VarNames returns the defined global variable names, sorted.  Phantom
// noexport-only slots are omitted, matching Defined.
func (i *Interp) VarNames() []string {
	names := make([]string, 0, len(i.base.slots)+len(i.over))
	for n, s := range i.sortedVars {
		if !s.phantom() {
			names = append(names, n)
		}
	}
	return names
}

// SetVarRaw sets a global variable without running settors (used for
// settor re-entry, environment import, and dynamic-binding restores when
// the caller wants raw behaviour).
func (i *Interp) SetVarRaw(name string, value List) {
	i.invalidateForAssign(name)
	if value == nil {
		if i.base.slots[name] != nil {
			i.put(name, nil)
		} else {
			delete(i.over, name)
		}
		return
	}
	s := i.own(name)
	s.value, s.lazy, s.raw = value, false, ""
}

// invalidateForAssign keeps the native caches honest across assignments:
// any write to path or PATH — through the settor round-trip, a raw
// restore, or an unset — drops the pathsearch memo, exactly as the
// set-path settor invalidates Figure 2's spoofed cache.
func (i *Interp) invalidateForAssign(name string) {
	if (name == "path" || name == "PATH") && i.pathCache != nil {
		i.pathCache.Flush()
	}
}

// SetNoExport marks a variable as excluded from the environment.
func (i *Interp) SetNoExport(name string) {
	i.own(name).noexport = true
}

// SetVar assigns a global variable, running its settor if one is defined:
// "A settor variable set-foo is a variable which gets evaluated every time
// the variable foo changes value", and the value it returns is what is
// stored.
func (i *Interp) SetVar(ctx *Ctx, name string, value List) error {
	if settor := i.settorFor(name); settor != nil {
		res, err := i.Apply(ctx.NonTail(), settor, value)
		if err != nil {
			return err
		}
		value = res
	}
	i.invalidateForAssign(name)
	// Assigning the empty list removes the variable; assigning () keeps
	// an empty variable.  We follow the simpler rc rule: x = (no values)
	// leaves x defined but null; only explicit unset (SetVarRaw nil)
	// deletes.  Null and undefined are indistinguishable to $#.
	s := i.own(name)
	s.value, s.lazy, s.raw = value, false, ""
	return nil
}

// settorFor returns the closure to run when assigning name, or nil.
// A settor must itself be a single closure; empty or string-valued
// set-vars are ignored (the paper's recursion guard works by dynamically
// binding the cousin settor to the empty list).
func (i *Interp) settorFor(name string) *Closure {
	v := i.Var("set-" + name)
	if len(v) != 1 || v[0].Closure == nil {
		return nil
	}
	return v[0].Closure
}

// lookupVar resolves $name: lexical environment first, then globals.
func lookupVar(i *Interp, env *Binding, name string) List {
	if b := env.Lookup(name); b != nil {
		return b.Value
	}
	return i.Var(name)
}

// assignVar implements name = value: if name is lexically bound the
// binding mutates in place (and no settor runs); otherwise the global is
// assigned through SetVar.
func (i *Interp) assignVar(ctx *Ctx, env *Binding, name string, value List) error {
	if b := env.Lookup(name); b != nil {
		b.Value = value
		return nil
	}
	return i.SetVar(ctx, name, value)
}
