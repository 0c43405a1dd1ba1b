package core

// Session snapshot support.  The paper's environment trick — every
// definable value, closures included, unparses to a string — means an
// interpreter's entire definable state already has a textual
// serialization.  SnapshotVars and RestoreVars are that trick productized:
// they capture and re-install the variable table (which holds everything
// the user can define: variables, fn- functions, set- settors, and the
// spoofable fn-%hooks) through the same encode/decode machinery the
// environment uses, plus the two bits the environment cannot carry — the
// noexport mark and the null/empty-string distinction.

// VarRecord describes one variable slot for snapshotting.  Value is the
// environment encoding of the slot (EncodeValue), except when Phantom or
// Empty is set.
type VarRecord struct {
	Name     string
	Value    string
	NoExport bool // excluded from ExportEnv
	Phantom  bool // a sticky noexport mark on a name that has no value
	Empty    bool // defined but null: the empty list, not the empty string
}

// SnapshotVars captures every variable slot, sorted by name so snapshots
// are deterministic.  Slots still lazy from an environment import are
// captured as their undecoded raw string — no decode work happens, and
// the encoding is the same either way.  The order comes from one walk
// over the base's sorted names and the overlay's: nothing is sorted but
// the overlay.
func (i *Interp) SnapshotVars() []VarRecord {
	return i.AppendSnapshotVars(make([]VarRecord, 0, len(i.base.slots)+len(i.over)))
}

// AppendSnapshotVars appends what SnapshotVars returns to out.
func (i *Interp) AppendSnapshotVars(out []VarRecord) []VarRecord {
	for name, slot := range i.sortedVars {
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
	return out
}

// RestoreVars replaces the entire variable table with the captured
// records.  Values are installed lazily, exactly like an environment
// import — decoding every function definition up front would defeat the
// fast startup the lazy path buys — but unlike an import the noexport
// marks, phantom marks, and null values are restored exactly.  Settors do
// not run: a restore reinstates state, it does not re-assign it.  The
// slots come from one slab, and records sorted by name with no name
// twice, as SnapshotVars makes them, give the new base its order; any
// other base sorts its names on first use.  A later record wins over an
// earlier one of the same name.
func (i *Interp) RestoreVars(recs []VarRecord) {
	slab := make([]varSlot, len(recs))
	slots := make(map[string]*varSlot, len(recs))
	sorted := true
	for k, r := range recs {
		s := &slab[k]
		s.noexport = r.NoExport
		switch {
		case r.Phantom:
		case r.Empty:
			s.value = List{}
		default:
			s.raw, s.lazy = r.Value, true
		}
		slots[r.Name] = s
		sorted = sorted && (k == 0 || recs[k-1].Name < r.Name)
	}
	// No slot holds a decoded closure, so nothing is captured.
	base := &frozenVars{slots: slots}
	if sorted {
		base.names = make([]string, len(recs))
		for k, r := range recs {
			base.names[k] = r.Name
		}
	}
	i.base = base
	clear(i.over)
	i.dirty = false
	// $path may have changed wholesale; cached lookups are for the old one.
	if i.pathCache != nil {
		i.pathCache.Flush()
	}
}
