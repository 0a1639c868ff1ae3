package gigaflow

import (
	"gigaflow/internal/flow"
	"gigaflow/internal/flowtable"
	"gigaflow/internal/slab"
)

// ActionRow is α, what an LTM entry does to a packet it matches: the
// rewrite, the tag update and, for a traversal-ending entry, the verdict.
// Entries that do the same share one row of their cache's action table,
// the way P4 PSA's ActionProfile lets table entries name shared action
// members: thousands of resident entries carry tens to hundreds of
// distinct rows (DESIGN.md §7), so the rows a hit reads stay in L1 while
// the entries do not.
type ActionRow struct {
	// Commit is the set-field part of α: the header rewrites accumulated
	// across the sub-traversal, as one masked overwrite of the key.
	Commit flow.Rewrite
	// nextSlot is the entry's NextTag in the owning cache's dense tag
	// numbering (tagSlots), resolved once at install, -1 when Terminal: the
	// hit path follows it and never reads the tags themselves.
	nextSlot int32
	// Terminal marks the traversal-ending sub-traversal; Verdict is its
	// output/drop decision.
	Terminal bool
	Verdict  flow.Verdict
}

// hash is the row's index hash, never 0. Terminal is left out: it
// follows from Verdict.
func (a *ActionRow) hash() uint64 {
	tail := uint64(uint32(a.nextSlot)) | uint64(a.Verdict.Port)<<32 | uint64(a.Verdict.Kind)<<48
	return flowtable.HashWords(flowtable.HashKey((*flow.Key)(&a.Commit.Mask)), flowtable.HashKey(&a.Commit.Val)^tail)
}

// actions is a cache's action table: every distinct α its resident
// entries carry, held once and named by its index in rows, the id an
// entry's classifier node carries as its payload. refs[id] counts the
// resident entries that carry row id; a row nobody carries is zeroed and
// its id goes on free, for the next new row. index finds a row by the hash
// of its content. The rows are bounded by the resident entries: no more
// are live than entries are resident, and rows only grows to the most
// that were ever live at once.
type actions struct {
	rows  []ActionRow
	refs  []int32
	free  []int32
	index slab.Index
}

// intern returns the id of the row equal to *a, adding the row when no
// resident entry carries it yet, and counts one more user of it.
func (t *actions) intern(a *ActionRow) int32 {
	if t.index.Slots == nil {
		t.index = slab.NewIndex(0) // a cache that never installs keeps none
	}
	h := a.hash()
	m := t.index.Mask()
	for i := h & m; t.index.Slots[i].Hash != 0; i = (i + 1) & m {
		if s := t.index.Slots[i]; s.Hash == h && t.rows[s.Ref-1] == *a {
			t.refs[s.Ref-1]++
			return int32(s.Ref - 1)
		}
	}
	var id int32
	if n := len(t.free); n > 0 {
		id, t.free = t.free[n-1], t.free[:n-1]
		t.rows[id] = *a
	} else {
		id = int32(len(t.rows))
		t.rows = append(t.rows, *a)
		t.refs = append(t.refs, 0)
	}
	t.refs[id] = 1
	t.index.Insert(h, uint32(id)+1)
	return id
}

// release counts one user of row id fewer, and frees the row when that
// was its last.
func (t *actions) release(id int32) {
	if t.refs[id]--; t.refs[id] > 0 {
		return
	}
	t.index.Delete(t.rows[id].hash(), uint32(id)+1)
	t.rows[id] = ActionRow{}
	t.free = append(t.free, id)
}
