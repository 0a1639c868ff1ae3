package gigaflow

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"gigaflow/internal/flow"
	"gigaflow/internal/pipeline"
)

// refBuildEntry, refSameSemantics and refInsertPartition are the install
// path as it stood before installation probed before it built — every
// segment compiled to a heap Entry first, the survivors installed, the rest
// dropped — kept as the differential reference for insertPartition. Only
// what the surrounding types forced has changed: Match and Priority live in
// the embedded classifier node, get takes the predicate by pointer, the
// path signature the old entries carried is gone, and a partition goes
// into the tables from table on, as a resumed miss installs its suffix.
func refBuildEntry(tr *pipeline.Traversal, seg Segment, now int64) *Entry {
	match, commit := tr.Compose(seg.Start, seg.End)
	e := &Entry{
		Tag:      tr.Steps[seg.Start].TableID,
		Commit:   commit,
		Parent:   tr.Steps[seg.Start].Pre,
		Version:  tr.Version,
		Installs: 1,
		LastHit:  now,
		Created:  now,
	}
	e.Match, e.Priority = match, seg.Len()
	if tr.SegmentCtDep(seg.Start, seg.End) {
		e.CtConn, e.CtEpoch = tr.CtConn, tr.CtEpoch
	}
	if seg.End == tr.Len() && tr.Verdict.Terminal() {
		e.Terminal = true
		e.Verdict = tr.Verdict
		e.NextTag = TagDone
	} else {
		e.NextTag = tr.Steps[seg.End].TableID
	}
	return e
}

func refSameSemantics(a, b *Entry) bool {
	return a.Tag == b.Tag && a.Priority == b.Priority && a.Match.EqualTo(&b.Match) &&
		a.NextTag == b.NextTag && a.Terminal == b.Terminal && a.Verdict == b.Verdict &&
		a.CtConn == b.CtConn && a.CtEpoch == b.CtEpoch &&
		a.Commit == b.Commit
}

func refInsertPartition(c *Cache, tr *pipeline.Traversal, part Partition, table int, now int64) ([]*Entry, error) {
	tables := c.tables[table:]
	if err := part.Validate(tr.Len(), len(tables)); err != nil {
		c.stats.Rejected++
		return nil, err
	}
	entries := make([]*Entry, len(part))
	fresh := make([]bool, len(part))
	// First pass: dedupe against existing entries.
	for i, seg := range part {
		cand := refBuildEntry(tr, seg, now)
		if old := tables[i].get(cand.Tag, &cand.Match, cand.Priority); old != nil {
			if refSameSemantics(old, cand) {
				entries[i] = old
				continue
			}
			// Same predicate, different behaviour: stale sibling from an
			// earlier pipeline version; it will be replaced below.
			c.stats.Conflicts++
		}
		entries[i] = cand
		fresh[i] = true
	}
	// Second pass: install.
	for i := range part {
		e := entries[i]
		if !fresh[i] {
			e.Installs++
			c.stats.SharedReuse++
			continue
		}
		t := tables[i]
		if old := t.get(e.Tag, &e.Match, e.Priority); old != nil {
			t.remove(old) // conflict replacement
		} else if t.count >= t.capacity {
			if t.lruTail == nil {
				c.stats.Rejected++
				return nil, fmt.Errorf("gigaflow: table %d has zero capacity", i)
			}
			t.remove(t.lruTail)
			c.stats.EvictLRU++
			t.stats.EvictLRU++
		}
		t.insert(e)
		c.stats.EntriesCreated++
		t.stats.Inserts++
	}
	c.stats.InsertedTraversals++
	return entries, nil
}

// entryState is everything about an entry but its address and its links.
type entryState struct {
	Tag, NextTag, Priority, Table int
	Slot, NextSlot                int32
	Match                         flow.Match
	Commit                        flow.Rewrite
	Terminal                      bool
	Verdict                       flow.Verdict
	Hits, Installs, Version       uint64
	LastHit, Created              int64
	Parent, CtConn                flow.Key
	CtEpoch                       uint64
}

func stateOf(e *Entry) entryState {
	return entryState{
		Tag: e.Tag, NextTag: e.NextTag, Priority: e.Priority, Table: tableIndex(e),
		Slot: e.slot, NextSlot: e.nextSlot, Match: e.Match,
		Commit:   e.Commit,
		Terminal: e.Terminal, Verdict: e.Verdict,
		Hits: e.Hits, Installs: e.Installs, Version: e.Version,
		LastHit: e.LastHit, Created: e.Created, Parent: e.Parent,
		CtConn: e.CtConn, CtEpoch: e.CtEpoch,
	}
}

func statesOf(es []*Entry) []entryState {
	out := make([]entryState, len(es))
	for i, e := range es {
		out[i] = stateOf(e)
	}
	return out
}

// checkSameCaches demands that got and ref hold the same entries — same
// census in the classifiers' order, same LRU order, same per-entry state —
// with the same cache-wide and per-table counters; a wrong eviction victim
// or a lost update leaves a different resident set.
func checkSameCaches(t testing.TB, step int, got, ref *Cache) {
	t.Helper()
	if got.Stats() != ref.Stats() {
		t.Fatalf("step %d: stats %+v, reference %+v", step, got.Stats(), ref.Stats())
	}
	for i := range got.tables {
		gt, rt := got.tables[i], ref.tables[i]
		if gs, rs := got.TableSnapshot(i), ref.TableSnapshot(i); gs != rs {
			t.Fatalf("step %d: table %d snapshot %+v, reference %+v", step, i, gs, rs)
		}
		if g, r := statesOf(gt.entries()), statesOf(rt.entries()); !reflect.DeepEqual(g, r) {
			t.Fatalf("step %d: table %d census\n got %+v\n ref %+v", step, i, g, r)
		}
		n := 0
		var prev *Entry
		g, r := gt.lruHead, rt.lruHead
		for ; g != nil && r != nil; g, r = g.next, r.next {
			if !reflect.DeepEqual(stateOf(g), stateOf(r)) {
				t.Fatalf("step %d: table %d LRU position %d: %+v, reference %+v", step, i, n, stateOf(g), stateOf(r))
			}
			if g.prev != prev || g.table != gt || g.Value != g {
				t.Fatalf("step %d: table %d LRU position %d: broken links on %v", step, i, n, g)
			}
			prev, n = g, n+1
		}
		if g != nil || r != nil {
			t.Fatalf("step %d: table %d LRU lists differ in length beyond %d", step, i, n)
		}
		if prev != gt.lruTail || n != gt.count || n > gt.capacity {
			t.Fatalf("step %d: table %d: %d entries on the LRU list, count %d, capacity %d, tail %v",
				step, i, n, gt.count, gt.capacity, gt.lruTail)
		}
	}
}

// runInsertTape interprets tape as a sequence of cache operations applied
// to two caches over one pipeline — one installing through insertPartition,
// one through the reference — and demands identical returns and identical
// caches after every operation. The first two bytes pick K (1–4) and a
// tiny per-table capacity (1–4); the key space is a few dozen
// flows, so every tape runs at and over capacity. Rule-toggle operations
// change a rule's rewrite without revalidating, which is what leaves
// conflicting (same predicate, different behaviour) entries behind.
//
// Bit 2 of the first byte, clear in every tape written before installs at
// an offset existed, turns two of the eight install ops into one: the
// traversal from a tape-chosen step on goes into the tables from a
// tape-chosen table on, as a resumed miss installs the suffix it walked
// from its stall.
func runInsertTape(t testing.TB, tape []byte) (s Stats, offset int) {
	next := func() int {
		if len(tape) == 0 {
			return 0
		}
		b := tape[0]
		tape = tape[1:]
		return int(b)
	}
	p := buildRandomPipeline(nil)
	shape := next()
	offsets := shape&4 != 0
	cfg := Config{NumTables: 1 + shape%4, TableCapacity: 1 + next()%4}
	got, ref := New(p, cfg), New(p, cfg)
	key := func() flow.Key {
		a, b := next(), next()
		return flow.Key{}.
			With(flow.FieldInPort, uint64(a%4)).
			With(flow.FieldEthDst, uint64(a/4%4)).
			With(flow.FieldEthType, 0x0800).
			With(flow.FieldIPDst, uint64(a/16%4)<<24|uint64(b%2)).
			With(flow.FieldIPSrc, uint64(b/2%4)<<24).
			With(flow.FieldIPProto, 6).
			With(flow.FieldTpDst, uint64(80+b/8%5))
	}
	// l2 holds table 1's current rule per eth_dst value, so a toggle can
	// replace it with one that rewrites eth_src differently.
	var l2 [4]*pipeline.Rule
	for _, r := range p.Table(1).Rules() {
		l2[r.Match.Key.Get(flow.FieldEthDst)] = r
	}
	var now int64
	for step := 0; len(tape) > 0; step++ {
		op := next()
		now += int64(next() % 4)
		switch op % 16 {
		case 0, 1, 2, 3, 4, 5, 6, 7:
			tr := p.MustProcess(key())
			from, table := 0, 0
			if offsets && op%16 >= 6 {
				from, table = next()%tr.Len(), next()%cfg.NumTables
				view := *tr
				view.Input, view.Steps = tr.Steps[from].Pre, tr.Steps[from:]
				tr = &view
			}
			var part Partition
			switch cut := next(); cut % 4 {
			case 0: // whole
				part = Partition{{0, tr.Len()}}
			case 1: // tape-chosen cuts, possibly more segments than tables
				at := 0
				for i := 1; i < tr.Len(); i++ {
					if cut>>uint(i+1)&1 == 1 {
						part = append(part, Segment{at, i})
						at = i
					}
				}
				part = append(part, Segment{at, tr.Len()})
			default:
				part, _ = PartitionTraversal(tr, cfg.NumTables-table, SchemeDisjoint, nil)
			}
			ge, gerr := got.insertPartition(tr, part, table, now)
			re, rerr := refInsertPartition(ref, tr, part, table, now)
			if gerr == nil && table > 0 {
				offset++
			}
			if (gerr == nil) != (rerr == nil) || gerr != nil && gerr.Error() != rerr.Error() {
				t.Fatalf("step %d: insertPartition(%v) of steps %d on into tables %d on: error %v, reference %v", step, part, from, table, gerr, rerr)
			}
			if g, r := statesOf(ge), statesOf(re); !reflect.DeepEqual(g, r) {
				t.Fatalf("step %d: insertPartition(%v) of steps %d on into tables %d on returned\n got %+v\n ref %+v", step, part, from, table, g, r)
			}
		case 8, 9, 10:
			k := key()
			g, r := lookup(got, k, now), lookup(ref, k, now)
			if g.Hit != r.Hit || g.Verdict != r.Verdict || g.Final != r.Final ||
				!reflect.DeepEqual(statesOf(g.Path), statesOf(r.Path)) {
				t.Fatalf("step %d: Lookup(%s) = %+v, reference %+v", step, k, g, r)
			}
		case 11:
			v := next() % 4
			old := l2[v]
			p.DeleteRule(old)
			l2[v] = p.MustAddRule(1, old.Match, old.Priority,
				[]flow.Action{flow.SetField(flow.FieldEthSrc, uint64(0xee00+next()%3))}, old.Next)
		case 12:
			ge, gw := got.Revalidate()
			re, rw := ref.Revalidate()
			if ge != re || gw != rw {
				t.Fatalf("step %d: Revalidate = %d, %d; reference %d, %d", step, ge, gw, re, rw)
			}
		case 13:
			maxIdle := int64(next() % 8)
			if g, r := got.ExpireIdle(now, maxIdle), ref.ExpireIdle(now, maxIdle); g != r {
				t.Fatalf("step %d: ExpireIdle(%d, %d) = %d, reference %d", step, now, maxIdle, g, r)
			}
		default:
			ti, n := next()%cfg.NumTables, next()
			if es := got.tables[ti].entries(); len(es) > 0 {
				got.Remove(es[n%len(es)])
				ref.Remove(ref.tables[ti].entries()[n%len(es)])
			}
		}
		checkSameCaches(t, step, got, ref)
	}
	return got.Stats(), offset
}

// TestInsertPartitionDifferential drives the probe-before-build
// insertPartition and the build-then-dedupe original through seeded random
// op tapes and demands they never differ.
func TestInsertPartitionDifferential(t *testing.T) {
	var sum Stats
	offsets := 0
	for seed := int64(1); seed <= 48; seed++ {
		tape := make([]byte, 6000)
		rand.New(rand.NewSource(seed)).Read(tape)
		s, n := runInsertTape(t, tape)
		offsets += n
		sum.SharedReuse += s.SharedReuse
		sum.Conflicts += s.Conflicts
		sum.EvictLRU += s.EvictLRU
		sum.Rejected += s.Rejected
		sum.Revoked += s.Revoked
		sum.Expired += s.Expired
		sum.CtInvalid += s.CtInvalid
		sum.Hits += s.Hits
	}
	if sum.SharedReuse == 0 || sum.Conflicts == 0 || sum.EvictLRU == 0 || sum.Rejected == 0 ||
		sum.Revoked == 0 || sum.Expired == 0 || sum.CtInvalid == 0 || sum.Hits == 0 || offsets == 0 {
		t.Fatalf("the tapes leave a branch untaken: %+v, %d installs at an offset", sum, offsets)
	}
}

// FuzzInsertOps is runInsertTape over fuzzer-chosen tapes; the checked-in
// corpus (testdata/fuzz/FuzzInsertOps) replays in `make fuzz-regress`.
func FuzzInsertOps(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{3, 1, 1, 0, 1, 5, 9, 2, 0, 1, 5, 9, 1, 11, 0, 1, 2, 0, 1, 5, 9, 2, 8, 1, 5, 9})
	f.Fuzz(func(t *testing.T, tape []byte) { runInsertTape(t, tape) })
}
