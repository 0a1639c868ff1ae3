package pipeline

import (
	"math/rand"
	"reflect"
	"testing"

	"gigaflow/internal/flow"
)

// natPipeline is a two-table pipeline whose every walk resolves stateful
// actions: t0 dnats (beside a plain rewrite) and continues, t1 applies
// ct_nat and outputs.
func natPipeline() *Pipeline {
	p := New("nat")
	p.AddTable(0, "lb", flow.NewFieldSet(flow.FieldIPDst))
	p.AddTable(1, "out", flow.NewFieldSet(flow.FieldIPProto))
	p.MustAddRule(0, flow.MustParseMatch("ip_dst=10.0.0.0/8"), 10,
		[]flow.Action{flow.SetField(flow.FieldMeta, 7), flow.DNAT(1)}, 1)
	p.SetMiss(0, 1)
	p.MustAddRule(1, flow.MustParseMatch("ip_proto=6"), 10,
		[]flow.Action{flow.CtNAT(), flow.Output(3)}, NoTable)
	p.SetMiss(1, NoTable, flow.Drop())
	return p
}

// bufResolver resolves like the datapath's: into one buffer it hands back
// every time, with rewrites that differ from call to call.
type bufResolver struct {
	calls uint64
	buf   [2]flow.Action
}

func (r *bufResolver) Resolve(a flow.Action) ([]flow.Action, flow.Key, uint64, bool) {
	r.calls++
	r.buf[0] = flow.SetField(flow.FieldIPDst, 0xc0a80000|r.calls)
	r.buf[1] = flow.SetField(flow.FieldTpDst, 8000+r.calls)
	return r.buf[:], flow.Key{}.With(flow.FieldIPSrc, r.calls), r.calls, true
}

// sameTraversal compares everything a caller can read off two traversals.
func sameTraversal(a, b *Traversal) bool {
	return a.Pipeline == b.Pipeline && a.Version == b.Version && a.Input == b.Input &&
		a.Verdict == b.Verdict && a.NextTable == b.NextTable && a.TuplesProbed == b.TuplesProbed &&
		a.CtConn == b.CtConn && a.CtEpoch == b.CtEpoch && sameSteps(a.Steps, b.Steps)
}

func sameSteps(a, b []Step) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := &a[i], &b[i]
		if x.TableID != y.TableID || x.Rule != y.Rule || x.Wildcard != y.Wildcard ||
			x.Pre != y.Pre || x.Post != y.Post || x.Verdict != y.Verdict || x.CtDep != y.CtDep ||
			!flow.ActionsEqual(x.Acts, y.Acts) {
			return false
		}
	}
	return true
}

// snapshot deep-copies what sameTraversal reads.
func snapshot(tr *Traversal) *Traversal {
	c := *tr
	c.Steps = append([]Step(nil), tr.Steps...)
	for i := range c.Steps {
		c.Steps[i].Acts = append([]flow.Action(nil), tr.Steps[i].Acts...)
	}
	return &c
}

// Process and ProcessResolve hand out traversals the caller may keep, as
// does ProcessPartialInto into a fresh one: the park/upcall path and the
// benchmark's replay hold up to 64 at once. Nothing a later walk does — through the allocating forms or
// through ProcessInto on a scratch traversal, with a resolver that reuses
// its buffer — may reach into one, resolved NAT actions included.
func TestProcessReturnsIndependentTraversals(t *testing.T) {
	p := natPipeline()
	res := &bufResolver{}
	key := func(i int) flow.Key {
		return flow.Key{}.With(flow.FieldIPDst, 0x0a000000|uint64(i)).With(flow.FieldIPProto, uint64(6+i%2)).
			With(flow.FieldTpDst, 80)
	}
	var held, want [64]*Traversal
	for i := range held {
		var err error
		switch i % 3 {
		case 0:
			held[i], err = p.ProcessResolve(key(i), res)
		case 1:
			held[i], err = p.Process(key(i))
		default:
			k := key(i)
			held[i] = new(Traversal)
			err = p.ProcessPartialInto(held[i], 0, &k, 1)
		}
		if err != nil {
			t.Fatal(err)
		}
		want[i] = snapshot(held[i])
	}
	if tr := held[0]; !tr.Steps[0].CtDep || len(tr.Steps[0].Acts) != 3 || tr.Steps[0].Acts[1].Value != 0xc0a80001 ||
		tr.CtEpoch != 1 || tr.FinalKey().Get(flow.FieldTpDst) != 8002 {
		t.Fatalf("resolved walk is not what the resolver said: %+v", tr.Steps)
	}

	var scratch Traversal
	for i := 0; i < 200; i++ {
		k := key(1000 + i)
		if _, err := p.ProcessResolve(k, res); err != nil {
			t.Fatal(err)
		}
		if err := p.ProcessInto(&scratch, &k, res); err != nil {
			t.Fatal(err)
		}
		if err := p.ProcessPartialInto(&scratch, 1, &k, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := range held {
		if !sameTraversal(held[i], want[i]) {
			t.Errorf("retained traversal %d changed under later walks:\n got %+v\nwant %+v", i, held[i].Steps, want[i].Steps)
		}
	}
}

// One traversal refilled over and over — walks of varying length, full and
// partial, resolved and not — must read exactly like a fresh one each
// time, and so must a Composed scratch against Compose.
func TestProcessIntoMatchesProcess(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var scratch Traversal
	var rule Composed
	for round := 0; round < 40; round++ {
		p := randomPipeline(rng, 2+rng.Intn(5), 6)
		p.PreciseWildcards = round%4 == 3
		for i := 0; i < 60; i++ {
			k := randomKey(rng)
			var fresh *Traversal
			var ferr, serr error
			if i%3 == 0 {
				start, steps := rng.Intn(p.NumTables()), 1+rng.Intn(3)
				fresh = new(Traversal)
				ferr = p.ProcessPartialInto(fresh, start, &k, steps)
				serr = p.ProcessPartialInto(&scratch, start, &k, steps)
			} else {
				fresh, ferr = p.Process(k)
				serr = p.ProcessInto(&scratch, &k, nil)
			}
			if (ferr == nil) != (serr == nil) {
				t.Fatalf("round %d key %d: Process error %v, ProcessInto error %v", round, i, ferr, serr)
			}
			if ferr != nil {
				continue
			}
			if !sameTraversal(&scratch, fresh) {
				t.Fatalf("round %d key %d: refilled traversal\n got %+v\nwant %+v", round, i, scratch.Steps, fresh.Steps)
			}
			a, b := rng.Intn(fresh.Len()), 1+rng.Intn(fresh.Len())
			if a >= b {
				a, b = 0, fresh.Len()
			}
			match, commit := fresh.Compose(a, b)
			scratch.ComposeInto(a, b, &rule)
			if match != rule.Match || commit != rule.Commit || !reflect.DeepEqual(match, flow.NewMatch(match.Key, match.Mask)) {
				t.Fatalf("round %d key %d: ComposeInto(%d,%d) = %v %v, Compose = %v %v", round, i, a, b, rule.Match, rule.Commit, match, commit)
			}
		}
	}

	// A resolved walk, against the allocating form under an identical
	// resolver.
	p := natPipeline()
	ra, rb := &bufResolver{}, &bufResolver{}
	for i := 0; i < 50; i++ {
		k := flow.Key{}.With(flow.FieldIPDst, 0x0a000000|uint64(i%7)<<uint(i%30)).With(flow.FieldIPProto, uint64(5+i%3))
		fresh, err := p.ProcessResolve(k, ra)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.ProcessInto(&scratch, &k, rb); err != nil {
			t.Fatal(err)
		}
		if !sameTraversal(&scratch, fresh) {
			t.Fatalf("resolved key %d:\n got %+v\nwant %+v", i, scratch.Steps, fresh.Steps)
		}
	}
}

// A warmed-up scratch traversal and Composed walk and compose without
// allocating, resolved steps included.
func TestProcessIntoZeroAlloc(t *testing.T) {
	p := natPipeline()
	res := &bufResolver{}
	var tr Traversal
	var rule Composed
	k := flow.Key{}.With(flow.FieldIPDst, 0x0a000001).With(flow.FieldIPProto, 6)
	walk := func() {
		if err := p.ProcessInto(&tr, &k, res); err != nil {
			t.Fatal(err)
		}
		tr.ComposeInto(0, tr.Len(), &rule)
	}
	walk()
	if n := testing.AllocsPerRun(200, walk); n != 0 {
		t.Errorf("ProcessInto + ComposeInto on warm scratch: %v allocs per walk, want 0", n)
	}
}
