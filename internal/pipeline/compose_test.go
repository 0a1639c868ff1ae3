package pipeline

import (
	"math/rand"
	"testing"

	"gigaflow/internal/flow"
)

// refCommit is the commit as ComposeInto built it while a commit was a
// set-field action list: one masked set per field the range writes, in
// field order, of the bits written anywhere in the range to their values
// leaving it. It is the reference the packed Rewrite is held to.
func refCommit(tr *Traversal, i, j int) []flow.Action {
	var written flow.Mask
	for s := i; s < j; s++ {
		for _, a := range tr.Steps[s].Acts {
			if a.Type == flow.ActionSetField {
				written.OrField(a.Field, a.Mask)
			}
		}
	}
	post := &tr.Steps[j-1].Post
	var out []flow.Action
	for f := flow.FieldID(0); f < flow.NumFields; f++ {
		if bits := written.Get(f); bits != 0 {
			out = append(out, flow.SetFieldMasked(f, post.Get(f), bits))
		}
	}
	return out
}

// rewritePipeline is a chain of nTables tables whose rules and misses each
// rewrite up to three random fields, some of them under a random bit mask,
// before going on to the next table; the last table outputs.
func rewritePipeline(rng *rand.Rand, nTables int) *Pipeline {
	p := New("rewrites")
	for i := 0; i < nTables; i++ {
		p.AddTable(i, "t", flow.NewFieldSet(flow.FieldID(rng.Intn(flow.NumFields))))
	}
	sets := func(last bool, port uint16) []flow.Action {
		var acts []flow.Action
		for n := rng.Intn(4); n > 0; n-- {
			f := flow.FieldID(rng.Intn(flow.NumFields))
			if rng.Intn(2) == 0 {
				acts = append(acts, flow.SetField(f, rng.Uint64()))
			} else {
				acts = append(acts, flow.SetFieldMasked(f, rng.Uint64(), rng.Uint64()))
			}
		}
		if last {
			acts = append(acts, flow.Output(port))
		}
		return acts
	}
	for i := 0; i < nTables; i++ {
		next, last := i+1, i+1 == nTables
		if last {
			next = NoTable
		}
		p.SetMiss(i, next, sets(last, 1)...)
		f := p.Table(i).MatchFields.Fields()[0]
		for r := 0; r < 4; r++ {
			bit := uint64(1) << uint(rng.Intn(int(f.Width())))
			p.MustAddRule(i, flow.MatchAll().WithMaskedField(f, rng.Uint64(), bit), r+1, sets(last, 2), next)
		}
	}
	return p
}

// randomWords is a key with every bit random: the eleven fields tile the
// four words, so any four words are a key.
func randomWords(rng *rand.Rand) flow.Key {
	return flow.Key{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()}
}

// For every range [i, j) of walks through random rewriting pipelines —
// the NAT pipeline's resolved rewrites among them — the composed Rewrite
// lists as exactly the action list the per-field commit built, applies to
// any key as that list does under ApplyTo, and carries the flow state
// entering step i to the state leaving step j-1.
func TestComposeRewriteMatchesActionList(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	var c Composed
	check := func(name string, tr *Traversal) {
		t.Helper()
		for i := 0; i < tr.Len(); i++ {
			for j := i + 1; j <= tr.Len(); j++ {
				tr.ComposeInto(i, j, &c)
				want := refCommit(tr, i, j)
				if got := c.Commit.Actions(); !flow.ActionsEqual(got, want) {
					t.Fatalf("%s [%d,%d): Actions() = %v, per-field commit %v", name, i, j, got, want)
				}
				for n := 0; n < 8; n++ {
					k := randomWords(rng)
					got, ref := k, k
					c.Commit.Apply(&got)
					flow.ApplyTo(&ref, want)
					if got != ref {
						t.Fatalf("%s [%d,%d): Apply(%s) = %s, ApplyTo %s", name, i, j, k, got, ref)
					}
				}
				got := tr.Steps[i].Pre
				if c.Commit.Apply(&got); got != tr.Steps[j-1].Post {
					t.Fatalf("%s [%d,%d): Apply(Pre) = %s, Post %s", name, i, j, got, tr.Steps[j-1].Post)
				}
			}
		}
	}
	for round := 0; round < 60; round++ {
		p := rewritePipeline(rng, 1+rng.Intn(6))
		p.PreciseWildcards = round%2 == 1
		for n := 0; n < 20; n++ {
			tr, err := p.Process(randomWords(rng))
			if err != nil {
				t.Fatal(err)
			}
			check("rewrites", tr)
		}
	}
	p, res := natPipeline(), &bufResolver{}
	for n := 0; n < 20; n++ {
		k := flow.Key{}.With(flow.FieldIPDst, 0x0a000000|uint64(n)).With(flow.FieldIPProto, uint64(5+n%3))
		tr, err := p.ProcessResolve(k, res)
		if err != nil {
			t.Fatal(err)
		}
		check("nat", tr)
	}
}
