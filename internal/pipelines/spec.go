// Package pipelines defines the five real-world vSwitch pipeline models of
// the paper's Table 1: OFD (OF-DPA), PSC (PISCES L2L3-ACL), OLS (OVN
// logical switch), ANT (Antrea), and OTL (OpenFlow Table Type Patterns).
//
// Each Spec lists the pipeline's match-action tables (with the header
// fields each stage classifies on and rewrites) and its unique traversals —
// the distinct table paths packets take through the stage graph. Pipebench
// instantiates a Spec into a concrete pipeline.Pipeline by installing
// ClassBench-derived rules along the traversal templates.
package pipelines

import (
	"fmt"

	"gigaflow/internal/flow"
	"gigaflow/internal/pipeline"
)

// TableSpec describes one pipeline stage.
type TableSpec struct {
	ID     int
	Name   string
	Fields flow.FieldSet
	// Rewrites lists the fields this stage's rules may set (e.g. L3
	// routing rewrites the Ethernet addresses).
	Rewrites flow.FieldSet
}

// TraversalSpec is one distinct path through the pipeline's tables; the
// last table emits the terminal action.
type TraversalSpec struct {
	Name   string
	Tables []int
	// Drop marks paths that end by discarding the packet (ACL deny).
	Drop bool
}

// Spec is a complete pipeline model.
type Spec struct {
	Name        string
	Description string
	Tables      []TableSpec
	Traversals  []TraversalSpec
}

// NumTables reports the pipeline's table count (Table 1 column).
func (s *Spec) NumTables() int { return len(s.Tables) }

// NumTraversals reports the pipeline's unique traversal count (Table 1
// column).
func (s *Spec) NumTraversals() int { return len(s.Traversals) }

// Table returns the spec of table id, or nil.
func (s *Spec) Table(id int) *TableSpec {
	for i := range s.Tables {
		if s.Tables[i].ID == id {
			return &s.Tables[i]
		}
	}
	return nil
}

// Validate checks internal consistency: unique increasing table IDs,
// traversals that reference existing tables in strictly increasing order
// (OpenFlow goto-table semantics), and non-empty field templates.
func (s *Spec) Validate() error {
	if len(s.Tables) == 0 || len(s.Traversals) == 0 {
		return fmt.Errorf("pipelines %s: empty spec", s.Name)
	}
	seen := map[int]bool{}
	for _, t := range s.Tables {
		if seen[t.ID] {
			return fmt.Errorf("pipelines %s: duplicate table %d", s.Name, t.ID)
		}
		seen[t.ID] = true
		if t.Fields.Empty() {
			return fmt.Errorf("pipelines %s: table %d (%s) matches no fields", s.Name, t.ID, t.Name)
		}
	}
	paths := map[string]bool{}
	for _, tr := range s.Traversals {
		if len(tr.Tables) == 0 {
			return fmt.Errorf("pipelines %s: traversal %s is empty", s.Name, tr.Name)
		}
		sig := ""
		for i, id := range tr.Tables {
			if !seen[id] {
				return fmt.Errorf("pipelines %s: traversal %s references unknown table %d", s.Name, tr.Name, id)
			}
			if i > 0 && id <= tr.Tables[i-1] {
				return fmt.Errorf("pipelines %s: traversal %s not strictly increasing at %d", s.Name, tr.Name, id)
			}
			sig += fmt.Sprintf("%d,", id)
		}
		if paths[sig] {
			return fmt.Errorf("pipelines %s: duplicate traversal path %v", s.Name, tr.Tables)
		}
		paths[sig] = true
	}
	return nil
}

// Build creates an empty pipeline.Pipeline with the spec's tables (no
// rules); the first listed table is the start table.
func (s *Spec) Build() *pipeline.Pipeline {
	p := pipeline.New(s.Name)
	for _, t := range s.Tables {
		p.AddTable(t.ID, t.Name, t.Fields)
	}
	return p
}

// All returns the five Table 1 pipeline specs in the paper's order.
func All() []*Spec { return []*Spec{OFD, PSC, OLS, ANT, OTL} }

// ByName resolves a spec by its Table 1 abbreviation (case-sensitive).
func ByName(name string) (*Spec, bool) {
	for _, s := range All() {
		if s.Name == name {
			return s, true
		}
	}
	return nil, false
}

// Field-set shorthands used by the spec definitions.
var (
	fPort    = flow.NewFieldSet(flow.FieldInPort)
	fEthSrc  = flow.NewFieldSet(flow.FieldEthSrc)
	fEthDst  = flow.NewFieldSet(flow.FieldEthDst)
	fEthType = flow.NewFieldSet(flow.FieldEthType)
	fIPDst   = flow.NewFieldSet(flow.FieldEthType, flow.FieldIPDst)
	fIPSrc   = flow.NewFieldSet(flow.FieldEthType, flow.FieldIPSrc)
	fIPPair  = flow.NewFieldSet(flow.FieldEthType, flow.FieldIPSrc, flow.FieldIPDst)
	fProto   = flow.NewFieldSet(flow.FieldIPProto)
	fTpDst   = flow.NewFieldSet(flow.FieldIPProto, flow.FieldTpDst)
	fTpSrc   = flow.NewFieldSet(flow.FieldIPProto, flow.FieldTpSrc)
	f5Tuple  = flow.NewFieldSet(flow.FieldIPSrc, flow.FieldIPDst, flow.FieldIPProto, flow.FieldTpSrc, flow.FieldTpDst)
	fMACRW   = flow.NewFieldSet(flow.FieldEthSrc, flow.FieldEthDst)
)
