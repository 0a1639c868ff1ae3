// Package pipeline implements a programmable multi-table vSwitch pipeline
// in the style of Open vSwitch's OpenFlow datapath: a set of match-action
// tables with priorities, goto-table control flow, set-field actions, and
// megaflow-style wildcard tracking during execution.
//
// Processing a packet yields a Traversal — the paper's ⟨T, F, W⟩ vector: the
// sequence of tables visited, the flow state after each lookup, and the
// per-step wildcards (including dependency bits from higher-priority rules
// the packet did not match). Traversals feed both the Megaflow compiler and
// Gigaflow's sub-traversal partitioner.
package pipeline

import (
	"fmt"
	"sort"

	"gigaflow/internal/flow"
	"gigaflow/internal/tss"
)

// NoTable is the Next value of a terminal rule (no goto-table).
const NoTable = -1

// DefaultMaxSteps bounds a traversal's length, guarding against goto-table
// loops. OVS pipelines allow up to 256 tables; real traversals here are
// ≤ ~30 steps.
const DefaultMaxSteps = 64

// Rule is one entry in a pipeline table.
type Rule struct {
	ID       int64 // unique within the pipeline; assigned by AddRule
	TableID  int
	Match    flow.Match
	Priority int
	Actions  []flow.Action // applied on match (may include a terminal action)
	Next     int           // table to visit next, or NoTable
}

// String renders the rule compactly.
func (r *Rule) String() string {
	next := "end"
	if r.Next != NoTable {
		next = fmt.Sprintf("goto:%d", r.Next)
	}
	return fmt.Sprintf("rule#%d@t%d prio=%d %s -> %v %s", r.ID, r.TableID, r.Priority, r.Match, r.Actions, next)
}

// Table is one match-action table of the pipeline.
type Table struct {
	ID   int
	Name string
	// MatchFields advertises the fields this table's rules are expected to
	// match on. It is a template used by the ruleset generators and the
	// disjointness analysis; rules are not restricted to it.
	MatchFields flow.FieldSet
	// MissNext is the table visited when no rule matches; NoTable drops.
	MissNext int
	// MissActions are applied on a miss before continuing/dropping.
	MissActions []flow.Action

	cls *tss.Classifier[*Rule]
}

// Len reports the number of rules in the table.
func (t *Table) Len() int { return t.cls.Len() }

// Rules returns the table's rules sorted by descending priority then ID.
func (t *Table) Rules() []*Rule {
	entries := t.cls.Entries()
	rules := make([]*Rule, len(entries))
	for i, e := range entries {
		rules[i] = e.Value
	}
	sort.Slice(rules, func(i, j int) bool {
		if rules[i].Priority != rules[j].Priority {
			return rules[i].Priority > rules[j].Priority
		}
		return rules[i].ID < rules[j].ID
	})
	return rules
}

// FindRule returns the rule with exactly the given match predicate and
// priority, if installed.
func (t *Table) FindRule(m flow.Match, priority int) (*Rule, bool) {
	e := t.cls.GetMatch(&m, priority)
	if e == nil {
		return nil, false
	}
	return e.Value, true
}

// Pipeline is a programmable multi-table vSwitch pipeline.
type Pipeline struct {
	Name     string
	Start    int // ID of the first table
	MaxSteps int
	// PreciseWildcards switches traversal wildcard tracking from OVS's
	// tuple-union unwildcarding to minimal-bit dependency unwildcarding
	// (the §4.2.3 example's strategy): megaflows stay as wide as provably
	// safe, at O(outranking rules) per lookup instead of O(tuples).
	PreciseWildcards bool

	tables map[int]*Table
	order  []int // table IDs in registration order
	nextID int64
	pools  map[uint16][]NATTarget

	// Version increments on every rule mutation; caches use it to detect
	// staleness during revalidation (§4.3.1).
	Version uint64
}

// NATTarget is one concrete rewrite endpoint of a NAT pool.
type NATTarget struct {
	IP   uint64 // IPv4 address
	Port uint64 // transport port
}

// SetNATPool installs (or replaces) the NAT pool dnat/snat actions name
// by id. Pools are pipeline configuration like rules: setting one bumps
// Version, and they serialize through the ofp text format.
func (p *Pipeline) SetNATPool(id uint16, targets []NATTarget) {
	if p.pools == nil {
		p.pools = make(map[uint16][]NATTarget)
	}
	p.pools[id] = append([]NATTarget(nil), targets...)
	p.Version++
}

// NATPool returns the targets of pool id (nil when undefined). Callers
// must not mutate the returned slice.
func (p *Pipeline) NATPool(id uint16) []NATTarget { return p.pools[id] }

// NATShard returns shard's contiguous sub-range of pool id split over
// shards: len/shards targets, plus one of the remainder for each of the
// first len%shards shards, so the sub-ranges cover the pool exactly and
// overlap nowhere. With shards ≤ 1 it is the whole pool. Callers must not
// mutate the returned slice.
func (p *Pipeline) NATShard(id uint16, shard, shards int) []NATTarget {
	pool := p.pools[id]
	if shards <= 1 {
		return pool
	}
	n, extra := len(pool)/shards, len(pool)%shards
	lo := shard*n + min(shard, extra)
	if shard < extra {
		n++
	}
	return pool[lo : lo+n]
}

// NATPoolIDs returns the defined pool IDs in ascending order.
func (p *Pipeline) NATPoolIDs() []uint16 {
	out := make([]uint16, 0, len(p.pools))
	for id := range p.pools {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// New creates an empty pipeline whose first registered table becomes the
// start table unless SetStart overrides it.
func New(name string) *Pipeline {
	return &Pipeline{Name: name, Start: NoTable, MaxSteps: DefaultMaxSteps, tables: make(map[int]*Table)}
}

// AddTable registers a table. The first table added becomes the start
// table. MissNext defaults to NoTable (drop on miss).
func (p *Pipeline) AddTable(id int, name string, fields flow.FieldSet) *Table {
	if _, dup := p.tables[id]; dup {
		panic(fmt.Sprintf("pipeline %s: duplicate table id %d", p.Name, id))
	}
	t := &Table{ID: id, Name: name, MatchFields: fields, MissNext: NoTable, cls: tss.New[*Rule]()}
	p.tables[id] = t
	p.order = append(p.order, id)
	if p.Start == NoTable {
		p.Start = id
	}
	return t
}

// SetStart sets the start table.
func (p *Pipeline) SetStart(id int) {
	if _, ok := p.tables[id]; !ok {
		panic(fmt.Sprintf("pipeline %s: unknown start table %d", p.Name, id))
	}
	p.Start = id
}

// Settle readies every table for concurrent reads: the tuple order a
// rule change left stale, which the next walk would otherwise rebuild, is
// rebuilt now, so walks write nothing to the pipeline until it is next
// changed. Call it before sharing a pipeline between goroutines.
func (p *Pipeline) Settle() {
	for _, t := range p.tables {
		t.cls.Settle()
	}
}

// Table returns the table with the given ID, or nil.
func (p *Pipeline) Table(id int) *Table { return p.tables[id] }

// Tables returns all tables in registration order.
func (p *Pipeline) Tables() []*Table {
	out := make([]*Table, 0, len(p.order))
	for _, id := range p.order {
		out = append(out, p.tables[id])
	}
	return out
}

// NumTables reports the number of tables.
func (p *Pipeline) NumTables() int { return len(p.tables) }

// NumRules reports the total rule count across tables.
func (p *Pipeline) NumRules() int {
	n := 0
	for _, t := range p.tables {
		n += t.cls.Len()
	}
	return n
}

// AddRule installs a rule into its table, assigning a pipeline-unique ID.
func (p *Pipeline) AddRule(tableID int, match flow.Match, priority int, actions []flow.Action, next int) (*Rule, error) {
	t := p.tables[tableID]
	if t == nil {
		return nil, fmt.Errorf("pipeline %s: no table %d", p.Name, tableID)
	}
	if next != NoTable {
		if _, ok := p.tables[next]; !ok {
			return nil, fmt.Errorf("pipeline %s: rule targets unknown table %d", p.Name, next)
		}
	}
	p.nextID++
	r := &Rule{ID: p.nextID, TableID: tableID, Match: flow.NewMatch(match.Key, match.Mask), Priority: priority, Actions: actions, Next: next}
	t.cls.Insert(&tss.Entry[*Rule]{Match: r.Match, Priority: r.Priority, Value: r})
	p.Version++
	return r, nil
}

// MustAddRule is AddRule that panics on error; for static pipeline setup.
func (p *Pipeline) MustAddRule(tableID int, match flow.Match, priority int, actions []flow.Action, next int) *Rule {
	r, err := p.AddRule(tableID, match, priority, actions, next)
	if err != nil {
		panic(err)
	}
	return r
}

// DeleteRule removes a rule, reporting whether it was present.
func (p *Pipeline) DeleteRule(r *Rule) bool {
	t := p.tables[r.TableID]
	if t == nil {
		return false
	}
	if e := t.cls.GetMatch(&r.Match, r.Priority); e == nil || e.Value != r {
		return false
	}
	if t.cls.DeleteMatch(&r.Match, r.Priority) {
		p.Version++
		return true
	}
	return false
}

// SetMiss configures a table's miss behaviour.
func (p *Pipeline) SetMiss(tableID, next int, actions ...flow.Action) {
	t := p.tables[tableID]
	if t == nil {
		panic(fmt.Sprintf("pipeline %s: no table %d", p.Name, tableID))
	}
	t.MissNext = next
	t.MissActions = actions
	p.Version++
}
