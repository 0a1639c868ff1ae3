// Package gigaflow is a from-scratch Go implementation of Gigaflow —
// pipeline-aware sub-traversal caching for SmartNICs (Zulfiqar et al.,
// ASPLOS 2025) — together with every substrate the system needs: a
// programmable vSwitch pipeline engine, Microflow/Megaflow caches, a TSS
// classifier, a SmartNIC resource model, ClassBench-style
// ruleset and CAIDA-style traffic generators, the Pipebench workload tool,
// five real-world pipeline models, and an end-to-end simulator
// reproducing the paper's evaluation.
//
// This file is the public facade: it re-exports the library's primary
// types and constructors so applications need a single import. The
// highest-level entry point is VSwitch, which couples a hardware cache
// (Gigaflow or Megaflow) with the slowpath pipeline, handling misses,
// rule generation, installation, revalidation, and idle expiry — the
// complete OVS-offload workflow of Figure 5.
package gigaflow

import (
	"io"

	"gigaflow/internal/flow"
	gfcache "gigaflow/internal/gigaflow"
	"gigaflow/internal/ofp"
	"gigaflow/internal/pipeline"
)

// Flow model -----------------------------------------------------------

// Key is a concrete flow signature over the nine packet-header fields of
// the paper's LTM table plus the pipeline metadata register.
type Key = flow.Key

// Mask is a per-bit wildcard over a Key.
type Mask = flow.Mask

// Match is a ternary predicate: Key plus Mask.
type Match = flow.Match

// FieldID names one flow key field.
type FieldID = flow.FieldID

// Action is one packet-processing primitive (set-field, output, drop).
type Action = flow.Action

// Verdict is a packet's terminal fate.
type Verdict = flow.Verdict

// FieldSet is a bitset of fields.
type FieldSet = flow.FieldSet

// Flow key fields, in canonical order.
const (
	FieldInPort  = flow.FieldInPort
	FieldEthSrc  = flow.FieldEthSrc
	FieldEthDst  = flow.FieldEthDst
	FieldEthType = flow.FieldEthType
	FieldIPSrc   = flow.FieldIPSrc
	FieldIPDst   = flow.FieldIPDst
	FieldIPProto = flow.FieldIPProto
	FieldTpSrc   = flow.FieldTpSrc
	FieldTpDst   = flow.FieldTpDst
	FieldMeta    = flow.FieldMeta
	FieldCtState = flow.FieldCtState
)

// Verdict kinds (see flow.VerdictKind).
const (
	VerdictNone   = flow.VerdictNone
	VerdictOutput = flow.VerdictOutput
	VerdictDrop   = flow.VerdictDrop
)

// Action constructors and flow helpers.
var (
	SetField       = flow.SetField
	Output         = flow.Output
	Drop           = flow.Drop
	DNAT           = flow.DNAT
	SNAT           = flow.SNAT
	CtNAT          = flow.CtNAT
	ParseKey       = flow.ParseKey
	ParseMatch     = flow.ParseMatch
	MustParseKey   = flow.MustParseKey
	MustParseMatch = flow.MustParseMatch
	NewFieldSet    = flow.NewFieldSet
	ExactMatch     = flow.ExactMatch
	MatchAll       = flow.MatchAll
	PrefixMask     = flow.PrefixMask
)

// Pipeline -------------------------------------------------------------

// Pipeline is a programmable multi-table vSwitch pipeline.
type Pipeline = pipeline.Pipeline

// Rule is one pipeline table entry.
type Rule = pipeline.Rule

// Traversal is the record of one packet's walk through the pipeline —
// the ⟨T, F, W⟩ vector both cache compilers consume.
type Traversal = pipeline.Traversal

// NoTable marks a terminal rule (no goto-table).
const NoTable = pipeline.NoTable

// NATTarget is one backend endpoint of a NAT pool (see Pipeline.SetNATPool).
type NATTarget = pipeline.NATTarget

// NewPipeline creates an empty pipeline.
func NewPipeline(name string) *Pipeline { return pipeline.New(name) }

// LoadPipeline parses a textual pipeline program (ovs-ofctl-style; see
// internal/ofp for the grammar).
func LoadPipeline(r io.Reader) (*Pipeline, error) { return ofp.Load(r) }

// LoadPipelineString is LoadPipeline over a string.
func LoadPipelineString(s string) (*Pipeline, error) { return ofp.LoadString(s) }

// DumpPipeline writes a pipeline as a textual program that LoadPipeline
// reads back equivalently.
func DumpPipeline(w io.Writer, p *Pipeline) error { return ofp.Dump(w, p) }

// Caches ----------------------------------------------------------------

// CacheConfig parameterises a Gigaflow cache.
type CacheConfig = gfcache.Config

// Scheme selects the partitioning strategy.
type Scheme = gfcache.Scheme

// Partitioning schemes (Fig. 16, plus the §7 profile-guided extension).
const (
	SchemeDisjoint = gfcache.SchemeDisjoint
	SchemeRandom   = gfcache.SchemeRandom
	SchemeOneToOne = gfcache.SchemeOneToOne
	SchemeProfile  = gfcache.SchemeProfile
)
