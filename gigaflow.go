// Package gigaflow is a from-scratch Go implementation of Gigaflow —
// pipeline-aware sub-traversal caching for SmartNICs (Zulfiqar et al.,
// ASPLOS 2025) — together with every substrate the system needs: a
// programmable vSwitch pipeline engine, Microflow/Megaflow caches, TSS and
// NuevoMatch-style classifiers, a SmartNIC resource model, ClassBench-style
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
	"gigaflow/internal/megaflow"
	"gigaflow/internal/microflow"
	"gigaflow/internal/ofp"
	"gigaflow/internal/pipeline"
	"gigaflow/internal/telemetry"
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

// ct_state bits carried in FieldCtState (see internal/conntrack).
const (
	CtTrk = flow.CtTrk
	CtNew = flow.CtNew
	CtEst = flow.CtEst
	CtRel = flow.CtRel
	CtRpl = flow.CtRpl
	CtCls = flow.CtCls
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

// Cache is the Gigaflow LTM cache (the paper's contribution): K
// feed-forward ternary tables holding sub-traversal rules.
type Cache = gfcache.Cache

// CacheConfig parameterises a Gigaflow cache.
type CacheConfig = gfcache.Config

// CacheEntry is one LTM rule ⟨τ, M, ρ, α⟩.
type CacheEntry = gfcache.Entry

// AdaptiveTuning adjusts profile-guided adaptation (CacheConfig.Adaptive).
type AdaptiveTuning = gfcache.AdaptiveConfig

// Partition is an ordered split of a traversal into sub-traversals.
type Partition = gfcache.Partition

// Scheme selects the partitioning strategy.
type Scheme = gfcache.Scheme

// Partitioning schemes (Fig. 16, plus the §7 profile-guided extension).
const (
	SchemeDisjoint = gfcache.SchemeDisjoint
	SchemeRandom   = gfcache.SchemeRandom
	SchemeOneToOne = gfcache.SchemeOneToOne
	SchemeProfile  = gfcache.SchemeProfile
)

// NewCache creates a Gigaflow cache bound to a pipeline.
func NewCache(p *Pipeline, cfg CacheConfig) *Cache { return gfcache.New(p, cfg) }

// MegaflowCache is the single-lookup wildcard cache baseline.
type MegaflowCache = megaflow.Cache

// NewMegaflowCache creates a Megaflow cache with the given entry limit.
func NewMegaflowCache(capacity int) *MegaflowCache { return megaflow.New(capacity) }

// MicroflowCache is the exact-match first-level cache.
type MicroflowCache = microflow.Cache

// NewMicroflowCache creates a Microflow cache with the given entry limit.
func NewMicroflowCache(capacity int) *MicroflowCache { return microflow.New(capacity) }

// Telemetry --------------------------------------------------------------

// MetricsRegistry is a concurrent metrics registry (atomic counters,
// gauges, log2 histograms) with Prometheus-text and JSON exposition.
type MetricsRegistry = telemetry.Registry

// Tracer samples per-packet traversal traces into a bounded ring; attach
// to a VSwitch with WithTracer.
type Tracer = telemetry.Tracer

// TraversalTrace is one sampled packet's stage-by-stage record.
type TraversalTrace = telemetry.Trace

// TraceStage is one step within a TraversalTrace.
type TraceStage = telemetry.Stage

// NewMetricsRegistry creates an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// NewTracer creates a tracer sampling 1-in-sampleEvery packets (0
// disables) with a ring of buffer recent traces.
func NewTracer(sampleEvery, buffer int) *Tracer { return telemetry.NewTracer(sampleEvery, buffer) }
