// Package classbench generates synthetic packet-classification rulesets
// with the structural properties of the ClassBench benchmark (Taylor &
// Turner, ToN 2007) that the paper's evaluation relies on.
//
// Real ClassBench derives rules from proprietary seed filter sets that are
// not available here. This generator reproduces the properties Gigaflow's
// evaluation actually depends on:
//
//   - five-tuple rules (src/dst IPv4 prefixes, protocol, transport ports)
//     with personality-dependent specificity (ACL / FW / IPC);
//   - skewed, pool-based field values: a small population of distinct
//     prefixes and ports recombined across many rules, so that sub-tuples
//     of 1–4 header fields recur across hundreds of rules while full
//     5-tuples are nearly unique — the Figure 4 sharing curve that makes
//     sub-traversal caching effective;
//   - deterministic output from an explicit seed.
package classbench

import (
	"fmt"
	"math/rand"

	"gigaflow/internal/flow"
)

// Personality selects the filter-set style, as in ClassBench.
type Personality uint8

const (
	// ACL mimics access-control lists: specific destinations, many exact
	// destination ports.
	ACL Personality = iota
	// FW mimics firewalls: broader prefixes, more wildcarded ports.
	FW
	// IPC mimics IP-chain/IPSec sets: specific src/dst pairs, fixed
	// protocols.
	IPC
)

// String names the personality.
func (p Personality) String() string {
	switch p {
	case ACL:
		return "acl"
	case FW:
		return "fw"
	case IPC:
		return "ipc"
	default:
		return fmt.Sprintf("personality(%d)", uint8(p))
	}
}

// TupleFields is the classic 5-tuple, in canonical order.
var TupleFields = []flow.FieldID{
	flow.FieldIPSrc, flow.FieldIPDst, flow.FieldIPProto, flow.FieldTpSrc, flow.FieldTpDst,
}

// Rule is one generated classifier rule.
type Rule struct {
	Match    flow.Match
	Priority int
}

// Config parameterises generation.
type Config struct {
	Personality Personality
	Seed        int64
	NumRules    int
}

// pools holds the correlated populations rules are drawn from. Rules are
// assembled from two smaller pools — communicating host pairs (src, dst
// prefixes) and applications (protocol, port pair) — with Zipf-skewed
// selection. A few popular pairs/applications appear in many rules, the
// long tail in few; this correlation is what makes 2–4 field sub-tuples
// recur across hundreds of rules while full 5-tuples stay nearly unique
// (the Fig. 4 sharing curve).
type pools struct {
	srcPrefixes []prefix
	dstPrefixes []prefix
	pairs       [][2]int // indices into src/dst prefix pools
	apps        []app

	pairZipf, appZipf *rand.Zipf
}

// app is an application signature: protocol and port constraints; -1
// wildcards the field.
type app struct {
	proto, sport, dport int64
}

type prefix struct {
	addr uint64
	plen uint
}

// Generate produces cfg.NumRules unique rules. Priorities are assigned so
// that more specific rules (more masked bits) rank higher, with ties
// broken by generation order — matching how ClassBench sets are used with
// longest-match semantics.
func Generate(cfg Config) []Rule {
	if cfg.NumRules <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	p := buildPools(cfg.Personality, cfg.NumRules, rng)

	seen := make(map[flow.Match]bool, cfg.NumRules)
	rules := make([]Rule, 0, cfg.NumRules)
	attempts := 0
	maxAttempts := cfg.NumRules * 60
	for len(rules) < cfg.NumRules && attempts < maxAttempts {
		attempts++
		// Zipf draws concentrate on popular pool members; once duplicates
		// dominate, mix in uniform draws so the tail still gets covered.
		uniform := attempts%3 == 0
		m := p.draw(cfg.Personality, rng, uniform)
		if seen[m] {
			continue
		}
		seen[m] = true
		rules = append(rules, Rule{Match: m, Priority: m.Mask.BitCount()*1000 + len(rules)%1000})
	}
	return rules
}

// buildPools sizes the value populations. Pool sizes grow sublinearly with
// the ruleset so sharing increases with scale, as in real filter sets.
func buildPools(pers Personality, n int, rng *rand.Rand) *pools {
	sz := func(v int) int {
		if v < 2 {
			v = 2
		}
		return v
	}
	// Base pool sizes at n=200000 tuned to yield Fig. 4-like sharing
	// (hundreds of rules per 1–4 field sub-tuple, ~1 per 5-tuple).
	f := float64(n) / 200000
	if f < 0.01 {
		f = 0.01
	}
	scaled := func(base int) int { return sz(int(float64(base) * sqrtf(f))) }

	p := &pools{}
	var nSrc, nDst, nPairs, nApps int
	var protos []int64
	switch pers {
	case ACL:
		nSrc, nDst = scaled(600), scaled(1200)
		nPairs, nApps = sz(n/6), scaled(90)
		protos = []int64{6, 6, 6, 17, -1}
	case FW:
		nSrc, nDst = scaled(300), scaled(600)
		nPairs, nApps = sz(n/8), scaled(50)
		protos = []int64{6, 17, -1, -1}
	case IPC:
		nSrc, nDst = scaled(900), scaled(900)
		nPairs, nApps = sz(n/5), scaled(70)
		protos = []int64{6, 17, 50}
	}
	// Pool capacity floors: the pair × app cross product must comfortably
	// exceed the requested rule count or uniqueness cannot be met.
	if nApps < 24 {
		nApps = 24
	}
	for nPairs*nApps < 3*n {
		nPairs = nPairs*3/2 + 1
	}
	p.srcPrefixes = genPrefixes(nSrc, pers, rng)
	p.dstPrefixes = genPrefixes(nDst, pers, rng)
	p.pairs = make([][2]int, nPairs)
	srcSkew := rand.NewZipf(rng, 1.2, 2, uint64(len(p.srcPrefixes)-1))
	dstSkew := rand.NewZipf(rng, 1.2, 2, uint64(len(p.dstPrefixes)-1))
	for i := range p.pairs {
		p.pairs[i] = [2]int{int(srcSkew.Uint64()), int(dstSkew.Uint64())}
	}
	p.apps = genApps(nApps, protos, rng)
	p.pairZipf = rand.NewZipf(rng, 1.15, 4, uint64(len(p.pairs)-1))
	p.appZipf = rand.NewZipf(rng, 1.15, 4, uint64(len(p.apps)-1))
	return p
}

// genApps builds the application pool: well-known destination services
// with wildcarded or ephemeral source ports.
func genApps(n int, protos []int64, rng *rand.Rand) []app {
	wellKnown := []int64{22, 25, 53, 80, 110, 123, 143, 179, 443, 445, 993, 1433, 3306, 3389, 5432, 8080, 8443}
	out := make([]app, 0, n)
	for len(out) < n {
		a := app{proto: protos[rng.Intn(len(protos))], sport: -1, dport: -1}
		switch rng.Intn(4) {
		case 0: // service: exact dport, wildcard sport
			a.dport = wellKnown[rng.Intn(len(wellKnown))]
		case 1: // service with pinned ephemeral sport
			a.dport = wellKnown[rng.Intn(len(wellKnown))]
			a.sport = int64(1024 + rng.Intn(64512))
		case 2: // high ephemeral dport
			a.dport = int64(1024 + rng.Intn(64512))
		case 3: // port-wildcard rule (proto-only)
		}
		out = append(out, a)
	}
	return out
}

func sqrtf(x float64) float64 {
	// Newton's iteration; avoids importing math for one call.
	if x <= 0 {
		return 0
	}
	g := x
	for i := 0; i < 30; i++ {
		g = (g + x/g) / 2
	}
	return g
}

// genPrefixes builds a nested prefix population: a handful of /8 blocks
// subdivided into /16, /24 and /32 descendants, mimicking the tries of
// real filter sets.
func genPrefixes(n int, pers Personality, rng *rand.Rand) []prefix {
	out := make([]prefix, 0, n)
	nBlocks := n/24 + 1
	blocks := make([]uint64, nBlocks)
	for i := range blocks {
		blocks[i] = uint64(rng.Intn(223)+1) << 24
	}
	// Personality-specific prefix-length mix.
	var lens []uint
	switch pers {
	case FW:
		lens = []uint{8, 16, 16, 24, 24, 32}
	case IPC:
		lens = []uint{16, 24, 24, 32, 32, 32}
	default: // ACL
		lens = []uint{8, 16, 24, 24, 32, 32}
	}
	for len(out) < n {
		base := blocks[rng.Intn(nBlocks)]
		plen := lens[rng.Intn(len(lens))]
		addr := base
		if plen > 8 {
			addr |= (uint64(rng.Intn(1 << 12))) << 12
		}
		if plen > 24 {
			addr |= uint64(rng.Intn(1 << 12))
		}
		addr &= flow.PrefixMask(flow.FieldIPDst, plen)
		out = append(out, prefix{addr: addr, plen: plen})
	}
	return out
}

// draw assembles one rule match: a host pair crossed with an application.
// With uniform set, pool members are selected uniformly instead of
// Zipf-skewed.
func (p *pools) draw(pers Personality, rng *rand.Rand, uniform bool) flow.Match {
	m := flow.MatchAll()
	pairIdx := int(p.pairZipf.Uint64())
	appIdx := int(p.appZipf.Uint64())
	if uniform {
		pairIdx = rng.Intn(len(p.pairs))
		appIdx = rng.Intn(len(p.apps))
	}
	pair := p.pairs[pairIdx]
	src := p.srcPrefixes[pair[0]]
	dst := p.dstPrefixes[pair[1]]

	// FW rules frequently wildcard the source entirely.
	if !(pers == FW && rng.Intn(3) == 0) {
		m = m.WithMaskedField(flow.FieldIPSrc, src.addr, flow.PrefixMask(flow.FieldIPSrc, src.plen))
	}
	m = m.WithMaskedField(flow.FieldIPDst, dst.addr, flow.PrefixMask(flow.FieldIPDst, dst.plen))

	a := p.apps[appIdx]
	if a.proto >= 0 {
		m = m.WithField(flow.FieldIPProto, uint64(a.proto))
	}
	if a.sport >= 0 {
		m = m.WithField(flow.FieldTpSrc, uint64(a.sport))
	}
	if a.dport >= 0 {
		m = m.WithField(flow.FieldTpDst, uint64(a.dport))
	}
	return m
}
