package sim

import (
	"fmt"

	"gigaflow"
	"gigaflow/internal/flow"
	"gigaflow/internal/pipebench"
	"gigaflow/internal/stats"
	"gigaflow/internal/traffic"
)

// CacheKind selects the hardware-cache architecture under test.
type CacheKind uint8

const (
	// Megaflow is the single-table wildcard cache baseline.
	Megaflow CacheKind = iota
	// Gigaflow is the K-table LTM sub-traversal cache.
	Gigaflow
)

// String names the kind.
func (k CacheKind) String() string {
	if k == Gigaflow {
		return "gigaflow"
	}
	return "megaflow"
}

// SearchAlgo selects the software cache search algorithm (Fig. 17).
type SearchAlgo uint8

const (
	// TSS is Tuple Space Search.
	TSS SearchAlgo = iota
	// NM is the NuevoMatch learned index.
	NM
)

// String names the algorithm.
func (s SearchAlgo) String() string {
	if s == NM {
		return "NM"
	}
	return "TSS"
}

// Config parameterises one simulation run.
type Config struct {
	Kind CacheKind

	// Gigaflow shape (ignored for Megaflow).
	NumTables     int
	TableCapacity int
	Scheme        gigaflow.Scheme
	Seed          int64

	// Megaflow capacity (ignored for Gigaflow).
	MegaflowCapacity int

	// Offloaded runs the cache on the SmartNIC (hits cost HWHitNs);
	// otherwise the cache is CPU-resident and hits pay the software search
	// cost of the selected algorithm (Fig. 17 mode).
	Offloaded bool
	Search    SearchAlgo

	// MaxIdleNs enables idle expiry (0 disables); sweeps run every
	// ExpireEveryNs (default 1 s).
	MaxIdleNs     int64
	ExpireEveryNs int64

	// SampleEveryNs emits a hit-rate time series point per interval
	// (0 disables) — Fig. 18.
	SampleEveryNs int64

	// Cores spreads slowpath work across CPU cores by flow RSS hash
	// (default 1) — Fig. 19.
	Cores int

	// LineRateGbps caps the throughput model (default 100, the paper's
	// prototype).
	LineRateGbps float64

	Model CostModel
}

func (c Config) withDefaults() Config {
	if c.Model.CPUGHz == 0 {
		c.Model = DefaultCostModel()
	}
	if c.Cores <= 0 {
		c.Cores = 1
	}
	if c.MaxIdleNs > 0 && c.ExpireEveryNs <= 0 {
		c.ExpireEveryNs = 1_000_000_000
	}
	if c.LineRateGbps <= 0 {
		c.LineRateGbps = 100
	}
	if c.Kind == Gigaflow {
		if c.NumTables <= 0 {
			c.NumTables = 4
		}
		if c.TableCapacity <= 0 {
			c.TableCapacity = 8192
		}
	} else if c.MegaflowCapacity <= 0 {
		c.MegaflowCapacity = 32768
	}
	return c
}

// Label renders the configuration as the paper labels it, e.g.
// "gigaflow(4x8192)/TSS".
func (c Config) Label() string {
	if c.Kind == Gigaflow {
		return fmt.Sprintf("gigaflow(%dx%d)/%s", c.NumTables, c.TableCapacity, c.Search)
	}
	return fmt.Sprintf("megaflow(%d)/%s", c.MegaflowCapacity, c.Search)
}

// CoreLoad is one CPU core's slowpath share (Fig. 19).
type CoreLoad struct {
	Misses uint64
	Cycles int64
}

// Result is the outcome of one run.
type Result struct {
	Config  Config
	Packets uint64
	Hits    uint64
	Misses  uint64
	// Stalls counts Gigaflow misses that matched a partial entry chain.
	Stalls uint64
	// Entries/Capacity describe final cache occupancy (Fig. 10).
	Entries  int
	Capacity int
	// Coverage is the rule-space coverage at the end of the run (Table 2);
	// for Megaflow it equals Entries.
	Coverage uint64
	// MeanSharing is the average number of traversals installed per cache
	// entry (Fig. 11); 1.0 for Megaflow by construction.
	MeanSharing float64
	// InsertFailures counts traversals that could not be cached.
	InsertFailures uint64
	// Latency is the per-packet end-to-end latency distribution (Fig. 12).
	Latency stats.Histogram
	// Cycles decomposes slowpath CPU work (Fig. 13).
	Cycles CycleBreakdown
	// PerCore is the slowpath load per CPU core (Fig. 19).
	PerCore []CoreLoad
	// Series is the windowed hit-rate time series (Fig. 18).
	Series stats.Series
	// Throughput is the aggregate-forwarding model derived from the run.
	Throughput Throughput
}

// HitRate returns Hits/Packets.
func (r *Result) HitRate() float64 {
	if r.Packets == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Packets)
}

// newSwitch builds the datapath under test the way service.New builds a
// shard's: a VSwitch with the Microflow tier and conntrack off, the main
// cache chosen by option, idle expiry by WithMaxIdle.
func newSwitch(w *pipebench.Workload, cfg Config) *gigaflow.VSwitch {
	opts := []gigaflow.VSwitchOption{gigaflow.WithMaxIdle(cfg.MaxIdleNs)}
	if cfg.Kind == Megaflow {
		opts = append(opts, gigaflow.WithMegaflowBackend(cfg.MegaflowCapacity))
	}
	return gigaflow.NewVSwitch(w.Pipeline, gigaflow.CacheConfig{
		NumTables:     cfg.NumTables,
		TableCapacity: cfg.TableCapacity,
		Scheme:        cfg.Scheme,
		Seed:          cfg.Seed,
	}, opts...)
}

// cacheWork is the main cache's cumulative lookup and install work, as its
// own counters report it: TSS tuples probed, and for Gigaflow the LTM
// tables consulted and the rules composed (created or found shared).
type cacheWork struct{ tuples, tables, rules uint64 }

// Run drives the trace through a fresh VSwitch of the configured kind —
// the datapath the service ships — and observes it: the simulator owns
// virtual time, the trace and the cost model, and charges each packet
// from ProcessResult.CacheHit and the change in counters the switch and
// its cache keep.
func Run(w *pipebench.Workload, trace []traffic.Packet, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if len(trace) == 0 {
		return nil, fmt.Errorf("sim: empty trace")
	}
	res := &Result{Config: cfg, Capacity: cfg.MegaflowCapacity, PerCore: make([]CoreLoad, cfg.Cores)}
	res.Series.Name = cfg.Label()

	m := cfg.Model
	v := newSwitch(w, cfg)
	gf, mf := v.Cache(), v.Megaflow()
	// Per kind, chosen once: how the cache's work is read and, under
	// Search == NM, what a NuevoMatch search of it would cost. The packet
	// loop asks which cache it drives only where the cost model itself
	// differs.
	var work func() cacheWork
	var nmCycles func(k flow.Key, tables int64) int64
	var nm *nmIndex
	if gf != nil {
		res.Capacity = gf.Capacity()
		work = func() cacheWork {
			st := gf.Stats()
			return cacheWork{st.TupleProbes, st.TablesProbed, st.EntriesCreated + st.SharedReuse}
		}
		if cfg.Search == NM {
			// NM replaces each LTM table's scan with model work; tables
			// with fewer live tuples than that stay on TSS.
			nmCycles = func(_ flow.Key, tables int64) int64 { return tables * gfNMCostPerTable * m.CyclesPerNMUnit }
		}
	} else {
		res.MeanSharing = 1
		work = func() cacheWork { return cacheWork{tuples: mf.TupleProbes()} }
		if cfg.Search == NM {
			// NuevoMatch is a hybrid: rules live in learned iSets only
			// where that beats scanning them in the TSS remainder.
			nm = newNMIndex(0)
			nmCycles = func(k flow.Key, _ int64) int64 {
				rmiUnits, deltaProbes := nm.lookupCost(k)
				return rmiUnits*m.CyclesPerNMUnit + deltaProbes*m.CyclesPerTupleProbe
			}
		}
	}

	var lastExpire, lastSample int64
	var windowHits, windowTotal uint64
	var totalBytes uint64

	for i := range trace {
		pkt := &trace[i]
		now := pkt.Time
		totalBytes += uint64(pkt.Size)

		if cfg.MaxIdleNs > 0 && now-lastExpire >= cfg.ExpireEveryNs {
			lastExpire = now
			v.ExpireIdle(now)
		}

		// Snapshots bracket exactly one Process: the Peek below probes the
		// Megaflow classifier too, and must fall outside them.
		before, beforeStats := work(), v.Stats()
		r, err := v.Process(pkt.Key, now)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		after := work()

		// CPU cycles spent searching in software mode; NuevoMatch never
		// costs more than the plain TSS it falls back to.
		swCycles := int64(after.tuples-before.tuples) * m.CyclesPerTupleProbe
		if nmCycles != nil {
			if c := nmCycles(pkt.Key, int64(after.tables-before.tables)); c < swCycles {
				swCycles = c
			}
		}
		var latency int64
		if cfg.Offloaded {
			latency = m.HWHitNs
		} else {
			latency = m.SwCacheBaseNs + m.CyclesToNs(swCycles)
		}

		if r.CacheHit {
			windowHits++
		} else {
			// Slowpath: full pipeline traversal, cache-rule generation,
			// installation.
			d := v.Stats().Sub(beforeStats)
			var br CycleBreakdown
			br.Pipeline = int64(d.SlowpathTupleProbes)*m.CyclesPerTupleProbe + int64(d.SlowpathSteps)*m.CyclesPerTableVisit
			if gf != nil {
				n := int64(d.SlowpathSteps)
				br.Partition = n * n * int64(cfg.NumTables) * m.CyclesPerDPCell
				br.RuleGen = int64(after.rules-before.rules) * m.CyclesPerRuleGen
			} else {
				br.RuleGen = m.CyclesPerRuleGen
				if nm != nil && d.InstallErrs == 0 {
					// A key that just missed matches only its own new entry.
					e, _ := mf.Peek(pkt.Key)
					nm.noteInsert(e, mf)
				}
			}
			res.Cycles.Add(br)
			// Charged to the core the service would shard the flow to: the
			// base rule of its shardOfKey, bit-identical to packet.RSSHash
			// on the wire.
			core := &res.PerCore[pkt.Key.SymHash()%uint64(cfg.Cores)]
			core.Misses++
			core.Cycles += br.Total()
			if cfg.Offloaded {
				latency += m.PuntNs
			}
			latency += m.SlowBaseNs + m.CyclesToNs(br.Total())
		}
		res.Latency.Add(float64(latency))

		windowTotal++
		if cfg.SampleEveryNs > 0 && now-lastSample >= cfg.SampleEveryNs {
			res.Series.Add(float64(now)/1e9, float64(windowHits)/float64(windowTotal))
			windowHits, windowTotal = 0, 0
			lastSample = now
		}
	}

	st := v.Stats()
	res.Packets, res.Hits, res.Misses, res.InsertFailures = st.Packets, st.CacheHits, st.CacheMisses, st.InstallErrs
	res.Entries, res.Coverage = v.CacheEntries(), v.Coverage()
	if gf != nil {
		res.Stalls = gf.Stats().Stalls
		if res.Entries > 0 {
			var installs uint64
			for _, e := range gf.AllEntries() {
				installs += e.Installs
			}
			res.MeanSharing = float64(installs) / float64(res.Entries)
		}
	}
	res.Throughput = computeThroughput(res, totalBytes, cfg.LineRateGbps, m)
	return res, nil
}
