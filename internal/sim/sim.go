package sim

import (
	"fmt"

	"gigaflow"
	gfcache "gigaflow/internal/gigaflow"
	"gigaflow/internal/pipebench"
	"gigaflow/internal/stats"
	"gigaflow/internal/traffic"
)

// Config parameterises one simulation run.
type Config struct {
	// Cache configures the Gigaflow cache; a shape left at zero is the
	// paper's 4×8192. Ignored when MegaflowCapacity is set.
	Cache gigaflow.CacheConfig
	// MegaflowCapacity, when positive, runs the Megaflow baseline of this
	// many entries in place of Gigaflow.
	MegaflowCapacity int

	// Offloaded runs the cache on the SmartNIC (hits cost HWHitNs);
	// otherwise the cache is CPU-resident and hits pay its Tuple Space
	// Search probes (Fig. 17 mode).
	Offloaded bool

	// SampleEveryNs emits a hit-rate time series point per interval
	// (0 disables) — Fig. 18.
	SampleEveryNs int64

	// Cores spreads slowpath work across CPU cores by flow RSS hash
	// (default 1) — Fig. 19.
	Cores int
}

func (c Config) withDefaults() Config {
	if c.Cores <= 0 {
		c.Cores = 1
	}
	if c.Cache.NumTables <= 0 {
		c.Cache.NumTables = gfcache.DefaultNumTables
	}
	if c.Cache.TableCapacity <= 0 {
		c.Cache.TableCapacity = gfcache.DefaultTableCapacity
	}
	return c
}

// Name names the cache the configuration runs: "gigaflow" or "megaflow".
func (c Config) Name() string {
	if c.MegaflowCapacity > 0 {
		return "megaflow"
	}
	return "gigaflow"
}

// Label renders the configuration as the paper labels it, e.g.
// "gigaflow(4x8192)".
func (c Config) Label() string {
	if c.MegaflowCapacity > 0 {
		return fmt.Sprintf("megaflow(%d)", c.MegaflowCapacity)
	}
	return fmt.Sprintf("gigaflow(%dx%d)", c.Cache.NumTables, c.Cache.TableCapacity)
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
	// TupleProbes is the main cache's Tuple Space Search probes over the
	// run: what a CPU-resident cache's lookups cost (Fig. 17).
	TupleProbes uint64
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
// shard's: a VSwitch with the Microflow tier, conntrack and idle expiry
// off, and the main cache the capacity that is set chooses.
func newSwitch(w *pipebench.Workload, cfg Config) *gigaflow.VSwitch {
	var opts []gigaflow.VSwitchOption
	if cfg.MegaflowCapacity > 0 {
		opts = append(opts, gigaflow.WithMegaflowBackend(cfg.MegaflowCapacity))
	}
	return gigaflow.NewVSwitch(w.Pipeline, cfg.Cache, opts...)
}

// cacheWork is the main cache's cumulative lookup and install work, as its
// own counters report it: TSS tuples probed, and for Gigaflow the rules
// composed (created or found shared).
type cacheWork struct{ tuples, rules uint64 }

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

	m := DefaultCostModel()
	v := newSwitch(w, cfg)
	gf, mf := v.Cache(), v.Megaflow()
	// Per kind, chosen once: how the cache's work is read. The packet loop
	// asks which cache it drives only where the cost model itself differs.
	var work func() cacheWork
	if gf != nil {
		res.Capacity = gf.Capacity()
		work = func() cacheWork {
			st := gf.Stats()
			return cacheWork{st.TupleProbes, st.EntriesCreated + st.SharedReuse}
		}
	} else {
		res.MeanSharing = 1
		work = func() cacheWork { return cacheWork{tuples: mf.TupleProbes()} }
	}

	var lastSample int64
	var windowHits, windowTotal uint64
	var totalBytes uint64

	for i := range trace {
		pkt := &trace[i]
		now := pkt.Time
		totalBytes += uint64(pkt.Size)

		before, beforeStats := work(), v.Stats()
		r, err := v.Process(pkt.Key, now)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		after := work()

		// CPU cycles spent searching in software mode.
		swCycles := int64(after.tuples-before.tuples) * m.CyclesPerTupleProbe
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
				br.Partition = n * n * int64(cfg.Cache.NumTables) * m.CyclesPerDPCell
				br.RuleGen = int64(after.rules-before.rules) * m.CyclesPerRuleGen
			} else {
				br.RuleGen = m.CyclesPerRuleGen
			}
			res.Cycles.Add(br)
			// Charged to the core the service would shard the flow to: the
			// base rule of its shardOfKey, bit-identical on the wire to
			// packet.RSSTuple's Tuple.SymHash.
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
	res.TupleProbes = work().tuples
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
	res.Throughput = computeThroughput(res, totalBytes, m)
	return res, nil
}
