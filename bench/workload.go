package main

import (
	"fmt"
	"math/rand"

	"gigaflow"
	"gigaflow/internal/flow"
	wire "gigaflow/internal/packet"
	"gigaflow/internal/pipebench"
	"gigaflow/internal/pipelines"
	"gigaflow/internal/sim"
	"gigaflow/internal/traffic"
	"gigaflow/service"
)

// paperTableCap is the per-table LTM capacity of the paper's 4×8K cache,
// the service's default.
const paperTableCap = 8192

// batchSize is the number of frames in every SubmitFrameBatch call: the
// load model's one fixed knob (see README.md, "Load model").
const batchSize = 64

// result is one packet's outcome as a driver reports it back to the
// traffic source. Every driver — the service, a bare VSwitch, the shadow
// chain — speaks this one shape, so one source checks all of them.
type result struct {
	verdict gigaflow.Verdict
	final   gigaflow.Key
	err     error
}

// source generates a workload's frame sequence in batches and verifies
// each batch's results. The sequence is a pure function of the build seed
// and, for nat-conn, of the results fed back through check (a reply frame
// carries the backend the datapath picked).
type source interface {
	// next fills frames (len batchSize) with the next batch. The frame
	// bytes stay valid until the following next call.
	next(frames []service.Frame)
	// check verifies the results of the batch next last produced and
	// returns the number of packets that failed.
	check(res []result) int
	// clone returns an independent source that replays the same sequence
	// from its first batch.
	clone() source
	// finish runs end-of-run invariants that need the driver's counters
	// (connections the conntrack layer created while this source ran);
	// it returns a description of the violation, or "".
	finish(ctCreated uint64) string
}

// sizes are the per-workload scale parameters. The checked-in values are
// the benchmark; tests shrink them through shrunk.
type sizes struct {
	chains    int // pipebench rule chains (PaperConfig: 120000)
	flows     int // distinct flows in the traffic
	roundPkts int // packets per timed round (multiple of batchSize)
	warmPkts  int // untimed warm-up packets
	rounds    int // timed rounds in a 10-second run
	ufCap     int // Config.MicroflowCapacity
	gfCap     int // Config.Cache.TableCapacity (4 tables)
	maxConns  int // Config.Conntrack.MaxConns (0 = conntrack off)
	calReads  int // length of the calibration kernel (see speed.go)
}

// workload is one benchmark workload: its name, why it exists, its scale,
// and the builder that turns a seed into a ready-to-run instance.
type workload struct {
	name  string
	why   string
	sz    sizes
	build func(w *workload, seed int64) (*instance, error)
}

// instance is a built workload: the pipeline and service configuration
// under test plus the traffic source that drives and checks it.
type instance struct {
	w    *workload
	pipe *gigaflow.Pipeline
	cfg  service.Config
	src  source
	// updates, when non-empty, are rule mutations applied round-robin
	// every updateEvery packets (cold-churn's revalidation load).
	updates     []ruleUpdate
	updateEvery int
	// warmPkts is the untimed warm-up length: enough for the caches (and
	// nat-conn's connection table) to reach their steady state.
	warmPkts int
}

// workloads is the benchmark's workload table, mirrored by BENCHMARK.json.
// Round sizes are fixed packet counts, not durations, so every counter
// and ratio repeats exactly for a given seed; rounds is calibrated so a
// run at -seconds 10 times about ten seconds on the seed commit's box (a
// round never has fewer than 1 600 batches, so its 99th percentile has
// 16 samples beyond it).
var workloads = []*workload{
	{
		name: "warm-exact",
		why:  "2000 hot flows: every packet is a microflow hit, so decode, RSS, the service hop and the exact-match probe do all the work",
		sz:   sizes{chains: 120000, flows: 2000, roundPkts: 256000, warmPkts: 64000, rounds: 40, ufCap: 32768, gfCap: paperTableCap, calReads: calReads},
		build: func(w *workload, seed int64) (*instance, error) {
			return buildStateless(w, seed, traffic.HighLocality, false)
		},
	},
	{
		name: "warm-ltm",
		why:  "200k flows round-robin: the microflow tier thrashes and the Gigaflow LTM lookup serves every packet from a few thousand entries, the paper's regime",
		sz:   sizes{chains: 120000, flows: 200000, roundPkts: 200000, warmPkts: 200000, rounds: 25, ufCap: 32768, gfCap: paperTableCap, calReads: calReads},
		build: func(w *workload, seed int64) (*instance, error) {
			return buildStateless(w, seed, traffic.HighLocality, false)
		},
	},
	{
		name: "cold-churn",
		why:  "low-locality Pareto trace, undersized caches and periodic rule updates: ~10% of packets take the slow path, insert, evict and revalidate",
		sz:   sizes{chains: 120000, flows: 100000, roundPkts: 102400, rounds: 38, ufCap: 4096, gfCap: 1024, calReads: calReads},
		build: func(w *workload, seed int64) (*instance, error) {
			return buildStateless(w, seed, traffic.LowLocality, true)
		},
	},
	{
		name:  "nat-conn",
		why:   "rolling TCP connections through a conntrack+DNAT load balancer: the only workload where conntrack, epoch guards and NAT binding run",
		sz:    sizes{flows: natWindow, roundPkts: 102400, rounds: 25, ufCap: 32768, gfCap: paperTableCap, maxConns: 16384, calReads: calReads},
		build: buildNatConn,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// shrunk returns a copy of w scaled down by div for tests: fewer chains,
// flows and packets, same structure.
func (w *workload) shrunk(div int) *workload {
	c := *w
	c.sz.chains /= div
	c.sz.flows /= div
	if c.sz.flows < batchSize {
		c.sz.flows = batchSize
	}
	c.sz.roundPkts = roundToBatch(c.sz.roundPkts / div)
	c.sz.warmPkts /= div
	c.sz.ufCap /= div
	if c.sz.gfCap < paperTableCap {
		// Only a deliberately undersized LTM scales down with the traffic;
		// the paper's 8K tables already hold a shrunk ruleset whole.
		c.sz.gfCap /= div
	}
	c.sz.maxConns /= div
	c.sz.calReads /= div
	return &c
}

func roundToBatch(n int) int {
	if n < batchSize {
		return batchSize
	}
	return n / batchSize * batchSize
}

// roundsFor maps the -seconds argument onto a round count: the per-round
// packet count never changes (so counters repeat), only how many rounds
// are timed. The floor keeps enough rounds for a meaningful median.
func (w *workload) roundsFor(seconds int) int {
	r := (w.sz.rounds*seconds + 5) / 10
	if r < 5 {
		r = 5
	}
	return r
}

// cycleSource replays a fixed cycle of pre-encoded flows: order indexes
// flows (nil = each flow once, in order) and wraps around forever.
type cycleSource struct {
	frames [][]byte
	inPort []uint16
	want   []result // per flow, the never-cached walk's verdict and final key
	order  []uint32
	pos    int
	cur    [batchSize]uint32
}

func (s *cycleSource) cycleLen() int {
	if s.order != nil {
		return len(s.order)
	}
	return len(s.frames)
}

func (s *cycleSource) next(frames []service.Frame) {
	n := s.cycleLen()
	for i := range frames {
		fi := uint32(s.pos)
		if s.order != nil {
			fi = s.order[s.pos]
		}
		if s.pos++; s.pos == n {
			s.pos = 0
		}
		s.cur[i] = fi
		frames[i] = service.Frame{InPort: s.inPort[fi], Data: s.frames[fi]}
	}
}

func (s *cycleSource) check(res []result) int {
	failed := 0
	for i := range res {
		w := &s.want[s.cur[i]]
		if res[i].err != nil || res[i].verdict != w.verdict || res[i].final != w.final {
			failed++
		}
	}
	return failed
}

func (s *cycleSource) clone() source {
	c := *s // the frames, oracle and order are immutable and shared
	c.pos = 0
	return &c
}

func (s *cycleSource) finish(ctCreated uint64) string {
	if ctCreated != 0 {
		return fmt.Sprintf("conntrack created %d connections on a stateless workload", ctCreated)
	}
	return ""
}

// ruleUpdate is one deterministic rule mutation: delete and re-add every
// rule of one traversal's chain. The ruleset is unchanged afterwards (so
// the oracle stays valid) but the pipeline version moves, which is what
// forces the caches to revalidate.
type ruleUpdate struct {
	rules []ruleRef
}

type ruleRef struct {
	table    int
	match    gigaflow.Match
	priority int
	actions  []gigaflow.Action
	next     int
}

// apply performs the mutation on p; service.UpdateRules and the replay
// drivers call it on their own replicas.
func (u *ruleUpdate) apply(p *gigaflow.Pipeline) error {
	for _, r := range u.rules {
		old, ok := p.Table(r.table).FindRule(r.match, r.priority)
		if !ok {
			return fmt.Errorf("bench: rule update: table %d has no rule %v prio %d", r.table, r.match, r.priority)
		}
		p.DeleteRule(old)
		if _, err := p.AddRule(r.table, r.match, r.priority, r.actions, r.next); err != nil {
			return fmt.Errorf("bench: rule update: re-add: %w", err)
		}
	}
	return nil
}

// buildStateless builds the three conntrack-off workloads. They share one
// ruleset family — the PSC pipeline at paper scale — and differ in how
// many flows they send, in what order, and how large the caches are.
func buildStateless(w *workload, seed int64, loc traffic.Locality, churn bool) (*instance, error) {
	spec, ok := pipelines.ByName("PSC")
	if !ok {
		return nil, fmt.Errorf("bench: no PSC pipeline spec")
	}
	pcfg := pipebench.PaperConfig(spec, seed)
	pcfg.NumChains = w.sz.chains
	pw, err := pipebench.Generate(pcfg)
	if err != nil {
		return nil, fmt.Errorf("bench: pipebench: %w", err)
	}

	src := &cycleSource{}
	var keys []gigaflow.Key
	if churn {
		// The Pareto-expanded trace: heavy-tailed flow sizes, arrival
		// order from the traffic model, cycled.
		trace := sim.BuildTrace(pw, w.sz.flows, loc, seed)
		index := make(map[gigaflow.Key]uint32)
		src.order = make([]uint32, len(trace))
		for i := range trace {
			fi, seen := index[trace[i].Key]
			if !seen {
				fi = uint32(len(keys))
				index[trace[i].Key] = fi
				keys = append(keys, trace[i].Key)
			}
			src.order[i] = fi
		}
	} else {
		for _, f := range pw.Flows(traffic.Config{Seed: seed, NumFlows: w.sz.flows}, loc) {
			keys = append(keys, f.Key)
		}
	}
	if len(keys) == 0 {
		return nil, fmt.Errorf("bench: %s: no flows generated", w.name)
	}

	// Encode each flow once and compute its oracle answer from the key
	// the decoder will hand the datapath, with the never-cached walk.
	ref := gigaflow.NewReference(pw.Pipeline, false, 0)
	src.frames = make([][]byte, len(keys))
	src.inPort = make([]uint16, len(keys))
	src.want = make([]result, len(keys))
	arena := make([]byte, 0, len(keys)*54)
	for i, k := range keys {
		off := len(arena)
		arena = wire.AppendFrame(arena, k)
		src.frames[i] = arena[off:len(arena):len(arena)]
		src.inPort[i] = uint16(k.Get(flow.FieldInPort))
		dk, info := wire.Decode(src.frames[i], src.inPort[i])
		if !info.OK() {
			return nil, fmt.Errorf("bench: %s: flow %d does not decode cleanly: %v", w.name, i, info.Err)
		}
		r, err := ref.Process(dk, 0)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: oracle: %w", w.name, err)
		}
		src.want[i] = result{verdict: r.Verdict, final: r.Final}
	}

	inst := &instance{w: w, pipe: pw.Pipeline, src: src, warmPkts: w.sz.warmPkts}
	inst.cfg = w.serviceConfig()
	if churn {
		inst.warmPkts = src.cycleLen()
		inst.updateEvery = w.sz.roundPkts / 2
		rng := rand.New(rand.NewSource(seed))
		for len(inst.updates) < 16 {
			tr, err := pw.Pipeline.Process(keys[rng.Intn(len(keys))])
			if err != nil {
				return nil, fmt.Errorf("bench: %s: update chain: %w", w.name, err)
			}
			var u ruleUpdate
			for _, st := range tr.Steps {
				if r := st.Rule; r != nil {
					u.rules = append(u.rules, ruleRef{r.TableID, r.Match, r.Priority, r.Actions, r.Next})
				}
			}
			if len(u.rules) > 0 {
				inst.updates = append(inst.updates, u)
			}
		}
	}
	return inst, nil
}

// serviceConfig is the service configuration the workload runs under: one
// worker, the workload's cache sizes, everything else at its default
// (latency attribution on, tracing off, no expiry sweep — nothing in the
// benchmark depends on wall-clock time).
func (w *workload) serviceConfig() service.Config {
	cfg := service.Config{
		Workers:           1,
		MicroflowCapacity: w.sz.ufCap,
		Cache:             gigaflow.CacheConfig{NumTables: 4, TableCapacity: w.sz.gfCap},
	}
	if w.sz.maxConns > 0 {
		cfg.Conntrack = service.ConntrackConfig{Enable: true, MaxConns: w.sz.maxConns}
	}
	return cfg
}
