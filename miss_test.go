package gigaflow

import (
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"gigaflow/internal/conntrack"
	"gigaflow/internal/packet"
	"gigaflow/internal/pipebench"
	"gigaflow/internal/pipelines"
	"gigaflow/internal/traffic"
)

// missWorld is the PSC ruleset and a low-locality flow set many times the
// size of the caches TestMissPathAllocBudget runs them through, built once.
var missWorld struct {
	once sync.Once
	err  error
	pw   *pipebench.Workload
	keys []Key
}

func missWorldSetup() {
	spec, _ := pipelines.ByName("PSC")
	cfg := pipebench.PaperConfig(spec, 1)
	cfg.NumChains = 6000
	missWorld.pw, missWorld.err = pipebench.Generate(cfg)
	if missWorld.err != nil {
		return
	}
	for _, f := range missWorld.pw.Flows(traffic.Config{Seed: 1, NumFlows: 6144}, traffic.LowLocality) {
		missWorld.keys = append(missWorld.keys, f.Key)
	}
}

// TestMissPathAllocBudget holds the inline slow path to its allocation
// contract in the steady state — PSC ruleset, every cache tier full, every
// install evicting: a miss allocates at most one object per cache entry it
// creates on Gigaflow, the entry, which holds its commit and embeds its
// classifier node, and two on Megaflow, the entry and its classifier node;
// a hit allocates nothing, the overflow fallback's lookup of a flow an
// earlier packet installed included. The Gigaflow switch runs twice, the
// second time as the service runs it (WithStallResume), where a stalled
// miss walks and installs only its suffix. Packets go through ProcessBatchMeta
// one at a time so each one's allocations can be read off the runtime's
// malloc counter. The walk, the partition and the probes run on scratch the
// switch and the cache own; before they did, a miss here cost 30–45
// allocations whatever it installed.
//
// The one thing beyond its entries a miss may pay for is classifier
// growth: an entry whose mask no resident entry shares starts a TSS tuple
// (the tuple, its table and slot array, a map cell, a slot in the probe
// order), and a tuple that fills doubles its table. Rare masks come and go
// under eviction, so a steady state can keep a trickle of these; the test
// lets at most one miss in a hundred exceed the per-entry budget, by no
// more than a tuple's worth, and holds the total to the budget regardless,
// which this world, where no warm miss grows a classifier, meets exactly.
//
// The malloc counter is the process's, not the goroutine's — Go has no
// other — so whatever else allocates while a packet is being read lands
// on that packet: a goroutine an earlier test left behind, and the
// runtime's own work around a collection (the unique package's map
// cleanup, the scavenger re-arming its timer, a mark worker starting),
// which can still be finishing a cycle the warm-up started after the
// collector is turned off. A miss spends exactly its budget, so neither
// leg's total has room for one foreign object. The product is
// deterministic, so every packet is read twice, on two switches driven
// identically, and the lesser reading is the packet's: a foreign
// allocation would have to land on both. The fallback's lookup is
// read as the least of five for the same reason, and hits are still held
// only to one allocating hit in a hundred (a hit path that allocates does
// so on every one).
func TestMissPathAllocBudget(t *testing.T) {
	missWorld.once.Do(missWorldSetup)
	if missWorld.err != nil {
		t.Fatal(missWorld.err)
	}
	keys := missWorld.keys
	for _, backend := range []string{"gigaflow", "gigaflow/resume", "megaflow"} {
		t.Run(backend, func(t *testing.T) {
			opts := []VSwitchOption{WithMicroflow(256)}
			budget := uint64(1) // objects per created entry
			switch backend {
			case "gigaflow/resume": // the service's switch: a stalled miss walks and installs its suffix
				opts = append(opts, WithStallResume())
			case "megaflow":
				opts = append(opts, WithMegaflowBackend(1024))
				budget = 2
			}
			created := func(vs *VSwitch) uint64 {
				if c := vs.Cache(); c != nil {
					return c.Stats().EntriesCreated
				}
				return vs.Megaflow().Stats().Inserts
			}
			out := make([]ProcessResult, 64)
			errs := make([]error, 64)
			now := int64(0)
			warm := func() *VSwitch {
				vs := NewVSwitch(missWorld.pw.Pipeline, CacheConfig{NumTables: 4, TableCapacity: 256}, opts...)
				now = 0
				for pass := 0; pass < 2; pass++ { // fill every tier, grow every scratch
					for i := 0; i+64 <= len(keys); i += 64 {
						now++
						vs.ProcessBatchMeta(keys[i:i+64], nil, out, errs, now)
					}
				}
				return vs
			}
			vs, twin := warm(), warm() // the switch under test and its identically-driven twin

			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			var m0, m1 runtime.MemStats
			// read runs one packet through one switch and reports the
			// objects the process allocated meanwhile, the entries the
			// packet created and whether it missed.
			read := func(vs *VSwitch, k []Key) (allocs, made uint64, miss bool) {
				s0, c0 := vs.Stats(), created(vs)
				runtime.ReadMemStats(&m0)
				vs.ProcessBatchMeta(k, nil, out, errs, now)
				runtime.ReadMemStats(&m1)
				if errs[0] != nil {
					t.Fatal(errs[0])
				}
				return m1.Mallocs - m0.Mallocs, created(vs) - c0, vs.Stats().CacheMisses != s0.CacheMisses
			}
			const tupleWorth = 8
			var misses, shared, grew, entries, allocs, worst, hits, dirtyHits, foreign uint64
			for i := range keys {
				now++
				n, made, miss := read(vs, keys[i:i+1])
				n2, made2, miss2 := read(twin, keys[i:i+1])
				if made2 != made || miss2 != miss {
					t.Fatalf("packet %d: the two switches diverged: %d entries, miss %v; twin %d entries, miss %v",
						i, made, miss, made2, miss2)
				}
				if n != n2 {
					foreign++
					n = min(n, n2)
				}
				if !miss {
					hits++
					if n != 0 {
						dirtyHits++
					}
					continue
				}
				misses++
				entries += made
				allocs += n
				if made == 0 {
					shared++
				}
				if n > worst {
					worst = n
				}
				if n > budget*made {
					grew++
				}
				if n > budget*made+tupleWorth {
					t.Errorf("packet %d: a miss creating %d entries allocated %d objects, budget %d", i, made, n, budget*made)
				}
			}
			if misses < uint64(len(keys))/4 || entries == 0 {
				t.Fatalf("not a miss-heavy steady state: %d misses, %d entries over %d packets", misses, entries, len(keys))
			}
			if resumed := vs.Stats().Resumed; (backend == "gigaflow/resume") != (resumed > 0) {
				t.Fatalf("%d misses resumed", resumed)
			}
			t.Logf("%d misses (%d all-shared, %d growing a classifier) created %d entries with %d allocations, worst miss %d; %d packets read differently on the two switches",
				misses, shared, grew, entries, allocs, worst, foreign)
			if dirtyHits*100 > hits {
				t.Errorf("%d of %d hits allocated", dirtyHits, hits)
			}
			if allocs > budget*entries || grew*100 > misses {
				t.Errorf("%d misses creating %d entries allocated %d objects (budget %d), %d of them over their own budget (allowed %d)",
					misses, entries, allocs, budget*entries, grew, misses/100)
			}

			// The upcall overflow fallback on a flow an earlier packet of its
			// batch installed: Process, the flow's microflow memo dropped so
			// the main cache answers, finds it resident — a hit that creates
			// and allocates nothing.
			k := keys[len(keys)-1]
			c0, least := created(vs), ^uint64(0)
			for try := 0; try < 5; try++ {
				vs.Microflow().Remove(k)
				s0 := vs.Stats()
				runtime.ReadMemStats(&m0)
				_, err := vs.Process(k, now)
				runtime.ReadMemStats(&m1)
				if err != nil || created(vs) != c0 || vs.Stats().CacheHits != s0.CacheHits+1 {
					t.Fatalf("resident flow: err %v, %d entries created, %+v", err, created(vs)-c0, vs.Stats().Sub(s0))
				}
				if n := m1.Mallocs - m0.Mallocs; n < least {
					least = n
				}
			}
			if least != 0 {
				t.Errorf("the fallback's lookup of a resident flow allocated %d objects, want 0", least)
			}
		})
	}
}

// natLB is the load balancer of the benchmark's nat-conn workload: replies
// (+trk+rpl) are un-NATed by ct_nat, forward packets to VIP:80 are pinned
// to one of the given number of backends by dnat and leave on that
// backend's port.
func natLB(backends int) *Pipeline {
	p := NewPipeline("natlb")
	p.AddTable(0, "classify", NewFieldSet(FieldEthType, FieldIPProto, FieldIPDst, FieldTpDst, FieldCtState))
	p.AddTable(1, "lb", NewFieldSet(FieldIPDst))
	p.AddTable(2, "egress", NewFieldSet(FieldIPDst))
	p.AddTable(3, "reverse", NewFieldSet(FieldIPSrc))
	p.MustAddRule(0, MustParseMatch("eth_type=0x0800,ip_proto=6,ct_state=0x11/0x11"), 20, nil, 3)
	p.MustAddRule(0, MustParseMatch("eth_type=0x0800,ip_proto=6,ip_dst=10.9.0.1,tp_dst=80,ct_state=0x01/0x11"), 10, nil, 1)
	p.MustAddRule(0, MatchAll(), 1, []Action{Drop()}, NoTable)
	p.MustAddRule(1, MatchAll(), 10, []Action{DNAT(1)}, 2)
	pool := make([]NATTarget, backends)
	for i := range pool {
		pool[i] = NATTarget{IP: 0x0a140001 + uint64(i), Port: 8001 + uint64(i)}
		p.MustAddRule(2, MatchAll().WithField(FieldIPDst, pool[i].IP), 10, []Action{Output(uint16(100 + i))}, NoTable)
	}
	p.MustAddRule(2, MatchAll(), 1, []Action{Drop()}, NoTable)
	p.SetNATPool(1, pool)
	p.MustAddRule(3, MatchAll(), 10, []Action{CtNAT(), Output(1)}, NoTable)
	return p
}

// TestConnAllocBudget is TestMissPathAllocBudget's conntrack NAT case: in
// the steady state — the connection table full, every new connection
// evicting the oldest and taking its storage — a connection allocates
// nothing, on its first packet or any other. Its two walks resolve a NAT
// action, so they are held on the connection and install nothing in the
// main cache; its other ten packets are served from what they left there.
// Connections run one after another, twelve packets each (the benchmark's
// SYN, SYN-ACK, ACK, eight data packets alternating direction, FIN), each
// packet a batch of one with its TCP flags; as in TestMissPathAllocBudget,
// every packet is read on two identically driven switches and the lesser
// reading is its own.
func TestConnAllocBudget(t *testing.T) {
	const warm, measured = 512, 512
	for _, backend := range []string{"gigaflow", "megaflow"} {
		t.Run(backend, func(t *testing.T) {
			opts := []VSwitchOption{WithMicroflow(256), WithConntrack(64)}
			if backend == "megaflow" {
				opts = append(opts, WithMegaflowBackend(1024))
			}
			cfg := CacheConfig{NumTables: 4, TableCapacity: 256}
			sw := [2]*VSwitch{NewVSwitch(natLB(4), cfg, opts...), NewVSwitch(natLB(4), cfg, opts...)}
			keys, flags := make([]Key, 1), make([]uint8, 1)
			out, errs := make([]ProcessResult, 1), make([]error, 1)
			var m0, m1 runtime.MemStats
			now := int64(0)
			// send runs one packet through both switches and reports the
			// lesser of their allocation counts.
			send := func(k Key, fl uint8) uint64 {
				now++
				least := ^uint64(0)
				for _, vs := range sw {
					keys[0], flags[0] = k, fl
					runtime.ReadMemStats(&m0)
					vs.ProcessBatchMeta(keys, flags, out, errs, now)
					runtime.ReadMemStats(&m1)
					if errs[0] != nil || out[0].Verdict.Kind != VerdictOutput {
						t.Fatalf("packet %s: %+v, %v", k, out[0], errs[0])
					}
					least = min(least, m1.Mallocs-m0.Mallocs)
				}
				return least
			}
			vip := Key{}.With(FieldEthType, 0x0800).With(FieldIPProto, 6).With(FieldIPDst, 0x0a090001).With(FieldTpDst, 80)
			// conn runs connection c's packets and reports what its first
			// packet and the other eleven allocated.
			conn := func(c uint64) (first, rest uint64) {
				fwd := vip.With(FieldIPSrc, 0x0a800000+c).With(FieldTpSrc, 1024+c%4096)
				first = send(fwd, packet.TCPSyn)
				cn, _, ok := sw[0].Conntrack().Lookup(fwd)
				if !ok {
					t.Fatalf("connection %d: not tracked after its SYN", c)
				}
				nk := cn.NATKey(conntrack.DirForward)
				rpl := fwd.With(FieldIPSrc, nk.Get(FieldIPDst)).With(FieldIPDst, nk.Get(FieldIPSrc)).
					With(FieldTpSrc, nk.Get(FieldTpDst)).With(FieldTpDst, nk.Get(FieldTpSrc))
				rest += send(rpl, packet.TCPSyn|packet.TCPAck)
				rest += send(fwd, packet.TCPAck)
				for i := 3; i < 11; i++ {
					k := fwd
					if i%2 == 0 {
						k = rpl
					}
					rest += send(k, packet.TCPAck)
				}
				return first, rest + send(fwd, packet.TCPFin|packet.TCPAck)
			}
			for c := uint64(0); c < warm; c++ {
				conn(c)
			}
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			s0 := sw[0].Stats()
			var firsts, rests, over uint64
			for c := uint64(warm); c < warm+measured; c++ {
				first, rest := conn(c)
				firsts, rests = firsts+first, rests+rest
				if first != 0 || rest != 0 {
					over++
				}
			}
			if over != 0 {
				t.Errorf("%d of %d connections allocated objects: %d on their first packets and %d on the other eleven in all",
					over, measured, firsts, rests)
			}
			d := sw[0].Stats().Sub(s0)
			if d.CacheMisses != 2*measured || d.MicroflowHits != 10*measured || d.CtFastpath != 10*measured || d.Installs != 0 {
				t.Errorf("not one walk per direction, held: %+v", d)
			}
			t.Logf("%d connections allocated %d objects on their first packets, %d on the rest", measured, firsts, rests)
		})
	}
}
