package service

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"path"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"gigaflow"
	"gigaflow/internal/conntrack"
	wire "gigaflow/internal/packet"
	"gigaflow/internal/pcap"
	"gigaflow/internal/telemetry"
)

// The oracle. Caching is only a shortcut: whichever tier served a packet
// and whichever way it came in, it must get the verdict a never-cached
// pipeline walk (gigaflow.Reference) gives. One seeded generator writes an
// op tape — packets in frames, whole and damaged; TCP handshakes, closes
// and resets; rule updates; idle sweeps — and every cell of the matrix
// replays it, through the VSwitch's own entry points on virtual time or
// into a service by one of its entry points, with faults declared as data.
// Every packet is held to the Reference, the cells of a group to each
// other, and every service tape to the ledger. DESIGN.md "The oracle"
// says what the matrix leaves out, and why.

type opKind uint8

const (
	opPacket    opKind = iota
	opSweep            // the idle sweep, at the op's virtual time (VSwitch cells)
	opRules            // a rule update: flip, once on the service's pipeline
	opRulesFail        // a rule update whose function flips and then fails
)

// op is one step of a tape. A packet travels as frame; k and flags are
// what the frame decodes to: what the key entry points, the VSwitch and
// the Reference are handed.
type op struct {
	kind  opKind
	frame []byte
	k     gigaflow.Key
	flags uint8
	short bool  // too short for Ethernet: refused at ingest
	now   int64 // virtual time
}

// tapeSpec is what a tape is made of.
type tapeSpec struct {
	pipe     func() *gigaflow.Pipeline
	flow     func(id int) gigaflow.Key // a stateless tape's flows; nil for a stateful one
	flows    int                       // flow ids, or a stateful tape's clients
	packets  int
	thrash   int  // > 0: lead with three windows round robin over 4×thrash flows
	sweep    bool // an idle sweep every 500 packets
	damage   bool // every eighth frame damaged, each of packetOp's ways in turn
	rules    int  // rule updates, spread evenly; every second one fails
	lateBind bool // the tape must bind connections that are already established
}

// coverage counts the stateful events a tape was generated to contain and
// a tamer one might not — and the connections whose replies the router
// sends to another shard.
type coverage struct{ rstInNew, responderReopen, lateBind, misrouted int }

// maxIdle is the VSwitch cells' idle timeout, in virtual nanoseconds.
const maxIdle = 500 * time.Microsecond

// genTape writes spec's tape. A stateful tape grows against an oracle laid
// out as cfg lays out the service — what the next packet is depends on
// connection state: is there a connection to reply on, which backend was
// it bound to — and replays run it against fresh ones.
func genTape(spec tapeSpec, seed uint64, cfg Config) ([]op, coverage) {
	o := newOracle(spec.pipe, cfg)
	rng := xorshift(seed*0x9e3779b97f4a7c15 | 1)
	var tape []op
	var cov coverage
	for i := 0; spec.thrash > 0 && i < 3*4096; i++ {
		tape = append(tape, packetOp(spec.flow(i%(4*spec.thrash)), 0, int64(i), 0))
	}
	now, prev, updates := int64(len(tape)), 0, 0
	for i := 0; i < spec.packets; i++ {
		if spec.rules > 0 && i > 0 && i%(spec.packets/(spec.rules+1)) == 0 {
			tape = append(tape, op{kind: opRules + opKind(updates%2)})
			updates++
			o.flip()
		}
		var damage uint64
		if spec.damage && i%8 == 7 {
			damage = 1 + uint64(i/8)%7
		}
		if spec.flow != nil { // a random flow or the last one again, flag bytes to ignore
			if rng.next()%3 != 0 {
				prev = int(rng.next() % uint64(spec.flows))
			}
			tape = append(tape, packetOp(spec.flow(prev), uint8(rng.next()), int64(len(tape)), damage))
			continue
		}
		// Handshakes, data, closes and resets from either side, tuple reuse
		// by either side, and idle expiry across many connections.
		now += int64(rng.next()%20_000) + 1
		client := int(rng.next() % uint64(spec.flows))
		proto := uint64(wire.IPProtoTCP)
		if client%3 == 0 {
			proto = wire.IPProtoUDP
		}
		tcp, fwd := proto == wire.IPProtoTCP, ctKey(client, proto)
		ct := o.refs[o.route(&fwd)].Conntrack()
		rpl, ok := replyKeyFor(ct, fwd) // post-NAT when bound
		if !ok {
			rpl = invertTuple(fwd)
		} else if o.route(&rpl) != o.route(&fwd) {
			cov.misrouted++ // the shard the reply lands on does not know the connection
		}
		conn, _, _ := ct.Lookup(fwd)
		k, flags := fwd, uint8(wire.TCPSyn)
		switch roll := rng.next() % 12; {
		case roll < 4: // forward data, or a first packet
			if conn != nil {
				flags = wire.TCPAck
			}
		case roll < 8: // reply
			k, flags = rpl, wire.TCPAck
		case roll < 9 && tcp: // close, from either side
			flags = wire.TCPFin | wire.TCPAck
			if rng.next()%2 == 0 {
				flags = wire.TCPRst
			}
			if rng.next()%2 == 0 {
				k = rpl
			}
		case roll < 10 && tcp && conn != nil && conn.State == conntrack.StateNew:
			k, flags = rpl, wire.TCPRst|wire.TCPAck // refused: the responder resets a half-open connection
		case roll < 11 && tcp:
			k = rpl // the old responder opens the tuple itself
		}
		if !tcp {
			flags = 0
		}
		if spec.sweep && i%500 == 499 {
			tape = append(tape, op{kind: opSweep, now: now})
			o.sweep(now, cfg.Conntrack.MaxIdle)
			conn, _, _ = ct.Lookup(fwd)
		}
		if conn != nil && conn.State == conntrack.StateNew && flags&wire.TCPRst != 0 {
			cov.rstInNew++
		}
		lateBindable := conn != nil && conn.State == conntrack.StateEstablished && !conn.DNAT.Set
		reopened := ct.Stats().Reopened
		x := packetOp(k, flags, now, damage)
		if tape = append(tape, x); !x.short {
			o.walk(&x, false)
		}
		if lateBindable && conn.DNAT.Set {
			cov.lateBind++
		}
		if k == rpl && ct.Stats().Reopened != reopened {
			cov.responderReopen++
		}
	}
	return tape, cov
}

// packetOp puts a packet in a frame — damaged one of seven ways when
// damage is set — and records what the frame decodes to.
func packetOp(k gigaflow.Key, flags uint8, now int64, damage uint64) op {
	if damage == 6 {
		k = k.With(gigaflow.FieldEthType, 0x0806) // not IPv4: decoded on the submitter
	}
	frame := wire.Encode(k)
	if len(frame) > 47 && k.Get(gigaflow.FieldIPProto) == wire.IPProtoTCP {
		frame[47] = flags // Ethernet 14 + IPv4 20 + 13 bytes into the TCP header
	}
	vlan := func(f []byte) []byte { return append(append(append([]byte{}, f[:12]...), 0x81, 0, 0, 0x2a), f[12:]...) }
	switch damage {
	case 1:
		frame = frame[:20] // IPv4 header cut short
	case 2:
		frame = frame[:9] // no Ethernet header: refused
	case 3:
		frame = vlan(frame)
	case 4:
		frame[20], frame[21] = 0, 0xb9 // not the first fragment
	case 5:
		frame = frame[:36] // transport header cut short
	case 7:
		frame = vlan(frame)[:15] // VLAN tag cut short
	}
	dk, info := wire.Decode(frame, 0)
	return op{frame: frame, k: dk, flags: info.TCPFlags, short: info.Err == wire.ErrShortFrame, now: now}
}

// xorshift is a tiny deterministic PRNG: a tape is a function of its seed.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

// flip is the tape's rule update, the same for every pipeline: it adds —
// or takes away again — a shadow of the start table's first rule, which
// matches the same packets first and sends them out of port 70.
func flip(p *gigaflow.Pipeline) error {
	const shadow = 1000
	if top := p.Table(p.Start).Rules()[0]; top.Priority == shadow {
		p.DeleteRule(top)
	} else {
		p.MustAddRule(p.Start, top.Match, shadow, []gigaflow.Action{gigaflow.Output(70)}, gigaflow.NoTable)
	}
	return nil
}

var errFlip = errors.New("the update failed after its change")

// failFlip is opRulesFail's update function: flip, and then an error.
func failFlip(p *gigaflow.Pipeline) error {
	flip(p)
	return errFlip
}

// oracle is the never-cached walk a cell is held to: one Reference per
// shard, over that shard's sub-range of every NAT pool, fed what the
// service routes to the shard.
type oracle struct {
	pipes []*gigaflow.Pipeline
	refs  []*gigaflow.Reference
	route func(*gigaflow.Key) int
}

// newOracle lays an oracle out as a service on cfg lays out its shards,
// building the service for its router (the offload moves no packet).
func newOracle(mk func() *gigaflow.Pipeline, cfg Config) *oracle {
	cfg.Upcall = UpcallConfig{}
	s, err := New(mk(), cfg)
	if err != nil {
		panic(err)
	}
	o := &oracle{route: s.shardOfKey}
	for w := range s.workers {
		p := mk()
		for _, id := range p.NATPoolIDs() {
			p.SetNATPool(id, p.NATShard(id, w, len(s.workers)))
		}
		o.pipes = append(o.pipes, p)
		o.refs = append(o.refs, gigaflow.NewReference(p, cfg.Conntrack.Enable, 0))
	}
	return o
}

// walk runs x through the Reference of its shard; flagless hands it over
// without its TCP flags, as Submit and park mode do.
func (o *oracle) walk(x *op, flagless bool) (gigaflow.ProcessResult, error) {
	flags := x.flags
	if flagless {
		flags = 0
	}
	return o.refs[o.route(&x.k)].ProcessMeta(x.k, flags, x.now)
}

func (o *oracle) sweep(now int64, maxIdle time.Duration) {
	for _, r := range o.refs {
		r.ExpireIdle(now, maxIdle.Nanoseconds())
	}
}

func (o *oracle) flip() {
	for _, p := range o.pipes {
		flip(p)
	}
}

// ctView is what a cached datapath's connection table shares with the
// Reference's: all but the probe counts, which the microflow guard saves.
func ctView(st conntrack.Stats) conntrack.Stats {
	st.Lookups, st.Hits = 0, 0
	return st
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// entry is the way a cell's packets go in.
type entry string

const (
	viaVSwitch          entry = "vswitch" // the cell's vsDriver, on virtual time
	viaSubmit           entry = "Submit"  // carries no TCP flags
	viaSubmitFrame      entry = "SubmitFrame"
	viaSubmitBatch      entry = "SubmitBatch"
	viaSubmitFrameBatch entry = "SubmitFrameBatch"
	viaReplay           entry = "Replay" // an in-memory pcap per run of packets between rule updates
)

func (e entry) frames() bool {
	return e == viaSubmitFrame || e == viaSubmitFrameBatch || e == viaReplay
}

// vsDriver is one way of feeding a VSwitch.
type vsDriver struct {
	sizes    []int // one at a time through the single-packet entry points, else in batches
	recorded bool  // latency recorder on: flight records and histograms compared
	traced   bool  // every packet sampled
	park     bool  // ProcessPark or ProcessBatchPark, the second chance, CompleteMiss, the Process fallback
}

// fault is the trouble a cell runs into, as data: each field names the op
// it lands on, or the length of a window (0: none).
type fault struct {
	closeAt  int // Close the service before this op; the calls after it alternate blocking and Nonblocking
	cancelAt int // the call carrying this op gets a cancelled context
	// wedge holds the service's rules lock over the wedge packet ops
	// before the first rule update, which go in Nonblocking, so the engine
	// walks nothing they park; the update lands while it walks them.
	wedge int
	// stall holds every shard's worker in a control op over the stall
	// packet ops before the first rule update, which go in Nonblocking
	// into queues nothing drains; it lets go before the update.
	stall int
}

// cell is one way of running a tape; the cells of a group run one tape
// and must agree with each other.
type cell struct {
	group, name string
	tape        tapeSpec
	cfg         Config
	entry       entry
	driver      vsDriver
	batch       int // packets per call; 0 cycles mixedSizes
	nonblocking bool
	busy        bool // a phantom message in flight on every shard: no share runs in place
	fault       fault
}

var mixedSizes = []int{1, 7, 32, 3, 64, 5, 2, 100}

// sizes is how many packets c hands over per call.
func (c *cell) sizes() []int {
	switch {
	case c.entry == viaVSwitch:
		return c.driver.sizes
	case c.entry == viaSubmit || c.entry == viaSubmitFrame:
		return []int{1}
	case c.batch == 0:
		return mixedSizes
	}
	return []int{c.batch}
}

func (c *cell) flagless() bool { return c.entry == viaSubmit || c.driver.park }

// parks reports whether c parks misses. A parked packet is probed again
// before its completion, and reaches the LRU tiers after the hits of its
// batch: once a tier evicts, which flows it keeps can differ from inline.
func (c *cell) parks() bool {
	return c.cfg.Upcall.Workers > 0 || c.driver.park && !c.cfg.Conntrack.Enable && len(c.driver.sizes) > 1
}

// outcome is what one replay of a tape leaves behind.
type outcome struct {
	res     []Result                    // service cells: one per op (nil for Replay, which reports totals)
	vres    []gigaflow.ProcessResult    // VSwitch cells: one per op
	tel     []gigaflow.VSwitchTelemetry // one per shard
	stats   gigaflow.VSwitchStats
	entries int
	upcall  UpcallStats
	seq     uint64
	hist    [telemetry.NumTiers]uint64
	flight  []telemetry.FlightRecord // newest first; identity fields only
	ooph    int                      // park mode on a conntrack switch: CompleteMiss calls that came back hits
	frames  *frameMetrics            // frame entry points: every frame decoded, tallied one at a time
	fates   [fates]int               // service cells: the ledger as the results tell it
}

// each cuts tape into calls: a control op alone, runs of packets into
// chunks of the cycling sizes that cross no control op and begin where
// stop says.
func each(tape []op, sizes []int, stop func(i int) bool, fn func(lo, hi int)) {
	for lo, c := 0, 0; lo < len(tape); c++ {
		hi := lo + 1
		for tape[lo].kind == opPacket && hi < len(tape) && hi-lo < sizes[c%len(sizes)] &&
			tape[hi].kind == opPacket && !stop(hi) {
			hi++
		}
		fn(lo, hi)
		lo = hi
	}
}

// TestOracle runs every group of the matrix on the tape of seed 1, the
// groups in parallel.
func TestOracle(t *testing.T) {
	for lo, hi := 0, 1; lo < len(cells); lo, hi = hi, hi+1 {
		for hi < len(cells) && cells[hi].group == cells[lo].group {
			hi++
		}
		g := cells[lo:hi]
		t.Run(g[0].group, func(t *testing.T) {
			t.Parallel()
			runGroup(t, g, 1, true)
		})
	}
}

// FuzzOracle draws a cell — by its test name, or any string hashed onto
// one — and a seed from its input, and runs the cell and the first of its
// group, which it must agree with, on the seed's tape.
func FuzzOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, name string, seed uint64) {
		i := slices.IndexFunc(cells, func(c cell) bool { return path.Join(c.group, c.name) == name })
		if i < 0 { // a name the fuzzer made up
			i = 0
			for _, b := range []byte(name) {
				i = (i*31 + int(b)) % len(cells)
			}
		}
		g := []cell{cells[slices.IndexFunc(cells, func(c cell) bool { return c.group == cells[i].group })]}
		if g[0].name != cells[i].name {
			g = append(g, cells[i])
		}
		runGroup(t, g, seed, false)
	})
}

// runGroup runs a group's cells on one tape and holds each to the first;
// strict adds the guards against a tape too tame for a cell.
func runGroup(t *testing.T, g []cell, seed uint64, strict bool) {
	tape, cov := genTape(g[0].tape, seed, g[0].cfg)
	if cov.misrouted > 0 {
		t.Fatalf("%d replies routed away from their connection's shard", cov.misrouted)
	}
	if g[0].entry == viaVSwitch {
		// The drivers cut the tape differently, so every packet is stamped
		// with the virtual time of the mixedSizes batch it falls in — a batch
		// driver's stamp — and no driver's call crosses a stamp.
		each(tape, mixedSizes, func(int) bool { return false }, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				tape[i].now = tape[hi-1].now
			}
		})
	}
	var want [2][]step // the Reference's, with TCP flags and without
	outs := make([]*outcome, len(g))
	for i := range g {
		c := &g[i]
		run := func(t *testing.T) {
			if f := btoi(c.flagless()); c.entry == viaVSwitch {
				if want[f] == nil {
					want[f] = c.expect(tape, f == 1)
				}
				outs[i] = c.drive(t, tape, want[f])
			} else {
				outs[i] = c.runService(t, tape)
			}
			if miss := c.tame(outs[i], cov); strict && (i == 0 || c.entry != viaVSwitch) && miss != "" {
				t.Errorf("tape too tame: no %s", miss)
			}
		}
		if len(g) == 1 {
			run(t)
		} else {
			t.Run(c.name, run)
		}
	}
	a, base := outs[0], &g[0]
	for i, b := range outs[1:] {
		c := &g[i+1]
		if a == nil || b == nil {
			continue
		}
		if j := firstDiff(a.vres, b.vres); j >= 0 {
			t.Fatalf("%s: op %d: %+v, %s %+v", c.name, j, b.vres[j], base.name, a.vres[j])
		}
		if j := firstDiff(a.res, b.res); j >= 0 && b.res != nil {
			t.Fatalf("%s: op %d: %+v, %s %+v", c.name, j, b.res[j], base.name, a.res[j])
		}
		if a.stats != b.stats || a.entries != b.entries {
			t.Errorf("%s: %+v (%d entries), %s %+v (%d)", c.name, b.stats, b.entries, base.name, a.stats, a.entries)
		}
		// Parking probes a missed packet again and dedups by the batch (a
		// nonblocking Replay does not wait between batches at all).
		if c.cfg == base.cfg && (!c.parks() && !base.parks() || slices.Equal(c.sizes(), base.sizes())) &&
			!(c.entry == viaReplay && c.nonblocking) && (!reflect.DeepEqual(a.tel, b.tel) || a.upcall != b.upcall) {
			t.Errorf("%s: tiers and offload\n%+v %+v\n%s:\n%+v %+v", c.name, b.tel, b.upcall, base.name, a.tel, a.upcall)
		}
		if !base.driver.recorded || !c.driver.recorded || c.driver.park {
			continue
		}
		hist := a.hist
		if c.driver.traced {
			hist = [telemetry.NumTiers]uint64{} // traced packets are kept out by design
		}
		if b.seq != a.seq || b.hist != hist {
			t.Errorf("%s: %d flight records, per-tier counts %v; want %d, %v", c.name, b.seq, b.hist, a.seq, hist)
		}
		if j := firstDiff(a.flight, b.flight); j >= 0 {
			t.Fatalf("%s: flight record %d from newest: %+v, want %+v", c.name, j, b.flight[j], a.flight[j])
		}
	}
}

// firstDiff is the first index where a and b differ, or -1.
func firstDiff[T comparable](a, b []T) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// tame names what the tape failed to exercise in c — the guards that keep
// a green run meaningful — or returns "".
func (c *cell) tame(o *outcome, cov coverage) string {
	if o == nil {
		return "" // a configuration New refuses
	}
	var missing []string
	need := func(ok bool, what string) {
		if !ok {
			missing = append(missing, what)
		}
	}
	var bypassed uint64
	var ct conntrack.Stats
	for _, tel := range o.tel {
		if tel.Microflow != nil {
			bypassed += tel.Microflow.Bypassed
		}
		if c := tel.Conntrack; c != nil {
			ct.Transitions, ct.Reopened, ct.Expired = ct.Transitions+c.Transitions, ct.Reopened+c.Reopened, ct.Expired+c.Expired
		}
	}
	st, u, up := o.stats, o.upcall, c.cfg.Upcall
	need(st.CacheHits > 0 && st.CacheMisses > 0, "main-cache hits and misses")
	need(c.cfg.MicroflowCapacity == 0 || st.MicroflowHits > 0, "microflow hits")
	need(c.tape.thrash == 0 || bypassed == 2*4096, "single bypass period")
	if c.cfg.Conntrack.Enable && !c.flagless() {
		need(c.cfg.MicroflowCapacity == 0 || st.CtFastpath > 0 && st.CtGuardFails > 0, "microflow guard serving and failing")
		need(ct.Transitions > 0 && ct.Reopened > 0, "transitions and reopens")
		need(!c.tape.sweep || ct.Expired > 0, "expiry")
		need(cov.rstInNew > 0 && cov.responderReopen > 0, "RST in New and responder reopen")
		need(!c.tape.lateBind || cov.lateBind > 0, "late bind")
	}
	need(!c.driver.park || !c.cfg.Conntrack.Enable || o.ooph > 0, "CompleteMiss hits on a conntrack switch")
	if c.entry != viaVSwitch && c.fault.closeAt == 0 {
		need(u.Enabled == (up.Workers > 0), "offload engaged exactly when configured")
		need(up.Workers == 0 || u.Flows > 0, "upcalls")
		// Followers need a cold flow repeated within a batch; a thrash prefix
		// warms every flow first.
		batched := (c.entry == viaSubmitBatch || c.entry == viaSubmitFrameBatch) && c.batch != 1 && c.tape.thrash == 0
		need(up.Workers == 0 || !batched || u.Deduped > 0, "deduplicated followers")
		need(up.Queue != 1 || up.Overflow != OverflowInline || u.OverflowInline > 0, "inline overflow")
		need(up.Queue != 1 || up.Overflow != OverflowDrop || u.OverflowDrops > 0, "overflow drops")
		need(c.fault.wedge == 0 || u.Stale > 0, "stale walk")
		need(c.fault.stall == 0 || o.fates[queueFull] > 0, "queue-full drops")
	}
	if f := o.frames; f != nil && c.tape.damage {
		need(f.vlan.Value() > 0 && f.frags.Value() > 0 && f.errs[wire.ErrShortFrame].Value() > 0 &&
			f.decoded[wire.ProtoNonIPv4].Value() > 0, "frames of every damaged kind")
	}
	return strings.Join(missing, ", ")
}

// step is what the Reference says of an op, and its connection table
// after it.
type step struct {
	res gigaflow.ProcessResult
	ct  conntrack.Stats
}

// expect walks the tape through a fresh oracle.
func (c *cell) expect(tape []op, flagless bool) []step {
	o := newOracle(c.tape.pipe, c.cfg)
	want := make([]step, len(tape))
	for i := range tape {
		switch x := &tape[i]; x.kind {
		case opSweep:
			o.sweep(x.now, c.cfg.Conntrack.MaxIdle)
		case opRules, opRulesFail:
			o.flip()
		default:
			want[i].res, _ = o.walk(x, flagless)
		}
		if c.cfg.Conntrack.Enable {
			want[i].ct = ctView(o.refs[0].Conntrack().Stats())
		}
	}
	return want
}

// drive feeds tape through the cell's driver to the VSwitch a one-shard
// service on c.cfg runs, holding every packet's verdict, and the
// connection table after every call, to want.
func (c *cell) drive(t *testing.T, tape []op, want []step) *outcome {
	cfg, ct, d := c.cfg, c.cfg.Conntrack.Enable, c.driver
	cfg.Latency = LatencyConfig{Disable: !d.recorded}
	if d.recorded {
		cfg.Latency.FlightRecords = len(tape)
	}
	cfg.TraceSample = btoi(d.traced)
	s, err := New(c.tape.pipe(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	vs, n, packets := s.workers[0].vs, len(tape), 0
	keys, flags := make([]gigaflow.Key, n), make([]uint8, n)
	for i := range tape {
		keys[i], flags[i], packets = tape[i].k, tape[i].flags, packets+btoi(tape[i].kind == opPacket)
	}
	out, errs, parked := make([]gigaflow.ProcessResult, n), make([]error, n), make([]bool, n)
	o := &outcome{}
	calls := 0
	each(tape, d.sizes, func(i int) bool { return tape[i].now != tape[i-1].now }, func(lo, hi int) {
		now := tape[hi-1].now
		switch {
		case tape[lo].kind == opSweep:
			vs.ExpireIdle(now)
		case tape[lo].kind != opPacket:
			flip(vs.Pipeline())
			vs.Revalidate()
		case !d.park && len(d.sizes) == 1:
			out[lo], errs[lo] = vs.ProcessMeta(keys[lo], flags[lo], now)
		case !d.park:
			vs.ProcessBatchMeta(keys[lo:lo], nil, nil, nil, now) // an empty batch is a no-op
			vs.ProcessBatchMeta(keys[lo:hi], flags[lo:hi], out[lo:hi], errs[lo:hi], now)
		case ct && hi-lo == 1:
			// A switch that parks nothing takes the whole loop for each
			// park-mode entry point in turn: CompleteMiss there must be
			// Process, down to an ordinary flight record, and may hit.
			if calls++; calls%2 == 0 {
				out[lo], parked[lo], errs[lo] = vs.ProcessPark(keys[lo], now)
				break
			}
			misses, tr := vs.Stats().CacheMisses, vs.Pipeline().MustProcess(keys[lo])
			out[lo], errs[lo] = vs.CompleteMiss(keys[lo], tr, now, 100, 50)
			o.ooph += btoi(vs.Stats().CacheMisses == misses)
			if r := vs.Recorder().Recent(1)[0]; r.Flags&telemetry.FlightDeferred != 0 || r.ParkNs != 0 {
				t.Fatalf("a conntrack switch logged a deferred completion: %+v", r)
			}
		default:
			if hi-lo == 1 {
				out[lo], parked[lo], errs[lo] = vs.ProcessPark(keys[lo], now)
			} else {
				vs.ProcessBatchPark(keys[lo:hi], out[lo:hi], errs[lo:hi], parked[lo:hi], now)
			}
			for i := lo; i < hi; i++ {
				still := parked[i] && !ct
				if still && hi-lo > 1 {
					// The second chance: an earlier packet's completion may have
					// installed an entry that covers this one.
					out[i], still, errs[i] = vs.ProcessPark(keys[i], now)
				}
				switch calls += btoi(still); {
				case still && calls%3 == 0 && hi-lo > 1:
					// The overflow fallback. (Its second probe would read in the
					// tiers' stats, which the single driver holds to inline's.)
					out[i], errs[i] = vs.Process(keys[i], now)
				case still: // the engine walked it
					out[i], errs[i] = vs.CompleteMiss(keys[i], vs.Pipeline().MustProcess(keys[i]), now, 100, 50)
				}
			}
		}
		for i := lo; i < hi; i++ {
			switch w := want[i].res; {
			case parked[i] && ct:
				t.Fatalf("op %d: a conntrack switch parked a packet; it must resolve every miss inline", i)
			case tape[i].kind == opPacket && (errs[i] != nil || out[i].Verdict != w.Verdict || out[i].Final != w.Final):
				t.Fatalf("op %d (flags %#x, key %s): %+v %v, Reference %+v", i, flags[i], keys[i], out[i], errs[i], w)
			}
		}
		if ct && ctView(vs.Conntrack().Stats()) != want[hi-1].ct {
			t.Fatalf("ops %d–%d: connection table %+v, Reference %+v", lo, hi-1, vs.Conntrack().Stats(), want[hi-1].ct)
		}
	})
	o.vres, o.stats, o.entries, o.tel = out, vs.Stats(), vs.CacheEntries(), []gigaflow.VSwitchTelemetry{vs.Telemetry()}
	if rec := vs.Recorder(); rec != nil {
		if o.seq = rec.Seq(); o.seq != uint64(packets) {
			t.Errorf("%d flight records for %d packets", o.seq, packets)
		}
		for tier := range o.hist {
			o.hist[tier] = rec.Histogram(telemetry.Tier(tier)).Count()
		}
		// A record's identity: which tier resolved which flow, and how; when
		// and whether exactly or as a run's estimate it was stamped is the
		// replay's own.
		for _, r := range rec.Recent(0) {
			o.flight = append(o.flight, telemetry.FlightRecord{Tier: r.Tier, KeyHash: r.KeyHash,
				Flags: r.Flags &^ (telemetry.FlightTraced | telemetry.FlightEstimated)})
		}
	}
	return o
}

// What became of a request handed to a service — the ledger's columns,
// those up to overflow once it reached its shard.
const (
	served    = iota // a verdict: Stats.Packets
	short            // too short for Ethernet: the short_frame decode errors
	overflow         // its miss met a full upcall queue under OverflowDrop: UpcallStats.OverflowDrops
	queueFull        // Nonblocking into a full worker queue: the queue-full drops
	closed           // after Close (no counter)
	cancelled        // a cancelled context (no counter)
	fates
)

// svcRun is one service cell's replay in progress.
type svcRun struct {
	t              *testing.T
	c              *cell
	s              *Service
	o              *oracle
	tape           []op
	b              *Batch
	resp           chan Result
	out            *outcome
	exp            []gigaflow.ProcessResult // what the oracle expects of each pending op
	pending        []int                    // nonblocking ops handed in, verdicts not yet filed
	lost           int                      // of their verdicts, overflow drops, which name no op
	closed, wedged bool
	from, to       int           // the wedge or stall window: ops [from, to)
	held           chan struct{} // closed to let stalled workers go
	queued         []int         // per shard, the shares a stall's window queued
	handed, calls  int
	fate, counted  [fates]int    // the ledger as the results tell it, and the service's counters
	frames         *frameMetrics // every frame decoded, tallied one at a time
}

// runService replays the tape into a service on c.cfg through c's entry
// point, holds every verdict to the oracle, and checks the ledger.
func (c *cell) runService(t *testing.T, tape []op) *outcome {
	if c.cfg.Conntrack.Enable && c.cfg.Upcall.Workers > 0 {
		// Not a configuration yet; the cell turns live when it is.
		if _, err := New(c.tape.pipe(), c.cfg); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
			t.Fatalf("conntrack with the upcall offload: %v", err)
		}
		return nil
	}
	s := start(t, c.tape.pipe(), c.cfg)
	r := &svcRun{t: t, c: c, s: s, o: newOracle(c.tape.pipe, c.cfg), tape: tape, b: NewBatch(64),
		resp: make(chan Result, len(tape)), out: &outcome{res: make([]Result, len(tape))},
		exp: make([]gigaflow.ProcessResult, len(tape)), frames: newFrameMetrics(telemetry.NewRegistry())}
	defer func() { // before the service is closed
		r.release()
		if r.wedged {
			s.rules.Unlock()
		}
	}()
	for _, w := range s.workers {
		w.inflight.Add(int64(btoi(c.busy))) // busy: tryRun never finds the shard idle
	}
	sizes := c.sizes()
	if c.entry == viaReplay {
		sizes, r.out.res = []int{len(tape)}, nil // a call per run of packets, which Replay batches
	}
	f := c.fault
	if n := max(f.wedge, f.stall); n > 0 {
		r.to = slices.IndexFunc(tape, func(x op) bool { return x.kind == opRules })
		r.from = r.to - n
	}
	each(tape, sizes, func(i int) bool { return i == f.closeAt || i == f.cancelAt || i == r.from || i == r.to }, func(lo, hi int) {
		switch {
		case lo == f.closeAt && lo > 0:
			r.snapshot() // a closed service answers no question
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			r.closed = true
		case lo == r.from && f.wedge > 0:
			s.rules.Lock()
			r.wedged = true
		case lo == r.from && f.stall > 0 && c.entry != viaReplay:
			r.stall() // Replay's reader stalls the shards itself, past its opening Stats
		case lo == r.to && f.wedge > 0:
			r.unwedge()
			return
		case lo == r.to && f.stall > 0:
			r.release()
			r.collect(true)
		}
		switch k := tape[lo].kind; k {
		case opRules, opRulesFail:
			r.update(k)
		case opPacket:
			r.send(lo, hi)
		}
	})
	if !r.closed {
		r.snapshot()
	}
	r.ledger()
	return r.out
}

// send hands tape[lo:hi] to the service in one call of the cell's entry
// point and holds what comes back to the oracle.
func (r *svcRun) send(lo, hi int) {
	c, ctx, stop := r.c, context.Background(), context.CancelFunc(nil)
	cancel := c.fault.cancelAt > 0 && lo <= c.fault.cancelAt && c.fault.cancelAt < hi
	if cancel {
		ctx, stop = context.WithCancel(ctx)
		stop()
	}
	window := lo >= r.from && lo < r.to
	nonblocking := c.nonblocking || window || r.closed && r.calls%2 == 1
	if r.calls++; c.entry == viaReplay {
		r.replay(ctx, lo, hi, nonblocking)
		return
	}
	var opts []SubmitOption
	if nonblocking {
		opts = []SubmitOption{Nonblocking(), WithResponse(r.resp)}
	}
	var refused []bool
	if r.held != nil {
		refused = r.refused(lo, hi)
	}
	for i, res := range r.call(ctx, r.tape[lo:hi], opts, nonblocking) {
		at, x, e := lo+i, &r.tape[lo+i], res.Err
		if r.out.res[at] = res; x.short && !c.entry.frames() {
			continue // a key entry point cannot hand it over
		}
		if r.handed++; refused != nil && !x.short && errors.Is(e, ErrQueueFull) != refused[i] {
			r.t.Fatalf("op %d: %v; a stalled shard queues %d shares and refuses the rest", at, e, r.s.cfg.QueueDepth)
		}
		fate := served
		switch {
		case x.short && errors.Is(e, ErrShortFrame):
			fate = short
		case r.closed && errors.Is(e, ErrClosed):
			fate = closed
		case cancel && errors.Is(e, context.Canceled):
			fate = cancelled
		case nonblocking && errors.Is(e, ErrQueueFull):
			fate = queueFull
		case c.cfg.Upcall.Overflow == OverflowDrop && errors.Is(e, ErrUpcallOverflow):
			fate = overflow
		case e != nil || x.short || r.closed:
			r.t.Fatalf("op %d: %v (service closed: %v)", at, e, r.closed)
		case nonblocking:
			r.exp[at], _ = r.o.walk(x, c.flagless())
			r.pending = append(r.pending, at)
		default:
			if want, err := r.o.walk(x, c.flagless()); err != nil || res.Verdict != want.Verdict || res.Final != want.Final {
				r.t.Fatalf("op %d (key %s): %+v, Reference %+v %v", at, x.k, res, want, err)
			}
		}
		r.fate[fate] += btoi(fate != served || !nonblocking)
		// A frame the RSS extractor takes is decoded on its shard, if it gets
		// there.
		if _, routable := wire.RSSTuple(x.frame); c.entry.frames() && (!routable || fate <= overflow) {
			r.tally(x)
		}
	}
	if nonblocking && !window {
		r.collect(true)
	}
}

// refused is which of tape[lo:hi] a call meets stalled shards with full
// queues: the call's share for a shard is queued while the shard holds
// fewer than QueueDepth, and refused whole after.
func (r *svcRun) refused(lo, hi int) []bool {
	out, share := make([]bool, hi-lo), map[int]bool{} // shard: its share refused
	for i := lo; i < hi; i++ {
		if x := &r.tape[i]; !x.short {
			w := r.o.route(&x.k)
			full, seen := share[w]
			if !seen {
				full = r.queued[w] == r.s.cfg.QueueDepth
				share[w], r.queued[w] = full, r.queued[w]+btoi(!full)
			}
			out[i-lo] = full
		}
	}
	return out
}

// stall holds every shard's worker in a control op until release, and
// returns once each is held: the window's calls then meet queues that
// nothing drains.
func (r *svcRun) stall() {
	held, in := make(chan struct{}), make(chan struct{}, len(r.s.workers))
	r.held, r.queued = held, make([]int, len(r.s.workers))
	for _, w := range r.s.workers {
		if err := r.s.post(context.Background(), w, packet{control: func(int, *worker) { in <- struct{}{}; <-held }}); err != nil {
			r.t.Fatal(err)
		}
	}
	for range r.s.workers {
		select {
		case <-in:
		case <-time.After(5 * time.Second):
			r.t.Fatal("a worker never took the stall")
		}
	}
}

// release lets stalled workers go.
func (r *svcRun) release() {
	if r.held != nil {
		close(r.held)
		r.held = nil
	}
}

// update applies a rule update of the tape to the service and — once its
// pipeline has flipped, failing or not — to the oracle.
func (r *svcRun) update(k opKind) {
	fn, want := flip, error(nil)
	if k == opRulesFail {
		fn, want = failFlip, errFlip
	}
	switch err := r.s.UpdateRules(context.Background(), fn); {
	case r.closed && errors.Is(err, ErrClosed):
	case !errors.Is(err, want):
		r.t.Fatalf("rule update: %v, want %v", err, want)
	default:
		r.o.flip()
	}
}

// call makes the entry point's one call for ops and returns what it
// reported for each: the verdict, or for Nonblocking the enqueue outcome.
func (r *svcRun) call(ctx context.Context, ops []op, opts []SubmitOption, nonblocking bool) []Result {
	res, s, b := make([]Result, len(ops)), r.s, r.b
	var err error
	switch r.c.entry {
	case viaSubmit:
		if res[0].Err = ErrShortFrame; !ops[0].short {
			res[0], err = s.Submit(ctx, ops[0].k, opts...)
			res[0].Err = err
		}
		return res
	case viaSubmitFrame:
		res[0], err = s.SubmitFrame(ctx, 0, ops[0].frame, opts...)
		res[0].Err = err
		return res
	case viaSubmitBatch:
		b.Reset()
		for _, x := range ops {
			if !x.short {
				b.AddMeta(x.k, x.flags)
			}
		}
		err = s.SubmitBatch(ctx, b, opts...)
		for i, n := 0, 0; i < len(ops); i++ {
			if res[i].Err = ErrShortFrame; !ops[i].short {
				res[i], n = b.Result(n), n+1
			}
		}
	case viaSubmitFrameBatch:
		frames := make([]Frame, len(ops))
		for i := range ops {
			frames[i] = Frame{Data: ops[i].frame}
		}
		err = s.SubmitFrameBatch(ctx, frames, b, opts...)
		for i := range ops {
			if res[i] = b.Result(i); !nonblocking && res[i].Err == nil && b.Key(i) != ops[i].k {
				r.t.Fatalf("frame %d decoded on its shard to %s, want %s", i, b.Key(i), ops[i].k)
			}
		}
	}
	if err != nil && !errors.Is(err, ErrClosed) && !errors.Is(err, context.Canceled) {
		r.t.Fatal(err)
	}
	return res
}

// collect files the verdicts streamed back for the pending ops, each under
// the earliest pending op the oracle expects it of: a flow's verdicts keep
// its order. Without wait it takes only what has arrived.
func (r *svcRun) collect(wait bool) {
	for len(r.pending) > r.lost {
		var res Result
		select {
		case res = <-r.resp:
		default:
			if !wait {
				return
			}
			res = recv(r.t, r.resp, fmt.Sprint(len(r.pending)-r.lost, " verdicts"))
		}
		if r.c.cfg.Upcall.Overflow == OverflowDrop && errors.Is(res.Err, ErrUpcallOverflow) {
			r.lost++
			r.fate[overflow]++
			continue
		}
		at := slices.IndexFunc(r.pending, func(i int) bool {
			return res.Err == nil && res.Verdict == r.exp[i].Verdict && res.Final == r.exp[i].Final
		})
		if at < 0 {
			r.t.Fatalf("a verdict no pending op expects: %+v", res)
		}
		r.out.res[r.pending[at]] = res
		r.pending = slices.Delete(r.pending, at, at+1)
		r.fate[served]++
	}
	for _, i := range r.pending { // what is left was dropped by the full upcall queue
		r.out.res[i] = Result{Err: ErrUpcallOverflow}
	}
	r.pending, r.lost = r.pending[:0], 0
}

// unwedge ends the wedge at the first rule update, which lands while the
// engine walks what the window parked: the update holds every shard —
// so no completion is applied before it — and waits for the rules lock
// behind the engine, which has taken a parked flow and waits for it too.
// Let go, the engine walks first, under the rules the update is about to
// replace.
func (r *svcRun) unwedge() {
	ctx, s := context.Background(), r.s
	us, err := s.UpcallStats(ctx) // behind every job of the window: its hits are answered
	if err != nil {
		r.t.Fatal(err)
	}
	r.collect(false)
	idle := int64(len(s.workers) * btoi(r.c.busy)) // busy's phantoms
	inflight := func() (n int64) {
		for _, w := range s.workers {
			n += w.inflight.Load()
		}
		return n
	}
	held := func() bool {
		for _, w := range s.workers {
			if w.own.TryLock() {
				w.own.Unlock()
				return false
			}
		}
		return true
	}
	done := make(chan error, 1)
	go func() { done <- s.UpdateRules(ctx, flip) }()
	// Every shard held, with the update's barrier served in between: the
	// update, not the barrier, holds them.
	await(r.t, "the update to hold every shard and the engine a parked flow", func() bool {
		return held() && inflight() == idle && held() && (s.upq.Depth() < us.PendingFlows || us.PendingFlows == 0)
	})
	s.rules.Unlock()
	r.wedged = false
	if err := <-done; err != nil {
		r.t.Fatal(err)
	}
	r.o.flip()
	for _, i := range r.pending {
		r.exp[i], _ = r.o.walk(&r.tape[i], false) // answered under the new rules
	}
	r.collect(true)
}

// snapshot reads what the group comparison and the ledger need as the
// service exports it: every shard's tiers as /cache shows them, /shards,
// the queue-full drops /metrics counts, and the offload counters.
func (r *svcRun) snapshot() {
	ctx, s := context.Background(), r.s
	tel := make([]gigaflow.VSwitchTelemetry, len(s.workers))
	if err := s.eachShard(ctx, func(i int, w *worker) { tel[i] = w.vs.Telemetry() }); err != nil {
		r.t.Fatal(err)
	}
	shards, err := s.ShardStats(ctx)
	if err == nil {
		err = s.Collect(ctx)
	}
	if err != nil {
		r.t.Fatal(err)
	}
	full := s.reg.CounterVec("gigaflow_queue_full_drops_total", "", "worker")
	for i, sh := range shards {
		r.out.stats = r.out.stats.Add(tel[i].Stats)
		r.counted[queueFull] += int(full.With(s.workers[i].label).Value())
		bad := sh.Packets != tel[i].Stats.Packets
		if ct := tel[i].Conntrack; ct != nil {
			ref := ctView(r.o.refs[i].Conntrack().Stats())
			bad = bad || ctView(*ct) != ref || sh.CtLive != int(ref.Active) || sh.CtCreated != ref.Created
		}
		if bad {
			r.t.Errorf("shard %d: %+v %+v, Reference %+v", i, sh, tel[i].Conntrack, r.o.refs[i].Conntrack())
		}
	}
	r.out.tel, r.out.entries = tel, s.CacheEntries()
	if r.out.upcall, err = s.UpcallStats(ctx); err != nil {
		r.t.Fatal(err)
	}
	r.out.upcall.Drained, r.out.upcall.Batches = 0, 0 // when the engine woke is its own business
	r.counted[served], r.counted[overflow] = int(r.out.stats.Packets), int(r.out.upcall.OverflowDrops)
}

// ledger checks that every packet handed to the service was served,
// dropped or failed, exactly once, by the counters the service exports —
// and that nothing is left parked.
func (r *svcRun) ledger() {
	t, u := r.t, r.out.upcall
	r.counted[short] = int(r.s.frames.errs[wire.ErrShortFrame].Value())
	r.counted[closed], r.counted[cancelled] = r.fate[closed], r.fate[cancelled]
	sum := 0
	for _, n := range r.counted {
		sum += n
	}
	if r.handed != sum || r.counted != r.fate {
		t.Errorf("ledger: %d handed in; served, short, overflow-dropped, queue-full, closed, cancelled: %v by the counters, %v by the results",
			r.handed, r.counted, r.fate)
	}
	if u.ParkedPackets != 0 || u.PendingFlows != 0 {
		t.Errorf("left parked: %+v", u)
	}
	if u.Enabled && !r.closed && (u.Released != u.Completed+u.Deduped+u.OverflowInline+u.OverflowDrops ||
		u.Flows != u.Completed+u.OverflowInline+u.OverflowDrops || u.Overflows != u.OverflowInline+u.OverflowDrops) {
		t.Errorf("upcall ledger: %+v", u)
	}
	if n := len(r.resp); n > 0 {
		t.Errorf("%d verdicts streamed back for requests that were never served", n)
	}
	r.out.fates = r.fate
	if !r.c.entry.frames() {
		return
	}
	// Every frame counter reads what per-frame accounting of the frames does.
	got, want := frameCounters(r.s.frames), frameCounters(r.frames)
	for i := range got {
		if got[i].Value() != want[i].Value() {
			t.Errorf("frame counter %d reads %d, per-frame accounting %d", i, got[i].Value(), want[i].Value())
		}
	}
	r.out.frames = r.frames
}

func frameCounters(m *frameMetrics) []*telemetry.Counter {
	cs := append([]*telemetry.Counter{m.frames, m.bytes, m.vlan, m.frags}, m.decoded[:]...)
	return append(cs, m.errs[1:]...) // errs[ErrOK] has no counter
}

// tally accounts x's frame as a decoding shard would, on its own.
func (r *svcRun) tally(x *op) {
	var one frameTally
	_, info := wire.Decode(x.frame, 0)
	one.add(&info, len(x.frame))
	r.frames.flush(&one)
}

// replay writes tape[lo:hi] into an in-memory pcap and replays it. A
// replay reports totals, not verdicts: they are held to its frames, and
// the oracle walks what it submitted, so later ops meet the right state.
func (r *svcRun) replay(ctx context.Context, lo, hi int, nonblocking bool) {
	var buf bytes.Buffer
	pw, _ := pcap.NewWriter(&buf)
	for _, x := range r.tape[lo:hi] {
		pw.WritePacket(0, x.frame)
	}
	src, stalled := io.Reader(&buf), lo == r.from && r.c.fault.stall > 0
	if stalled {
		// Stall the shards when Replay reads its first record, its opening
		// Stats behind it (NewReader reads the 24-byte file header), and
		// let them go at the capture's end.
		data := buf.Bytes()
		src = io.MultiReader(bytes.NewReader(data[:24]), hook(r.stall), bytes.NewReader(data[24:]), hook(r.release))
	}
	rd, _ := pcap.NewReader(src)
	size := cmp.Or(r.c.batch, DefaultBatchSize)
	rep, err := r.s.Replay(ctx, rd, ReplayConfig{Blocking: !nonblocking, BatchSize: size})
	if r.closed && errors.Is(err, ErrClosed) {
		return // nothing read, nothing handed in
	} else if err != nil {
		r.t.Fatal(err)
	}
	want := ReplayReport{Frames: hi - lo}
	for b := lo; b < hi; b += size {
		var refused []bool
		if stalled {
			refused = r.refused(b, min(b+size, hi))
		}
		for i := b; i < min(b+size, hi); i++ {
			x := &r.tape[i]
			_, routable := wire.RSSTuple(x.frame)
			switch want.Bytes += len(x.frame); {
			case x.short:
				want.Rejected++
			case refused != nil && refused[i-b]:
				want.QueueDrops++
				if routable {
					continue // its shard never decoded it
				}
			default:
				want.Submitted++
				r.o.walk(x, false)
			}
			r.tally(x)
			if _, info := wire.Decode(x.frame, 0); !x.short {
				want.PerProto[info.Proto]++
				want.DecodeErrors += btoi(info.Err != wire.ErrOK)
			}
		}
	}
	if want.Stats, want.Elapsed = rep.Stats, rep.Elapsed; rep != want || rep.Stats.Packets != uint64(want.Submitted) {
		r.t.Fatalf("replay of ops %d–%d: %+v, %d packets in its stats; want %+v", lo, hi-1, rep, rep.Stats.Packets, want)
	}
	r.handed, r.fate[served], r.fate[short] = r.handed+rep.Frames, r.fate[served]+rep.Submitted, r.fate[short]+rep.Rejected
	r.fate[queueFull] += rep.QueueDrops
}

// hook is a reader that runs its function and ends: spliced into a
// stream, it acts when the stream's reader gets that far.
type hook func()

func (h hook) Read([]byte) (int, error) {
	h()
	return 0, io.EOF
}

// The tapes the matrix draws on.
var (
	// perflow is placement-invariant: its stats agree across shard counts.
	perflow = tapeSpec{pipe: func() *gigaflow.Pipeline { return perFlowPipeline(96) }, flow: perFlowKey,
		flows: 96, packets: 400, damage: true, rules: 2}
	// svc shares wildcard entries between flows: a cold flow's install can
	// cover another that is parked.
	svc = tapeSpec{pipe: buildPipeline, flow: func(id int) gigaflow.Key { return wireKey(uint64(id%64), []uint64{80, 22}[id/64%2]) },
		flows: 128, packets: 600, damage: true, rules: 2}
)

// cells is the matrix: VSwitch cells, then the service's, in groups.
var cells = func() []cell {
	var cs []cell
	add := func(group, name string, c cell) {
		c.group, c.name = group, name
		cs = append(cs, c)
	}
	alone := func(name string, c cell) { add(name, "", c) }
	stateful := func(mk func() *gigaflow.Pipeline, clients, packets int) tapeSpec {
		return tapeSpec{pipe: mk, flows: clients, packets: packets, rules: 2, lateBind: mk().Name == "late-bind"}
	}
	for _, be := range []Backend{BackendGigaflow, BackendMegaflow} {
		plain, thrash := svc, svc
		plain.damage, thrash.damage, thrash.thrash = false, false, 32
		for _, v := range []struct {
			name string
			tape tapeSpec
			size int // main cache entries a table
			uf   int
		}{
			{"stateless", plain, 64, 0}, {"stateless", plain, 64, 512}, {"stateless", thrash, 64, 32},
			{"lb", stateful(statefulPipeline, 24, 3000), 64, 0}, {"lb", stateful(statefulPipeline, 24, 3000), 64, 32},
			{"lb", stateful(statefulPipeline, 48, 12000), 4096, 192},
			{"state-nat", stateful(stateNATPipeline, 48, 12000), 4096, 192},
			{"late-bind", stateful(lateBindPipeline, 48, 12000), 4096, 192},
		} {
			cfg := Config{Backend: be, MicroflowCapacity: v.uf, Expiry: ExpiryConfig{MaxIdle: maxIdle}}
			if be == BackendGigaflow {
				cfg.Cache = gigaflow.CacheConfig{NumTables: 4, TableCapacity: v.size}
			} else {
				cfg.MegaflowCapacity = max(128, v.size)
			}
			if v.tape.flow == nil {
				cfg.Conntrack, v.tape.sweep = ConntrackConfig{Enable: true, MaxIdle: maxIdle}, true
			}
			g := fmt.Sprintf("vswitch/%s/%s/uf=%d", be, v.name, v.uf)
			for _, d := range []struct {
				name string
				vsDriver
			}{
				{"recorded", vsDriver{sizes: []int{1}, recorded: true}},
				{"single", vsDriver{sizes: []int{1}}},
				{"batch", vsDriver{sizes: mixedSizes, recorded: true}},
				{"traced", vsDriver{sizes: mixedSizes, recorded: true, traced: true}},
				{"park", vsDriver{sizes: []int{1}, recorded: true, park: true}},
				{"park-batch", vsDriver{sizes: []int{1, 1, 1, 7, 32, 3}, recorded: true, park: true}},
			} {
				// Batch park mode reorders what a thrashing tier memoizes (see
				// parks); park mode carries no TCP flags, so on a conntrack
				// switch it is held, apart, to a Reference fed none.
				if d.park && len(d.sizes) > 1 && v.tape.thrash > 0 {
					continue
				}
				if d.park && cfg.Conntrack.Enable {
					g = strings.TrimSuffix(g, "/park") + "/park"
				}
				add(g, d.name, cell{tape: v.tape, cfg: cfg, entry: viaVSwitch, driver: d.vsDriver})
			}
		}
	}

	shards := func(cfg Config, n int) Config { cfg.Workers = n; return cfg }
	upcall := func(cfg Config, u UpcallConfig) Config { cfg.Upcall = u; return cfg }
	sync := Config{Cache: gigaflow.CacheConfig{NumTables: 3, TableCapacity: 3 * 1024}, MicroflowCapacity: 1024}
	whole := perflow
	whole.damage = false // a damaged frame's key hashes elsewhere than its flow's
	for _, n := range []int{1, 2, 4} {
		add("perflow/shards", fmt.Sprint(n), cell{tape: whole, cfg: shards(sync, n), entry: viaSubmitFrameBatch, batch: 32})
	}
	// A one-slot upcall queue: most cold flows take the inline fallback, and
	// so does a repeat in the same share while the engine has not caught
	// up. No flow's install covers another's here, so the peers agree.
	add("perflow/shards", "overflow-inline/3", cell{tape: whole, cfg: upcall(shards(sync, 3), UpcallConfig{Workers: 1, Queue: 1}),
		entry: viaSubmitBatch, batch: 32})
	// Every way in, inline and offloaded, a group per shard count. No tier
	// evicts here (see parks).
	for _, n := range []int{1, 3} {
		for _, mode := range []string{"sync", "upcall"} {
			cfg := shards(sync, n)
			if mode == "upcall" {
				cfg = upcall(cfg, UpcallConfig{Workers: 1, Queue: 4096})
			}
			for _, e := range []entry{viaSubmitFrameBatch, viaSubmit, viaSubmitFrame, viaSubmitBatch, viaReplay} {
				g, c := fmt.Sprint("perflow/", n), cell{tape: perflow, cfg: cfg, entry: e, batch: 32}
				add(g, fmt.Sprintf("%s/%s/blocking", mode, e), c)
				c.busy = true
				add(g, fmt.Sprintf("%s/%s/busy", mode, e), c)
				c.busy, c.nonblocking = false, true
				add(g, fmt.Sprintf("%s/%s/nonblocking", mode, e), c)
			}
		}
	}
	add("perflow/3", "sync/Replay/batch=1", cell{tape: perflow, cfg: shards(sync, 3), entry: viaReplay, batch: 1})
	// A tier that thrashes: three windows round robin over four of its
	// capacities, then the usual traffic.
	thrash := perflow
	thrash.pipe, thrash.flows, thrash.packets, thrash.thrash = func() *gigaflow.Pipeline { return perFlowPipeline(128) }, 128, 300, 32
	tcfg := Config{Cache: gigaflow.CacheConfig{NumTables: 3, TableCapacity: 3 * 512}, MicroflowCapacity: 32}
	alone("perflow/thrash/sync", cell{tape: thrash, cfg: tcfg, entry: viaSubmitFrameBatch, batch: 32})
	alone("perflow/thrash/upcall", cell{tape: thrash, cfg: upcall(tcfg, UpcallConfig{Workers: 1, Queue: 4096}), entry: viaSubmitFrameBatch, batch: 32})

	two := Config{Workers: 2, Cache: gigaflow.CacheConfig{NumTables: 3, TableCapacity: 3 * 256}, MicroflowCapacity: 512}
	for _, be := range []Backend{BackendGigaflow, BackendMegaflow} {
		cfg, g := two, "svc/"+be.String()
		if cfg.Backend = be; be == BackendMegaflow {
			cfg.Cache, cfg.MegaflowCapacity = gigaflow.CacheConfig{}, 1024
		}
		up := upcall(cfg, UpcallConfig{Workers: 1, Queue: 4096})
		add(g, "sync/SubmitBatch", cell{tape: svc, cfg: cfg, entry: viaSubmitBatch})
		add(g, "upcall/SubmitBatch", cell{tape: svc, cfg: up, entry: viaSubmitBatch})
		add(g, "upcall/SubmitFrameBatch/nonblocking", cell{tape: svc, cfg: up, entry: viaSubmitFrameBatch, batch: 32, nonblocking: true})
		add(g, "upcall/SubmitFrame/busy", cell{tape: svc, cfg: up, entry: viaSubmitFrame, busy: true})
	}

	// Faults, each cell alone. Stalled workers, a cell per entry point on
	// 1–3 shards, sync and upcall in turn: the 96 ops before the first rule
	// update meet queues two shares deep. 96 is three whole Replay batches;
	// a partial one would be flushed after the release, racing the workers.
	stalled := sync
	stalled.QueueDepth = 2
	for i, e := range []entry{viaSubmit, viaSubmitFrame, viaSubmitBatch, viaSubmitFrameBatch, viaReplay} {
		cfg := shards(stalled, 1+i%3)
		if i%2 == 1 {
			cfg = upcall(cfg, UpcallConfig{Workers: 1, Queue: 4096})
		}
		alone("stall/"+string(e), cell{tape: perflow, cfg: cfg, entry: e, batch: 32, fault: fault{stall: 96}})
	}
	// Cold at the start, and at op 50 a rule update that turns every
	// verdict: what the window parked was walked under the rules it replaces.
	wedged := svc
	wedged.packets, wedged.rules = 300, 5
	alone("upcall/wedged", cell{tape: wedged, cfg: upcall(two, UpcallConfig{Workers: 1, Queue: 4096}),
		entry: viaSubmitBatch, fault: fault{wedge: 50}})
	alone("upcall/overflow-drop/wedged", cell{tape: wedged, cfg: upcall(two, UpcallConfig{Workers: 1, Queue: 1, Overflow: OverflowDrop}),
		entry: viaSubmitFrameBatch, batch: 32, fault: fault{wedge: 50}})
	alone("close", cell{tape: perflow, cfg: upcall(shards(sync, 2), UpcallConfig{Workers: 1, Queue: 4096}),
		entry: viaSubmitFrameBatch, batch: 32, fault: fault{closeAt: 250}})
	alone("cancel", cell{tape: perflow, cfg: shards(sync, 2), entry: viaSubmitBatch, batch: 32, fault: fault{cancelAt: 100}})
	expiry := two // the real ticker: hits depend on the clock, verdicts do not
	expiry.Expiry = ExpiryConfig{MaxIdle: time.Millisecond, Every: 2 * time.Millisecond}
	alone("expiry", cell{tape: svc, cfg: expiry, entry: viaSubmitFrameBatch, batch: 32})

	// Conntrack, a Reference per shard: a group per shard count.
	ct := func(n int) Config {
		return Config{Workers: n, Cache: gigaflow.CacheConfig{NumTables: 4, TableCapacity: 4 * 1024},
			MicroflowCapacity: 192, Conntrack: ConntrackConfig{Enable: true}}
	}
	lb := stateful(statefulPipeline, 24, 1500)
	lb.damage = true
	for _, n := range []int{1, 2, 4} {
		g := fmt.Sprint("ct/lb/", n)
		add(g, "SubmitFrameBatch", cell{tape: lb, cfg: ct(n), entry: viaSubmitFrameBatch, batch: 32})
		add(g, "SubmitFrame/nonblocking", cell{tape: lb, cfg: ct(n), entry: viaSubmitFrame, nonblocking: true})
		add(g, "SubmitBatch/busy", cell{tape: lb, cfg: ct(n), entry: viaSubmitBatch, busy: true})
		add(g, "Replay", cell{tape: lb, cfg: ct(n), entry: viaReplay, batch: 32})
	}
	mf := ct(2)
	mf.Backend, mf.Cache, mf.MegaflowCapacity = BackendMegaflow, gigaflow.CacheConfig{}, 4096
	alone("ct/lb/megaflow/2", cell{tape: lb, cfg: mf, entry: viaSubmitFrameBatch, batch: 32})
	alone("ct/lb/Submit/2", cell{tape: lb, cfg: ct(2), entry: viaSubmit})
	for _, mk := range []func() *gigaflow.Pipeline{stateNATPipeline, lateBindPipeline} {
		spec := stateful(mk, 24, 1500)
		spec.damage = true
		alone("ct/"+mk().Name+"/2", cell{tape: spec, cfg: ct(2), entry: viaSubmitFrameBatch, batch: 32})
	}
	alone("ct/upcall", cell{tape: lb, cfg: upcall(ct(1), UpcallConfig{Workers: 1}), entry: viaSubmitFrameBatch})
	return cs
}()
