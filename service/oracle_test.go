package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gigaflow"
	"gigaflow/internal/conntrack"
	wire "gigaflow/internal/packet"
	"gigaflow/internal/telemetry"
)

// The oracle. Caching is only a shortcut: whichever tier served a packet
// and whichever way it came in, it must get the verdict a never-cached
// pipeline walk (gigaflow.Reference) gives. One seeded generator writes an
// op tape — packets in frames, whole and damaged; TCP handshakes, closes
// and resets; rule updates; idle sweeps and idle gaps — and every cell of
// the matrix replays it, through the VSwitch's own entry points on virtual
// time or into a service by one of its entry points, on a clock the tape
// moves, with faults declared as data.
// Every packet is held to the Reference, the cells of a group to each
// other, and every service tape to the ledger. DESIGN.md "The oracle"
// says what the matrix leaves out, and why.

type opKind uint8

const (
	opPacket    opKind = iota
	opSweep            // the idle sweep, at the op's virtual time (VSwitch cells)
	opTick             // the service clock jumps to the op's virtual time, and every shard is read (service cells)
	opRules            // a rule update: flip, once on the service's pipeline
	opRulesFail        // a rule update whose function flips and then fails
)

// op is one step of a tape. A packet travels as frame; k and flags are
// what the frame decodes to: what the VSwitch and the Reference are
// handed.
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
	ticks    int  // > 0: a tick every ticks packets and one at the end, each after an idle gap < 2×sweepEvery
	damage   bool // every eighth frame damaged, each of packetOp's ways in turn
	rules    int  // rule updates, spread evenly; every second one fails
	lateBind bool // the tape must bind connections that are already established
	stalls   bool // flows share a prefix of entries, so a cold flow's lookup stalls after it
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
	// The virtual clock: a stateless tape's runs a nanosecond an op, a
	// stateful one's a random step a packet, and a tick adds an idle gap.
	now, idle, prev, updates := int64(len(tape)), int64(0), 0, 0
	tick := func() {
		gap := int64(rng.next() % uint64(2*sweepEvery))
		idle, now = idle+gap, now+gap
		tape = append(tape, op{kind: opTick, now: now})
		o.tick(now)
	}
	for i := 0; i < spec.packets; i++ {
		if spec.ticks > 0 && i > 0 && i%spec.ticks == 0 {
			tick()
		}
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
			now = int64(len(tape)) + idle
			tape = append(tape, packetOp(spec.flow(prev), uint8(rng.next()), now, damage))
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
	if spec.ticks > 0 {
		tick() // a last gap: only the observers' messages see it
	}
	return tape, cov
}

// packetOp puts a packet in a frame — damaged one of seven ways when
// damage is set — and records what the frame decodes to.
func packetOp(k gigaflow.Key, flags uint8, now int64, damage uint64) op {
	if damage == 6 {
		k = k.With(gigaflow.FieldEthType, 0x0806) // not IPv4: a degraded key
	}
	frame := encode(k, flags)
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
// service routes to the shard, and swept when the service's shard is.
type oracle struct {
	pipes   []*gigaflow.Pipeline
	refs    []*gigaflow.Reference
	route   func(*gigaflow.Key) int
	ctIdle  int64   // Conntrack.MaxIdle
	sweepAt []int64 // per shard, as worker.sweepAt
}

// newOracle lays an oracle out as a service on cfg lays out its shards,
// building the service for its router.
func newOracle(mk func() *gigaflow.Pipeline, cfg Config) *oracle {
	s, err := New(mk(), cfg)
	if err != nil {
		panic(err)
	}
	o := &oracle{route: s.shardOfKey, ctIdle: cfg.Conntrack.MaxIdle.Nanoseconds()}
	for w := range s.workers {
		o.sweepAt = append(o.sweepAt, sweepEvery.Nanoseconds())
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
// without its TCP flags, as park mode does.
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

// tick is a message stamped now at every shard: a shard whose sweep is
// due sweeps first, by the service's rule. A service cell's clock moves
// only at ticks, so no other message can find a sweep due.
func (o *oracle) tick(now int64) {
	for w, r := range o.refs {
		if now >= o.sweepAt[w] {
			r.ExpireIdle(now, o.ctIdle)
			o.sweepAt[w] = now + sweepEvery.Nanoseconds()
		}
	}
}

func (o *oracle) flip() {
	for _, p := range o.pipes {
		flip(p)
	}
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
	viaSubmitFrame      entry = "SubmitFrame"
	viaSubmitFrameBatch entry = "SubmitFrameBatch"
)

// vsDriver is one way of feeding a VSwitch.
type vsDriver struct {
	sizes    []int // one at a time through the single-packet entry points, else in batches
	recorded bool  // latency recorder on: flight records and histograms compared
	park     bool  // ProcessPark or ProcessBatchPark, the second chance, CompleteMiss, the Process fallback
}

// fault is the trouble a cell runs into, as data: each field names the op
// it lands on, or the length of a window (0: none).
type fault struct {
	closeAt  int // Close the service before this op; the calls after it alternate blocking and Nonblocking
	cancelAt int // the call carrying this op gets a cancelled context
	// stall holds every shard's worker in a control op over the stall
	// packet ops before the first rule update, which go in Nonblocking
	// into queues nothing drains, stallQueue messages deep; it lets go
	// before the update.
	stall int
}

// stallQueue is the worker queue depth of a stall cell.
const stallQueue = 2

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
	case c.entry == viaSubmitFrame:
		return []int{1}
	case c.batch == 0:
		return mixedSizes
	}
	return []int{c.batch}
}

func (c *cell) flagless() bool { return c.driver.park }

// resumes reports whether c's misses must resume: the service resumes a
// stalled miss on a Gigaflow switch without conntrack, and a tape that
// stalls has stalled misses.
func (c *cell) resumes() bool {
	return c.tape.stalls && c.cfg.MegaflowCapacity == 0 && !c.cfg.Conntrack.Enable
}

// parks reports whether c's driver parks misses in batches. A parked
// packet is probed again before its completion, and reaches the LRU tiers
// after the hits of its batch: once a tier evicts, which flows it keeps can
// differ from inline.
func (c *cell) parks() bool {
	return c.driver.park && !c.cfg.Conntrack.Enable && len(c.driver.sizes) > 1
}

// outcome is what one replay of a tape leaves behind.
type outcome struct {
	res     []Result                    // service cells: one per op
	vres    []gigaflow.ProcessResult    // VSwitch cells: one per op
	tel     []gigaflow.VSwitchTelemetry // one per shard
	stats   gigaflow.VSwitchStats
	entries int
	seq     uint64
	hist    [telemetry.NumTiers]uint64
	flight  []telemetry.FlightRecord // newest first; identity fields only
	ooph    int                      // park mode on a conntrack switch: CompleteMiss calls that came back hits
	frames  *frameMetrics            // service cells: every frame decoded, tallied one at a time
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
		i := cellAt(name)
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

// cellAt is the index of the cell whose test name is name, or -1.
func cellAt(name string) int {
	return slices.IndexFunc(cells, func(c cell) bool { return path.Join(c.group, c.name) == name })
}

// TestOracleCorpusNamesCells: every checked-in FuzzOracle entry names a
// cell, and no two name the same cell and seed. FuzzOracle hashes a name
// it does not know onto some cell, so an entry whose cell was renamed or
// deleted would keep passing while it no longer runs what it was planted
// for; a second entry of one cell and seed runs nothing the first does
// not.
func TestOracleCorpusNamesCells(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzOracle")
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("%s: %d entries, %v", dir, len(entries), err)
	}
	quoted := regexp.MustCompile(`(?m)^string\(("(?:[^"\\]|\\.)*")\)\nuint64\((\d+)\)$`)
	seen := map[string]string{} // cell and seed: the entry that names them
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		m := quoted.FindSubmatch(data)
		if m == nil {
			t.Errorf("%s: no cell name and seed", e.Name())
			continue
		}
		if name, err := strconv.Unquote(string(m[1])); err != nil || cellAt(name) < 0 {
			t.Errorf("%s: %s names no cell (%v)", e.Name(), m[1], err)
		}
		run := fmt.Sprintf("%s, seed %s", m[1], m[2])
		if first, dup := seen[run]; dup {
			t.Errorf("%s: %s is %s's already", e.Name(), run, first)
		}
		seen[run] = e.Name()
	}
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
	} else {
		// A service cell's clock moves only at ticks, where every shard is
		// read: every op up to the next tick carries the tick's stamp,
		// whatever calls a cell cuts them into, so the cells' shards sweep
		// at the same ops.
		stamp := int64(0)
		for i := range tape {
			if tape[i].kind == opTick {
				stamp = tape[i].now
			}
			tape[i].now = stamp
		}
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
			if c.resumes() && outs[i] != nil && outs[i].stats.Resumed == 0 {
				t.Errorf("no miss of a tape that stalls resumed")
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
		for j := range min(len(a.res), len(b.res)) {
			// A request a nonblocking call enqueued reads no verdict: the zero Result.
			if x, y := a.res[j], b.res[j]; x != y && x != (Result{}) && y != (Result{}) {
				t.Fatalf("%s: op %d: %+v, %s %+v", c.name, j, y, base.name, x)
			}
		}
		if a.stats != b.stats || a.entries != b.entries || expired(a.tel) != expired(b.tel) {
			t.Errorf("%s: %+v (%d entries, %d expired), %s %+v (%d, %d)", c.name, b.stats, b.entries, expired(b.tel),
				base.name, a.stats, a.entries, expired(a.tel))
		}
		// Parking probes a missed packet again.
		if c.cfg == base.cfg && (!c.parks() && !base.parks() || slices.Equal(c.sizes(), base.sizes())) &&
			!reflect.DeepEqual(a.tel, b.tel) {
			t.Errorf("%s: tiers\n%+v\n%s:\n%+v", c.name, b.tel, base.name, a.tel)
		}
		if !base.driver.recorded || !c.driver.recorded || c.driver.park {
			continue
		}
		if b.seq != a.seq || b.hist != a.hist {
			t.Errorf("%s: %d flight records, per-tier counts %v; want %d, %v", c.name, b.seq, b.hist, a.seq, a.hist)
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
	st := o.stats
	need(st.CacheHits > 0 && st.CacheMisses > 0, "main-cache hits and misses")
	need(c.cfg.MicroflowCapacity == 0 || st.MicroflowHits > 0, "microflow hits")
	need(c.tape.thrash == 0 || bypassed == 2*4096, "single bypass period")
	if c.cfg.Conntrack.Enable && !c.flagless() {
		need(st.CtFastpath > 0 && st.CtGuardFails > 0, "connection results serving and refused")
		need(ct.Transitions > 0 && ct.Reopened > 0, "transitions and reopens")
		need(!c.tape.sweep && c.tape.ticks == 0 || ct.Expired > 0, "expiry")
		need(cov.rstInNew > 0 && cov.responderReopen > 0, "RST in New and responder reopen")
		need(!c.tape.lateBind || cov.lateBind > 0, "late bind")
	}
	need(!c.driver.park || !c.cfg.Conntrack.Enable || o.ooph > 0, "CompleteMiss hits on a conntrack switch")
	need(c.tape.ticks == 0 || c.cfg.MaxIdle == 0 || expired(o.tel) > 0, "idle cache entries expired")
	need(c.fault.stall == 0 || o.fates[queueFull] > 0, "queue-full drops")
	if f := o.frames; f != nil && c.tape.damage {
		need(f.vlan.Value() > 0 && f.frags.Value() > 0 && f.errs[wire.ErrShortFrame].Value() > 0 &&
			f.decoded[wire.ProtoNonIPv4].Value() > 0, "frames of every damaged kind")
	}
	return strings.Join(missing, ", ")
}

// expired counts the entries idle expiry took from every shard's tiers.
func expired(tel []gigaflow.VSwitchTelemetry) (n uint64) {
	for _, t := range tel {
		if t.Gigaflow != nil {
			n += t.Gigaflow.Expired
		}
		if t.Megaflow != nil {
			n += t.Megaflow.Expired
		}
		if t.Microflow != nil {
			n += t.Microflow.Expired
		}
	}
	return n
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
			want[i].ct = o.refs[0].Conntrack().Stats()
		}
	}
	return want
}

// drive feeds tape through the cell's driver to the VSwitch a one-shard
// service on c.cfg runs, holding every packet's verdict, and the
// connection table after every call, to want.
func (c *cell) drive(t *testing.T, tape []op, want []step) *outcome {
	cfg, ct, d := c.cfg, c.cfg.Conntrack.Enable, c.driver
	s, err := New(c.tape.pipe(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	vs, rec, n := s.workers[0].vs, s.workers[0].rec, len(tape)
	if !d.recorded {
		vs, rec = s.newSwitch(0), nil // the same shard without a recorder
	}
	keys, flags := make([]gigaflow.Key, n), make([]uint8, n)
	for i := range tape {
		keys[i], flags[i] = tape[i].k, tape[i].flags
	}
	out, errs, parked := make([]gigaflow.ProcessResult, n), make([]error, n), make([]bool, n)
	o := &outcome{}
	calls, seen := 0, uint64(0)
	each(tape, d.sizes, func(i int) bool { return tape[i].now != tape[i-1].now }, func(lo, hi int) {
		now := tape[hi-1].now
		switch {
		case tape[lo].kind == opSweep:
			vs.ExpireIdle(now, cfg.MaxIdle.Nanoseconds(), cfg.Conntrack.MaxIdle.Nanoseconds())
		case tape[lo].kind != opPacket:
			flip(vs.Pipeline())
			vs.Revalidate()
		case !d.park && len(d.sizes) == 1 && !ct:
			// Flags only matter to conntrack: a stateless single is Process.
			out[lo], errs[lo] = vs.Process(keys[lo], now)
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
			if r := rec.Recent(1)[0]; r.Flags&telemetry.FlightDeferred != 0 || r.ParkNs != 0 {
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
		if ct && vs.Conntrack().Stats() != want[hi-1].ct {
			t.Fatalf("ops %d–%d: connection table %+v, Reference %+v", lo, hi-1, vs.Conntrack().Stats(), want[hi-1].ct)
		}
		// A record's identity: which tier missed which flow, and how; when it
		// was stamped is the replay's own. The ring is shorter than a tape,
		// so each call's records are read as the newest ones it appended,
		// oldest first.
		if rec == nil || rec.Seq() == seen {
			return
		}
		recs := rec.Recent(int(rec.Seq() - seen))
		if uint64(len(recs)) != rec.Seq()-seen {
			t.Fatalf("ops %d–%d: %d flight records appended, %d resident", lo, hi-1, rec.Seq()-seen, len(recs))
		}
		for j := len(recs) - 1; j >= 0; j-- {
			r := recs[j]
			o.flight = append(o.flight, telemetry.FlightRecord{Tier: r.Tier, KeyHash: r.KeyHash, Flags: r.Flags})
		}
		seen = rec.Seq()
	})
	o.vres, o.stats, o.entries, o.tel = out, vs.Stats(), vs.CacheEntries(), []gigaflow.VSwitchTelemetry{vs.Telemetry()}
	if rec != nil {
		// Every record is one counted miss.
		if o.seq = rec.Seq(); o.seq != o.stats.CacheMisses {
			t.Errorf("%d flight records for %d misses", o.seq, o.stats.CacheMisses)
		}
		for tier := range o.hist {
			o.hist[tier] = rec.Histogram(telemetry.Tier(tier)).Count()
		}
		slices.Reverse(o.flight) // newest first, as the ring dumps them
	}
	return o
}

// What became of a request handed to a service — the ledger's columns.
const (
	served    = iota // a verdict: Stats.Packets
	short            // too short for Ethernet: the short_frame decode errors
	queueFull        // Nonblocking into a full worker queue: the queue-full drops
	closed           // after Close (no counter)
	cancelled        // a cancelled context (no counter)
	fates
)

// svcRun is one service cell's replay in progress.
type svcRun struct {
	t             *testing.T
	c             *cell
	s             *Service
	o             *oracle
	tape          []op
	b             *Batch
	out           *outcome
	clock         atomic.Int64 // the service clock
	closed        bool
	from, to      int           // the stall window: ops [from, to)
	held          chan struct{} // closed to let stalled workers go
	queued        []int         // per shard, the shares a stall's window queued
	handed, calls int
	fate, counted [fates]int    // the ledger as the results tell it, and the service's counters
	frames        *frameMetrics // every frame decoded, tallied one at a time
}

// runService replays the tape into a service on c.cfg through c's entry
// point, holds every verdict to the oracle, and checks the ledger.
func (c *cell) runService(t *testing.T, tape []op) *outcome {
	r := &svcRun{t: t, c: c, o: newOracle(c.tape.pipe, c.cfg), tape: tape, b: NewBatch(64),
		out: &outcome{res: make([]Result, len(tape))}, frames: newFrameMetrics(telemetry.NewRegistry())}
	s := startOn(t, c.tape.pipe(), c.cfg, func(s *Service) {
		s.clock = r.clock.Load
		if c.fault.stall > 0 {
			shortQueues(s, stallQueue)
		}
	})
	r.s = s
	defer r.release() // before the service is closed
	for _, w := range s.workers {
		w.inflight.Add(int64(btoi(c.busy))) // busy: tryRun never finds the shard idle
	}
	f := c.fault
	if f.stall > 0 {
		r.to = slices.IndexFunc(tape, func(x op) bool { return x.kind == opRules })
		r.from = r.to - f.stall
	}
	each(tape, c.sizes(), func(i int) bool { return i == f.closeAt || i == f.cancelAt || i == r.from || i == r.to }, func(lo, hi int) {
		switch {
		case lo == f.closeAt && lo > 0:
			r.snapshot() // a closed service answers no question
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			r.closed = true
		case lo == r.from && f.stall > 0:
			r.stall()
		case lo == r.to && f.stall > 0:
			r.release()
			r.settle()
		}
		switch k := tape[lo].kind; k {
		case opRules, opRulesFail:
			r.update(k)
		case opTick:
			r.tick(tape[lo].now)
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
	r.calls++
	var opts []SubmitOption
	if nonblocking {
		opts = []SubmitOption{Nonblocking()}
	}
	var refused []bool
	if r.held != nil {
		refused = r.refused(lo, hi)
	}
	for i, res := range r.call(ctx, r.tape[lo:hi], opts) {
		at, x, e := lo+i, &r.tape[lo+i], res.Err
		r.out.res[at] = res
		if r.handed++; refused != nil && !x.short && errors.Is(e, ErrQueueFull) != refused[i] {
			r.t.Fatalf("op %d: %v; a stalled shard queues %d shares and refuses the rest", at, e, stallQueue)
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
		case e != nil || x.short || r.closed:
			r.t.Fatalf("op %d: %v (service closed: %v)", at, e, r.closed)
		case nonblocking: // enqueued: no verdict comes back, but the Reference walks it all the same
			r.o.walk(x, false)
		default:
			if want, err := r.o.walk(x, false); err != nil || res.Verdict != want.Verdict || res.Final != want.Final {
				r.t.Fatalf("op %d (key %s): %+v, Reference %+v %v", at, x.k, res, want, err)
			}
		}
		r.fate[fate]++
		r.tally(x) // ingest decodes and counts every frame handed in
	}
	if nonblocking && !window {
		r.settle()
	}
}

// refused is which of tape[lo:hi] a call meets stalled shards with full
// queues: the call's share for a shard is queued while the shard holds
// fewer than stallQueue, and refused whole after.
func (r *svcRun) refused(lo, hi int) []bool {
	out, share := make([]bool, hi-lo), map[int]bool{} // shard: its share refused
	for i := lo; i < hi; i++ {
		if x := &r.tape[i]; !x.short {
			w := r.o.route(&x.k)
			full, seen := share[w]
			if !seen {
				full = r.queued[w] == stallQueue
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

// tick moves the service clock to now and reads every shard's stats: each
// shard serves a message stamped now, sweeping first if it is due, and so
// does its Reference.
func (r *svcRun) tick(now int64) {
	if r.closed {
		return
	}
	r.clock.Store(now)
	if _, err := r.s.Stats(context.Background()); err != nil {
		r.t.Fatal(err)
	}
	r.o.tick(now)
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
// Every frame ingest did not refuse carries the tape's key, whatever
// became of its submission.
func (r *svcRun) call(ctx context.Context, ops []op, opts []SubmitOption) []Result {
	res, s, b := make([]Result, len(ops)), r.s, r.b
	var err error
	switch r.c.entry {
	case viaSubmitFrame:
		res[0], err = s.SubmitFrame(ctx, 0, ops[0].frame, opts...)
		res[0].Err = err
		return res
	case viaSubmitFrameBatch:
		frames := make([]Frame, len(ops))
		for i := range ops {
			frames[i] = Frame{Data: ops[i].frame}
		}
		err = s.SubmitFrameBatch(ctx, frames, b, opts...)
		for i := range ops {
			if res[i] = b.Result(i); !ops[i].short && b.Key(i) != ops[i].k {
				r.t.Fatalf("frame %d decoded to %s, want %s", i, b.Key(i), ops[i].k)
			}
		}
	}
	if err != nil && !errors.Is(err, ErrClosed) && !errors.Is(err, context.Canceled) {
		r.t.Fatal(err)
	}
	return res
}

// settle checks that the service has served every request it accepted so
// far: Stats is a control op, behind every job queued to each shard.
func (r *svcRun) settle() {
	if r.closed {
		return
	}
	st, err := r.s.Stats(context.Background())
	if err != nil {
		r.t.Fatal(err)
	}
	if st.Packets != uint64(r.fate[served]) {
		r.t.Fatalf("%d packets counted behind every queued job; %d served", st.Packets, r.fate[served])
	}
}

// snapshot reads what the group comparison and the ledger need as the
// service exports it: every shard's tiers as /cache shows them, /shards,
// and the queue-full drops as /metrics counts them.
func (r *svcRun) snapshot() {
	ctx, s := context.Background(), r.s
	tel, seq := make([]gigaflow.VSwitchTelemetry, len(s.workers)), make([]uint64, len(s.workers))
	if err := s.eachShard(ctx, func(i int, w *worker) { tel[i], seq[i] = w.vs.Telemetry(), w.rec.Seq() }); err != nil {
		r.t.Fatal(err)
	}
	shards, err := s.ShardStats(ctx)
	if err != nil {
		r.t.Fatal(err)
	}
	if err := s.Collect(ctx); err != nil { // refreshes the drops read below
		r.t.Fatal(err)
	}
	full := s.reg.CounterVec("gigaflow_queue_full_drops_total", "", "worker")
	for i, sh := range shards {
		r.out.stats = r.out.stats.Add(tel[i].Stats)
		r.counted[queueFull] += int(full.With(s.workers[i].label).Value())
		bad := sh.Packets != tel[i].Stats.Packets
		if ct := tel[i].Conntrack; ct != nil {
			ref := r.o.refs[i].Conntrack().Stats()
			bad = bad || *ct != ref || sh.CtLive != int(ref.Active) || sh.CtCreated != ref.Created
		}
		if bad {
			r.t.Errorf("shard %d: %+v %+v, Reference %+v", i, sh, tel[i].Conntrack, r.o.refs[i].Conntrack())
		}
		if seq[i] != tel[i].Stats.CacheMisses { // every record is one counted miss
			r.t.Errorf("shard %d: %d flight records for %d misses", i, seq[i], tel[i].Stats.CacheMisses)
		}
	}
	r.out.tel = tel
	for _, sh := range shards {
		r.out.entries += sh.CacheEntries
	}
	r.counted[served] = int(r.out.stats.Packets)
}

// ledger checks that every packet handed to the service was served,
// dropped or failed, exactly once, by the counters the service exports.
func (r *svcRun) ledger() {
	t := r.t
	r.counted[short] = int(r.s.frames.errs[wire.ErrShortFrame].Value())
	r.counted[closed], r.counted[cancelled] = r.fate[closed], r.fate[cancelled]
	sum := 0
	for _, n := range r.counted {
		sum += n
	}
	if r.handed != sum || r.counted != r.fate {
		t.Errorf("ledger: %d handed in; served, short, queue-full, closed, cancelled: %v by the counters, %v by the results",
			r.handed, r.counted, r.fate)
	}
	r.out.fates = r.fate
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
	cs := append([]*telemetry.Counter{m.bytes, m.vlan, m.frags}, m.decoded[:]...)
	return append(cs, m.errs[1:]...) // errs[ErrOK] has no counter
}

// tally accounts x's frame as ingest does, on its own.
func (r *svcRun) tally(x *op) {
	var one frameTally
	_, info := wire.Decode(x.frame, 0)
	one.add(&info, len(x.frame))
	r.frames.flush(&one)
}

// The tapes the matrix draws on.
var (
	// perflow is placement-invariant: its stats agree across shard counts.
	perflow = tapeSpec{pipe: func() *gigaflow.Pipeline { return perFlowPipeline(96) }, flow: perFlowKey,
		flows: 96, packets: 400, damage: true, rules: 2}
	// svc shares wildcard entries between flows: a cold flow's install can
	// cover another's.
	svc = tapeSpec{pipe: buildPipeline, flow: func(id int) gigaflow.Key { return wireKey(uint64(id%64), []uint64{80, 22}[id/64%2]) },
		flows: 128, packets: 600, damage: true, rules: 2, stalls: true}
	// rewrite is svc over rewritePipeline, whose prefix commits what its
	// last table matches: a stalled miss resumes right only from the key
	// the prefix rewrote.
	rewrite = tapeSpec{pipe: rewritePipeline, flow: svc.flow, flows: 128, packets: 600, rules: 2, stalls: true}
)

// rewritePipeline is buildPipeline with the metadata register set by the
// first table and matched, with the port, by the last. Ports 80 and 22 go
// out of ports 1 and 2; a packet that reached the last table without the
// register set would miss there and be dropped.
func rewritePipeline() *gigaflow.Pipeline {
	p := gigaflow.NewPipeline("rewrite")
	p.AddTable(0, "l2", gigaflow.NewFieldSet(gigaflow.FieldEthDst))
	p.AddTable(1, "l3", gigaflow.NewFieldSet(gigaflow.FieldIPDst))
	p.AddTable(2, "l4", gigaflow.NewFieldSet(gigaflow.FieldMeta, gigaflow.FieldTpDst))
	p.MustAddRule(0, gigaflow.MustParseMatch("eth_dst=02:00:00:00:00:01"), 10,
		[]gigaflow.Action{gigaflow.SetField(gigaflow.FieldMeta, 7)}, 1)
	p.MustAddRule(1, gigaflow.MustParseMatch("ip_dst=10.0.0.0/16"), 10, nil, 2)
	for i, port := range []uint64{80, 22} {
		p.MustAddRule(2, gigaflow.MatchAll().WithField(gigaflow.FieldMeta, 7).WithField(gigaflow.FieldTpDst, port), 10,
			[]gigaflow.Action{gigaflow.Output(uint16(1 + i))}, gigaflow.NoTable)
	}
	return p
}

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
	for _, be := range []string{"gigaflow", "megaflow"} {
		plain, thrash := svc, svc
		plain.damage, thrash.damage, thrash.thrash = false, false, 32
		for _, v := range []struct {
			name string
			tape tapeSpec
			size int // main cache entries a table
			uf   int
		}{
			{"stateless", plain, 64, 0}, {"stateless", plain, 64, 512}, {"stateless", thrash, 64, 32},
			{"rewrite", rewrite, 64, 0},
			{"lb", stateful(statefulPipeline, 24, 3000), 64, 0}, {"lb", stateful(statefulPipeline, 24, 3000), 64, 32},
			{"lb", stateful(statefulPipeline, 48, 12000), 4096, 192},
			{"state-nat", stateful(stateNATPipeline, 48, 12000), 4096, 192},
			{"late-bind", stateful(lateBindPipeline, 48, 12000), 4096, 192},
		} {
			cfg := Config{MicroflowCapacity: v.uf, MaxIdle: maxIdle}
			if be == "gigaflow" {
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
	sync := Config{Cache: gigaflow.CacheConfig{NumTables: 3, TableCapacity: 3 * 1024}, MicroflowCapacity: 1024}
	whole := perflow
	whole.damage = false // a damaged frame's key hashes elsewhere than its flow's
	for _, n := range []int{1, 2, 4} {
		add("perflow/shards", fmt.Sprint(n), cell{tape: whole, cfg: shards(sync, n), entry: viaSubmitFrameBatch, batch: 32})
	}
	// The batch entry point blocking, behind a busy shard and nonblocking,
	// a group per shard count.
	for _, n := range []int{1, 3} {
		g, c := fmt.Sprint("perflow/", n), cell{tape: perflow, cfg: shards(sync, n), entry: viaSubmitFrameBatch, batch: 32}
		add(g, "sync/SubmitFrameBatch/blocking", c)
		c.busy = true
		add(g, "sync/SubmitFrameBatch/busy", c)
		c.busy, c.nonblocking = false, true
		add(g, "sync/SubmitFrameBatch/nonblocking", c)
	}
	// A tier that thrashes: three windows round robin over four of its
	// capacities, then the usual traffic.
	thrash := perflow
	thrash.pipe, thrash.flows, thrash.packets, thrash.thrash = func() *gigaflow.Pipeline { return perFlowPipeline(128) }, 128, 300, 32
	tcfg := Config{Cache: gigaflow.CacheConfig{NumTables: 3, TableCapacity: 3 * 512}, MicroflowCapacity: 32}
	alone("perflow/thrash/sync", cell{tape: thrash, cfg: tcfg, entry: viaSubmitFrameBatch, batch: 32})

	two := Config{Workers: 2, Cache: gigaflow.CacheConfig{NumTables: 3, TableCapacity: 3 * 256}, MicroflowCapacity: 512}
	for _, be := range []string{"gigaflow", "megaflow"} {
		cfg, g := two, "svc/"+be
		if be == "megaflow" {
			cfg.Cache, cfg.MegaflowCapacity = gigaflow.CacheConfig{}, 1024
		}
		add(g, "sync/SubmitFrameBatch", cell{tape: svc, cfg: cfg, entry: viaSubmitFrameBatch})
		add(g, "sync/SubmitFrameBatch/nonblocking", cell{tape: svc, cfg: cfg, entry: viaSubmitFrameBatch, batch: 32, nonblocking: true})
		add(g, "sync/SubmitFrame/busy", cell{tape: svc, cfg: cfg, entry: viaSubmitFrame, busy: true})
	}

	// Faults, each cell alone. Stalled workers, a cell per entry point on
	// 1 and 3 shards: the 96 ops before the first rule update meet queues
	// two shares deep.
	for i, e := range []entry{viaSubmitFrame, viaSubmitFrameBatch} {
		alone("stall/"+string(e)+"/sync", cell{tape: perflow, cfg: shards(sync, 1+2*i), entry: e, batch: 32, fault: fault{stall: 96}})
	}
	alone("close", cell{tape: perflow, cfg: shards(sync, 2), entry: viaSubmitFrameBatch, batch: 32, fault: fault{closeAt: 250}})
	alone("cancel", cell{tape: perflow, cfg: shards(sync, 2), entry: viaSubmitFrameBatch, batch: 32, fault: fault{cancelAt: 100}})
	// Idle gaps between ticks: an entry idle across a due sweep goes, and
	// its flow misses again. Every cell sweeps at the same ops, so they
	// agree to the hit.
	expiry, gaps := two, svc
	expiry.MaxIdle, gaps.ticks = time.Second, 50
	add("expiry", "SubmitFrameBatch", cell{tape: gaps, cfg: expiry, entry: viaSubmitFrameBatch, batch: 32})
	add("expiry", "SubmitFrameBatch/busy", cell{tape: gaps, cfg: expiry, entry: viaSubmitFrameBatch, busy: true})

	// Conntrack, a Reference per shard: a group per shard count. Idle gaps
	// between ticks expire connections, on the service's shards and the
	// References alike.
	ct := func(n int) Config {
		return Config{Workers: n, Cache: gigaflow.CacheConfig{NumTables: 4, TableCapacity: 4 * 1024},
			MicroflowCapacity: 192, Conntrack: ConntrackConfig{Enable: true, MaxIdle: time.Second}}
	}
	lb := stateful(statefulPipeline, 24, 1500)
	lb.damage, lb.ticks = true, 50
	for _, n := range []int{1, 2, 4} {
		g := fmt.Sprint("ct/lb/", n)
		add(g, "SubmitFrameBatch", cell{tape: lb, cfg: ct(n), entry: viaSubmitFrameBatch, batch: 32})
		add(g, "SubmitFrame/nonblocking", cell{tape: lb, cfg: ct(n), entry: viaSubmitFrame, nonblocking: true})
		add(g, "SubmitFrameBatch/busy", cell{tape: lb, cfg: ct(n), entry: viaSubmitFrameBatch, busy: true})
	}
	mf := ct(2)
	mf.Cache, mf.MegaflowCapacity = gigaflow.CacheConfig{}, 4096
	alone("ct/lb/megaflow/2", cell{tape: lb, cfg: mf, entry: viaSubmitFrameBatch, batch: 32})
	alone("ct/lb/SubmitFrame/2", cell{tape: lb, cfg: ct(2), entry: viaSubmitFrame})
	for _, mk := range []func() *gigaflow.Pipeline{stateNATPipeline, lateBindPipeline} {
		spec := stateful(mk, 24, 1500)
		spec.damage, spec.ticks = true, 50
		alone("ct/"+mk().Name+"/2", cell{tape: spec, cfg: ct(2), entry: viaSubmitFrameBatch, batch: 32})
	}
	return cs
}()
