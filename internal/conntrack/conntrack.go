// Package conntrack is the stateful layer of the datapath: a 5-tuple
// connection table with a TCP-flag-driven state machine, OVS-style
// ct_state bits folded into the flow key for the pipeline and caches to
// match on, per-connection NAT bindings, the result each connection holds
// for each direction once a pipeline walk has classified it, and the
// epoch protocol that decides when a held result is still good.
//
// The table is built on internal/flowtable with a 5-tuple mask; every
// connection registers its forward and reply tuples (plus the translated
// reply tuple once a NAT binding exists), so both directions of a flow —
// and NATed return traffic — resolve to the same connection in one
// masked probe.
//
// # Held results
//
// A connection-offload datapath keeps one entry per connection that holds
// its rewrite and verdict; so does this one. Every tracked packet is
// tracked first — the one exact lookup — and then served from
// Conn.Served[dir], the whole-traversal rule (match, commit, verdict) the
// last walk of a packet of that direction left there — or the exact form
// of a shared cache entry's answer, when one served it — when Conn.Serves
// says it still applies: the pipeline version it was walked under is the
// current one, its stamp is no older than the connection's bindings, and
// its match accepts the packet's key with ct_state folded in. A held
// result is never shared with another connection, so nothing has to evict
// it: it dies with its connection.
//
// # Epoch protocol
//
// The table keeps one monotonic epoch counter and stamps a connection
// from it whenever something a cached result could depend on changes.
// A connection carries two stamps:
//
//   - Conn.bound answers "same connection and bindings?". It moves on
//     creation, on a new NAT binding and on removal — not on a
//     transition. A held result's match carries its ct_state dependency,
//     so a packet whose state bits matter to the rules the walk crossed
//     is refused by match; what the match cannot see is what the
//     connection was bound to when the walk resolved its NAT actions. The
//     walk records the epoch of its first resolution (0 when it resolved
//     none), and a held result serves only while that stamp is 0 or no
//     older than bound. EpochValid asks the same of a (tuple, epoch) pair
//     — a single lookup — for cache entries outside this package.
//   - Conn.Epoch answers "same state?". It moves on creation, on every
//     state transition, on a new NAT binding and on removal. It feeds the
//     stamp a resolution reports and BindHash; the benchmark's shadow
//     chain still guards its exact-match memo with it.
//
// Because the counter is global and monotonic, a stamp taken from an
// earlier connection generation on a reused tuple, or before a binding
// made later in the same pipeline walk, is older than the bound stamp it
// is checked against and is rejected. Removing a connection re-stamps
// both ("poisoning"), so even a holder of a dangling *Conn pointer fails
// its comparison.
package conntrack

import (
	"gigaflow/internal/flow"
	"gigaflow/internal/flowtable"
	"gigaflow/internal/packet"
	"gigaflow/internal/pipeline"
)

// State is a connection's lifecycle state.
type State uint8

const (
	// StateNew: only initiator-direction packets seen.
	StateNew State = iota
	// StateEstablished: traffic seen in both directions.
	StateEstablished
	// StateClosed: TCP FIN or RST observed.
	StateClosed
)

// String names the state as DESIGN.md and telemetry spell it.
func (s State) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateEstablished:
		return "established"
	case StateClosed:
		return "closed"
	}
	return "invalid"
}

// Dir is a packet's direction relative to its connection.
type Dir uint8

const (
	// DirForward: the direction of the connection's first packet.
	DirForward Dir = iota
	// DirReply: the opposite direction.
	DirReply
)

// NATBinding is the concrete rewrite chosen for one connection by a
// dnat/snat action: the replacement address and port.
type NATBinding struct {
	IP   uint64
	Port uint64
	Set  bool
}

// Conn is one tracked connection. Fields are owned by the table; callers
// treat connections as read-only handles, except Served, which the
// datapath driving the table fills.
type Conn struct {
	// Orig is the forward-direction 5-tuple as first seen (pre-NAT).
	Orig flow.Key
	// reply is the tuple reply packets carry, updated when a NAT binding
	// rewrites it.
	reply flow.Key
	// Served holds, per Dir, the result the last walk or cache hit of a
	// packet in that direction left: see Served and Serves.
	Served [2]Served
	// State is the current lifecycle state.
	State State
	// Epoch is the stamp of the connection's last creation, transition,
	// NAT binding or removal — "same state?". See the package comment for
	// the invalidation protocol.
	Epoch uint64
	// bound is the stamp of the connection's creation, last NAT binding
	// or removal — "same connection and bindings?", what Serves and
	// EpochValid hold a recorded stamp against. Transitions leave it
	// alone; bound <= Epoch always.
	bound uint64
	// DNAT / SNAT are the connection's NAT bindings, if any.
	DNAT NATBinding
	SNAT NATBinding
	// LastSeen is the virtual time (ns) of the connection's most recent
	// packet.
	LastSeen int64
	// Created is the connection's creation time (virtual ns).
	Created int64
	// lastMoved is the time of the connection's last LRU reposition.
	// Touches reposition lazily — at most once per repositionQuantum —
	// so the list order tracks LastSeen only to within the quantum;
	// ExpireIdle compensates (see there). LastSeen itself is exact.
	lastMoved int64

	prev, next *Conn // LRU list, most recent at front
}

// Served is the result a connection holds for one direction: a whole
// pipeline walk of one of its packets composed into one rule, as a
// Megaflow entry is — the match over the key the walk started from
// (ct_state folded in), the commit that turns it into the final key, the
// verdict — plus what the rule was computed under. A packet a shared,
// connection-independent cache entry served leaves the exact form of the
// same thing: its whole key as the match, its final key as the commit,
// stamp 0. A zero Served holds nothing: its verdict is not terminal.
type Served struct {
	pipeline.Composed
	Verdict flow.Verdict
	// Epoch is the walk's stamp: the connection's epoch at the walk's
	// first NAT resolution, 0 when no step resolved against it.
	Epoch uint64
	// Version is the pipeline version the rule was computed under.
	Version uint64
}

// Serves reports whether s, one of c's held results, may serve a packet
// whose key, ct_state folded in, is *kt, on a pipeline at version: it
// holds a terminal verdict, was walked under that version, its stamp is 0
// or no older than c's bindings (what EpochValid asks of a cache entry),
// and its match accepts the key. A state transition is caught by the
// match alone, wherever a rule the walk crossed read the state bits.
//
//gf:hotpath
func (c *Conn) Serves(s *Served, kt *flow.Key, version uint64) bool {
	return s.Verdict.Terminal() && s.Version == version &&
		(s.Epoch == 0 || s.Epoch >= c.bound) && s.Match.MatchesKey(kt)
}

// repositionQuantum bounds how often a touch repositions a connection
// in the LRU list (virtual ns). Moving a node to the front is the
// dominant per-hit cost of keeping a hot connection alive — three
// nodes' pointers on random cache lines — and doing it on every packet
// is wasted precision: the list only needs to be ordered well enough
// for tail-first expiry and eviction scans.
const repositionQuantum = 1 << 16

// connRef resolves a tuple probe to its connection and the direction
// that tuple represents.
type connRef struct {
	c   *Conn
	dir Dir
}

// Stats counts table activity. Monotonic except Active.
type Stats struct {
	// Created counts connection creations (including reopens).
	Created uint64 `json:"created"`
	// Transitions counts state transitions after creation.
	Transitions uint64 `json:"transitions"`
	// Reopened counts closed connections replaced by a fresh SYN.
	Reopened uint64 `json:"reopened"`
	// Expired counts idle-expired connections.
	Expired uint64 `json:"expired"`
	// EvictLRU counts connections evicted by MaxConns pressure.
	EvictLRU uint64 `json:"evict_lru"`
	// Displaced counts connections removed because another connection's
	// tuple registration (creation or NAT re-registration) clashed with
	// one of theirs.
	Displaced uint64 `json:"displaced"`
	// Lookups and Hits count Track probes and those that found an
	// existing connection.
	Lookups uint64 `json:"lookups"`
	Hits    uint64 `json:"hits"`
	// Active is the current live connection count (set at snapshot time).
	Active uint64 `json:"active"`
}

// TupleMask is the 5-tuple mask connection probes match under.
var TupleMask = flow.ExactFields(
	flow.FieldIPSrc, flow.FieldIPDst, flow.FieldIPProto,
	flow.FieldTpSrc, flow.FieldTpDst)

var pairMask = flow.ExactFields(flow.FieldIPSrc, flow.FieldIPDst)

// Table is the connection table. Not safe for concurrent use; each
// datapath worker owns one, like the cache tiers.
type Table struct {
	conns *flowtable.Table[connRef]
	// pairs refcounts live (unordered) host pairs with at least one
	// TCP/UDP connection, backing the ct_rel bit for ICMP.
	pairs     *flowtable.Table[int]
	nextEpoch uint64
	maxConns  int
	count     int
	lruHead   *Conn
	lruTail   *Conn
	stats     Stats
}

// NewTable builds a connection table holding at most maxConns live
// connections (0 means unbounded); under pressure the least recently
// seen connection is evicted.
func NewTable(maxConns int) *Table {
	hint := maxConns
	if hint <= 0 {
		hint = 1024
	}
	return &Table{
		conns:    flowtable.New[connRef](TupleMask, 2*hint),
		pairs:    flowtable.New[int](pairMask, hint),
		maxConns: maxConns,
	}
}

// Len reports the number of live connections.
func (t *Table) Len() int { return t.count }

// Stats returns a snapshot of the table counters.
func (t *Table) Stats() Stats {
	s := t.stats
	s.Active = uint64(t.count)
	return s
}

// newEpoch advances the global epoch counter.
func (t *Table) newEpoch() uint64 {
	t.nextEpoch++
	return t.nextEpoch
}

// tracked reports whether the key's protocol gets a connection entry.
//
//gf:hotpath
func tracked(proto uint64) bool {
	return proto == packet.IPProtoTCP || proto == packet.IPProtoUDP
}

// invert swaps a tuple's endpoints: the reply direction of k.
func invert(k flow.Key) flow.Key {
	out := k
	out.Set(flow.FieldIPSrc, k.Get(flow.FieldIPDst))
	out.Set(flow.FieldIPDst, k.Get(flow.FieldIPSrc))
	out.Set(flow.FieldTpSrc, k.Get(flow.FieldTpDst))
	out.Set(flow.FieldTpDst, k.Get(flow.FieldTpSrc))
	return out
}

// pairKey canonicalizes the unordered host pair of k for the ct_rel
// refcount table.
func pairKey(k flow.Key) flow.Key {
	a, b := k.Get(flow.FieldIPSrc), k.Get(flow.FieldIPDst)
	if a > b {
		a, b = b, a
	}
	var out flow.Key
	out.Set(flow.FieldIPSrc, a)
	out.Set(flow.FieldIPDst, b)
	return out
}

// stateBits maps a connection state and packet direction onto ct_state
// flag bits.
//
//gf:hotpath
func stateBits(s State, dir Dir) uint64 {
	bits := flow.CtTrk
	switch s {
	case StateNew:
		bits |= flow.CtNew
	case StateEstablished:
		bits |= flow.CtEst
	case StateClosed:
		bits |= flow.CtCls
	}
	if dir == DirReply {
		bits |= flow.CtRpl
	}
	return bits
}

// MayTransition reports whether a packet with the given direction and
// TCP flags could move a connection in state s to another state — the
// guard an Epoch-bound memo uses to decide whether a full Track walk is
// needed. It is deliberately a superset of the transitions Track
// actually performs: a true return only costs a re-track, a false
// return must be exact. It stays for the benchmark's shadow chain until
// ROADMAP item 15.
//
//gf:hotpath
func MayTransition(s State, dir Dir, proto uint64, tcpFlags uint8) bool {
	if s == StateNew && dir == DirReply {
		return true // first reply establishes
	}
	if proto == packet.IPProtoTCP &&
		tcpFlags&(packet.TCPFin|packet.TCPSyn|packet.TCPRst) != 0 {
		return true // close, reset, or reopen
	}
	return false
}

// Track runs the connection state machine for one packet and returns
// the packet's ct_state bits, its connection (nil for protocols that
// are not connection-tracked), and its direction. k must be the raw
// ingress key (pre-NAT, ct_state not yet folded). tcpFlags is the TCP
// flag byte, zero for other protocols.
//
//gf:hotpath
func (t *Table) Track(k flow.Key, tcpFlags uint8, now int64) (uint64, *Conn, Dir) {
	return t.TrackKey(&k, tcpFlags, now)
}

// TrackKey is the body of Track, reading the key in place: an existing
// connection's packet — every packet but a connection's first — is
// probed by pointer and copies nothing.
//
//gf:hotpath
func (t *Table) TrackKey(k *flow.Key, tcpFlags uint8, now int64) (uint64, *Conn, Dir) {
	proto := k.Get(flow.FieldIPProto)
	if k.Get(flow.FieldEthType) != packet.EtherTypeIPv4 {
		return 0, nil, DirForward // not IP: untracked
	}
	if !tracked(proto) {
		bits := flow.CtTrk
		if proto == packet.IPProtoICMP { // related iff a tracked pair exists
			if _, ok := t.pairs.Lookup(pairKey(*k)); ok {
				bits |= flow.CtRel
			}
		}
		return bits, nil, DirForward
	}

	t.stats.Lookups++
	ref := t.conns.Find(k)
	if ref == nil {
		c := t.create(*k, now)
		return stateBits(c.State, DirForward), c, DirForward
	}
	t.stats.Hits++
	c, dir := ref.c, ref.dir
	t.touchLazy(c, now)

	switch c.State {
	case StateNew:
		if tcpFlags&packet.TCPRst != 0 {
			t.transition(c, StateClosed)
		} else if dir == DirReply {
			t.transition(c, StateEstablished)
		}
	case StateEstablished:
		if tcpFlags&(packet.TCPFin|packet.TCPRst) != 0 {
			t.transition(c, StateClosed)
		}
	case StateClosed:
		if tcpFlags&packet.TCPSyn != 0 && tcpFlags&packet.TCPRst == 0 {
			// A fresh handshake reuses the tuple: replace the dead
			// connection with a new one whose initiator is this packet.
			c = t.reopen(c, *k, now)
			return stateBits(c.State, DirForward), c, DirForward
		}
	}
	return stateBits(c.State, dir), c, dir
}

// transition moves c to state s and stamps a fresh epoch. The bound
// stamp does not move: held results and cache entries tell the states
// apart by match.
//
//gf:hotpath
func (t *Table) transition(c *Conn, s State) {
	c.State = s
	c.Epoch = t.newEpoch()
	t.stats.Transitions++
}

// create allocates and registers a new connection for first-packet key k.
// First packets are a slow-path event (the caches have never seen the
// tuple either); allocation here is by design.
//
//gf:hotpath-safe first-packet connection creation allocates by design
func (t *Table) create(k flow.Key, now int64) *Conn {
	if t.maxConns > 0 && t.count >= t.maxConns {
		if victim := t.oldest(); victim != nil {
			t.remove(victim)
			t.stats.EvictLRU++
		}
	}
	epoch := t.newEpoch()
	c := &Conn{
		Orig:      k,
		reply:     invert(k),
		State:     StateNew,
		Epoch:     epoch,
		bound:     epoch,
		LastSeen:  now,
		Created:   now,
		lastMoved: now,
	}
	t.register(c.Orig, connRef{c, DirForward})
	t.register(c.reply, connRef{c, DirReply})
	t.addPair(c.Orig)
	t.pushFront(c)
	t.count++
	t.stats.Created++
	return c
}

// reopen replaces a closed connection whose tuple a new handshake is
// reusing. The initiator of the new connection is the packet at hand, so
// direction roles may swap relative to the old connection.
//
//gf:hotpath-safe tuple-reuse reopen allocates a fresh connection by design
func (t *Table) reopen(old *Conn, k flow.Key, now int64) *Conn {
	t.remove(old)
	t.stats.Reopened++
	return t.create(k, now)
}

// remove unregisters c's tuples, drops it from the LRU, and poisons its
// stamps so cached entries that still point at it fail validation.
func (t *Table) remove(c *Conn) {
	t.conns.Delete(c.Orig)
	t.conns.Delete(c.reply)
	t.dropPair(c.Orig)
	t.unlink(c)
	t.count--
	t.restamp(c)
}

// restamp moves both of c's stamps past every epoch handed out so far:
// the connection's identity or bindings changed, so nothing resolved
// against it before — held result or cache entry — may serve again.
func (t *Table) restamp(c *Conn) {
	c.Epoch = t.newEpoch()
	c.bound = c.Epoch
}

// SetDNAT records c's destination rewrite and re-registers the reply
// tuple: replies now arrive from the translated endpoint. Idempotent
// for an unchanged binding; the binding of a live connection never
// changes once set.
func (t *Table) SetDNAT(c *Conn, ip, port uint64) {
	if c.DNAT.Set {
		return
	}
	c.DNAT = NATBinding{IP: ip, Port: port, Set: true}
	t.restamp(c) // a new binding changes NAT semantics: invalidate pre-binding entries
	t.conns.Delete(c.reply)
	c.reply = invert(c.NATKey(DirForward))
	t.register(c.reply, connRef{c, DirReply})
}

// SetSNAT records c's source rewrite and re-registers the reply tuple
// (replies are addressed to the translated source).
func (t *Table) SetSNAT(c *Conn, ip, port uint64) {
	if c.SNAT.Set {
		return
	}
	c.SNAT = NATBinding{IP: ip, Port: port, Set: true}
	t.restamp(c) // see SetDNAT
	t.conns.Delete(c.reply)
	c.reply = invert(c.NATKey(DirForward))
	t.register(c.reply, connRef{c, DirReply})
}

// register maps tuple to ref, displacing any other connection still
// holding that tuple — a tuple clash, e.g. a NAT re-registration landing
// on a tuple that an earlier (pre-NAT) connection claimed as its own.
// The displaced connection is removed, which poisons its epoch: cache
// entries built under it must not keep serving once its tuple has been
// taken over.
func (t *Table) register(tuple flow.Key, ref connRef) {
	if old, ok := t.conns.Lookup(tuple); ok && old.c != ref.c {
		t.remove(old.c)
		t.stats.Displaced++
	}
	t.conns.Put(tuple, ref)
}

// NATKey returns the tuple a packet of direction dir carries after c's
// NAT bindings are applied: forward packets get dst (DNAT) and src
// (SNAT) rewritten; reply packets get the inverse.
func (c *Conn) NATKey(dir Dir) flow.Key {
	if dir == DirForward {
		k := c.Orig
		if c.DNAT.Set {
			k.Set(flow.FieldIPDst, c.DNAT.IP)
			k.Set(flow.FieldTpDst, c.DNAT.Port)
		}
		if c.SNAT.Set {
			k.Set(flow.FieldIPSrc, c.SNAT.IP)
			k.Set(flow.FieldTpSrc, c.SNAT.Port)
		}
		return k
	}
	// Reply direction: undo the forward rewrite as seen from the reply —
	// the translated reply tuple inverted back to the original view.
	return invert(c.Orig)
}

// BindHash mixes a connection's original tuple and current epoch into a
// deterministic selector for NAT pool target choice: stable for the
// connection's lifetime, but free to differ when the tuple is reused by
// a later connection generation.
func (c *Conn) BindHash() uint64 {
	h := c.Orig.FlowHash()
	h ^= c.Epoch * 0x9e3779b97f4a7c15
	h ^= h >> 32
	return h
}

// Touch refreshes c's LastSeen and LRU position without running the
// state machine. It stays for the benchmark's shadow chain, whose memo
// hits skip Track, until ROADMAP item 15.
//
//gf:hotpath
func (t *Table) Touch(c *Conn, now int64) {
	t.touchLazy(c, now)
}

// touchLazy is the shared per-packet refresh for Track and Touch:
// LastSeen is stamped exactly on every call, but the LRU reposition is
// skipped while the connection moved within the last repositionQuantum.
// A hot connection therefore repositions at most once per quantum
// instead of once per packet, and because the decision depends only on
// (lastMoved, now), two tables fed the same packet sequence keep
// identical list orders regardless of which entry point refreshed each
// packet — what keeps the cached datapath and the Reference oracle's
// expiry and eviction in lockstep.
//
//gf:hotpath
func (t *Table) touchLazy(c *Conn, now int64) {
	c.LastSeen = now
	if now-c.lastMoved < repositionQuantum {
		return
	}
	c.lastMoved = now
	t.touch(c)
}

// EpochValid reports whether tuple still resolves to the live connection
// epoch was taken from, with the NAT bindings it had then — what Serves
// asks of a held result, for a cache entry that records a (tuple, epoch)
// pair. State transitions since do not matter (the entry's match carries
// its ct_state dependency); a removal, a tuple reuse or a later binding
// does. One masked probe and a compare against the bound stamp. It stays
// for the benchmark's shadow chain until ROADMAP item 15.
//
//gf:hotpath
func (t *Table) EpochValid(tuple flow.Key, epoch uint64) bool {
	ref := t.conns.Find(&tuple)
	return ref != nil && epoch >= ref.c.bound
}

// Lookup resolves a tuple to its connection and direction without
// running the state machine.
//
//gf:hotpath
func (t *Table) Lookup(k flow.Key) (*Conn, Dir, bool) {
	ref, ok := t.conns.Lookup(k)
	if !ok {
		return nil, DirForward, false
	}
	return ref.c, ref.dir, true
}

// ExpireIdle removes connections whose last packet is older than maxIdle
// (virtual ns) and returns how many died. Removed connections are
// epoch-poisoned, so the caches lazily drop entries that depended on
// them.
//
// Lazy repositioning means list order tracks LastSeen only to within
// repositionQuantum, so the sweep cannot just stop at the first fresh
// tail: a connection refreshed moments ago could sit in front of one
// that expired. Instead it walks tailward while now-lastMoved exceeds
// maxIdle — every expired connection satisfies that (LastSeen >=
// lastMoved), and the first node inside the bound proves everything
// fresher than it is alive — removing exactly the connections whose
// LastSeen is stale. The set removed is therefore identical to an
// eagerly-ordered table's, and connections visited but kept are within
// one quantum of expiring, so the scan stays short.
func (t *Table) ExpireIdle(now, maxIdle int64) int {
	if maxIdle <= 0 {
		return 0
	}
	n := 0
	for cur := t.lruTail; cur != nil && now-cur.lastMoved > maxIdle; {
		prev := cur.prev
		if now-cur.LastSeen > maxIdle {
			t.remove(cur)
			t.stats.Expired++
			n++
		}
		cur = prev
	}
	return n
}

// oldest returns the connection with the smallest LastSeen — the LRU
// eviction victim. The list is ordered by lastMoved, and every
// connection's LastSeen lies within repositionQuantum of its lastMoved,
// so the true oldest must sit among the tail nodes whose lastMoved is
// within one quantum of the tail's; the scan is bounded by that zone
// and eviction is a slow-path (creation) event.
func (t *Table) oldest() *Conn {
	victim := t.lruTail
	if victim == nil {
		return nil
	}
	bound := victim.lastMoved + repositionQuantum
	for cur := victim.prev; cur != nil && cur.lastMoved <= bound; cur = cur.prev {
		if cur.LastSeen < victim.LastSeen {
			victim = cur
		}
	}
	return victim
}

// addPair bumps the host-pair refcount backing ct_rel.
func (t *Table) addPair(k flow.Key) {
	pk := pairKey(k)
	n, _ := t.pairs.Lookup(pk)
	t.pairs.Put(pk, n+1)
}

// dropPair decrements the host-pair refcount, clearing ct_rel for the
// pair when its last connection dies.
func (t *Table) dropPair(k flow.Key) {
	pk := pairKey(k)
	n, ok := t.pairs.Lookup(pk)
	if !ok {
		return
	}
	if n <= 1 {
		t.pairs.Delete(pk)
		return
	}
	t.pairs.Put(pk, n-1)
}

// LRU plumbing, most recently seen at the front.

//gf:hotpath
func (t *Table) touch(c *Conn) {
	if t.lruHead == c {
		return
	}
	t.unlink(c)
	t.pushFront(c)
}

//gf:hotpath
func (t *Table) pushFront(c *Conn) {
	c.prev = nil
	c.next = t.lruHead
	if t.lruHead != nil {
		t.lruHead.prev = c
	}
	t.lruHead = c
	if t.lruTail == nil {
		t.lruTail = c
	}
}

//gf:hotpath
func (t *Table) unlink(c *Conn) {
	if c.prev != nil {
		c.prev.next = c.next
	} else if t.lruHead == c {
		t.lruHead = c.next
	}
	if c.next != nil {
		c.next.prev = c.prev
	} else if t.lruTail == c {
		t.lruTail = c.prev
	}
	c.prev, c.next = nil, nil
}
