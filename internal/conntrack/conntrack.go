// Package conntrack is the stateful layer of the datapath: a 5-tuple
// connection table with a TCP-flag-driven state machine, OVS-style
// ct_state bits folded into the flow key for the pipeline and caches to
// match on, per-connection NAT bindings, the result each connection holds
// for each direction once a pipeline walk has classified it, and the
// epoch protocol that decides when a held result is still good.
//
// The table has the microflow tier's layout (internal/slab): pointer-free
// connections in slab chunks, named by uint32 ref, the LRU and free lists
// threaded through them, so the garbage collector never scans them and a
// create at capacity takes the evicted tail's storage. Both tuples of a
// connection (the reply's translated once a NAT binding exists) sit in a
// hash-only index of {hash, ref<<1 | dir} slots sized from MaxConns, so
// both directions of a flow resolve to it in one probe. The host-pair
// refcount behind ICMP's ct_rel is built at the first ICMP packet the
// table tracks, from the live connections, and maintained from then on.
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
// both ("poisoning"), and a later connection that takes its storage is
// stamped afresh, so a *Conn's stamps only move forward: a holder of a
// dangling pointer fails its comparison, whoever now lives there. A *Conn
// is good until the next call that can remove a connection — a Track that
// creates at capacity, a displacing SetDNAT or SetSNAT, ExpireIdle — and a
// holder that keeps one longer keeps a stamp with it.
package conntrack

import (
	"gigaflow/internal/flow"
	"gigaflow/internal/flowtable"
	"gigaflow/internal/packet"
	"gigaflow/internal/pipeline"
	"gigaflow/internal/slab"
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

// Conn is one tracked connection, stored in the table's slab. Fields are
// owned by the table; callers treat connections as read-only handles,
// except Served, which the datapath driving the table fills.
type Conn struct {
	// What a tracked packet reads and writes comes first, in the first two
	// cache lines: the tuples its probe compares, the stamps, the LRU links.

	// Orig is the forward-direction 5-tuple as first seen (pre-NAT).
	Orig flow.Key
	// reply is the tuple reply packets carry, updated when a NAT binding
	// rewrites it.
	reply flow.Key
	// Epoch is the stamp of the connection's last creation, transition,
	// NAT binding or removal — "same state?". See the package comment for
	// the invalidation protocol.
	Epoch uint64
	// bound is the stamp of the connection's creation, last NAT binding
	// or removal — "same connection and bindings?", what Serves and
	// EpochValid hold a recorded stamp against. Transitions leave it
	// alone; bound <= Epoch always.
	bound uint64
	// gen is the connection's creation stamp: its identity, where the
	// storage it lives in is reused by later connections.
	gen uint64
	// LastSeen is the virtual time (ns) of the connection's most recent
	// packet.
	LastSeen int64
	// prev and next are LRU neighbours, most recent at the front, while the
	// connection is live; next doubles as the free-list link while it is
	// not. self is the connection's own ref.
	prev, next, self uint32
	// State is the current lifecycle state.
	State State

	// DNAT / SNAT are the connection's NAT bindings, if any.
	DNAT NATBinding
	SNAT NATBinding
	// Created is the connection's creation time (virtual ns).
	Created int64
	// Served holds, per Dir, the result the last walk or cache hit of a
	// packet in that direction left: see Served and Serves.
	Served [2]Served
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

// TupleMask is the 5-tuple mask connection probes match under. It covers
// key words 2 and 3 only, the two words the index hashes.
var TupleMask = flow.ExactFields(
	flow.FieldIPSrc, flow.FieldIPDst, flow.FieldIPProto,
	flow.FieldTpSrc, flow.FieldTpDst)

var pairMask = flow.ExactFields(flow.FieldIPSrc, flow.FieldIPDst)

// Table is the connection table. Not safe for concurrent use; each
// datapath worker owns one, like the cache tiers.
type Table struct {
	conns slab.Slab[Conn]
	// index finds a tuple's connection: each slot's ref is the
	// connection's ref<<1 | the Dir that tuple is, its hash tupleHash's.
	index slab.Index
	free  uint32 // head of the free list
	// pairs refcounts live (unordered) host pairs with at least one
	// TCP/UDP connection, backing the ct_rel bit for ICMP; nil until the
	// table tracks its first ICMP packet.
	pairs     *flowtable.Table[int]
	nextEpoch uint64
	maxConns  int
	count     int
	lruHead   uint32
	lruTail   uint32
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
	return &Table{conns: slab.New[Conn](maxConns), index: slab.NewIndex(2 * hint), maxConns: maxConns}
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

// tupleHash is the index hash of k's 5-tuple: the fold of the two key
// words TupleMask covers, masked.
//
//gf:hotpath
func tupleHash(k *flow.Key) uint64 {
	return flowtable.HashWords(k[2]&TupleMask[2], k[3]&TupleMask[3])
}

// sameTuple reports whether a and b carry the same 5-tuple.
//
//gf:hotpath
func sameTuple(a, b *flow.Key) bool {
	return (a[2]^b[2])&TupleMask[2] == 0 && (a[3]^b[3])&TupleMask[3] == 0
}

// find probes the index for the slot holding *k's 5-tuple, whose hash is
// h: nil when no connection holds it. The slot's Ref names the connection
// and the direction, ref<<1 | dir.
//
//gf:hotpath
func (t *Table) find(k *flow.Key, h uint64) *slab.Slot {
	m := t.index.Mask()
	for i := h & m; ; i = (i + 1) & m {
		s := &t.index.Slots[i]
		if s.Hash == 0 {
			return nil
		}
		if s.Hash == h {
			c := t.conns.At(s.Ref >> 1)
			tuple := &c.Orig
			if Dir(s.Ref&1) == DirReply {
				tuple = &c.reply
			}
			if sameTuple(tuple, k) {
				return s
			}
		}
	}
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
			if t.pairs == nil {
				t.buildPairs()
			}
			if _, ok := t.pairs.Lookup(pairKey(*k)); ok {
				bits |= flow.CtRel
			}
		}
		return bits, nil, DirForward
	}

	t.stats.Lookups++
	h := tupleHash(k)
	s := t.find(k, h)
	if s == nil {
		c := t.create(k, h, now)
		return stateBits(c.State, DirForward), c, DirForward
	}
	t.stats.Hits++
	c, dir := t.conns.At(s.Ref>>1), Dir(s.Ref&1)
	t.Touch(c, now)

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
			c = t.reopen(c, k, h, now)
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

// create registers a new connection for first-packet key *k, whose tuple
// hash is h. At capacity it first evicts the least recently seen
// connection, whose storage the new one then takes: once the table has
// filled, a connection allocates nothing.
//
//gf:hotpath
func (t *Table) create(k *flow.Key, h uint64, now int64) *Conn {
	if t.maxConns > 0 && t.count >= t.maxConns && t.lruTail != 0 {
		t.remove(t.conns.At(t.lruTail))
		t.stats.EvictLRU++
	}
	c, ref := t.alloc()
	epoch := t.newEpoch()
	// Field by field, every field: storage a connection takes keeps
	// nothing of its previous life but its place in the slab.
	c.Orig, c.reply, c.Served = *k, invert(*k), [2]Served{}
	c.Epoch, c.bound, c.gen = epoch, epoch, epoch
	c.DNAT, c.SNAT = NATBinding{}, NATBinding{}
	c.LastSeen, c.Created = now, now
	c.self, c.State = ref, StateNew
	// Track found no connection holding *k: its tuple is free to index.
	t.index.Insert(h, ref<<1|uint32(DirForward))
	t.register(&c.reply, ref<<1|uint32(DirReply))
	t.countPair(&c.Orig, 1)
	t.pushFront(c)
	t.count++
	t.stats.Created++
	return c
}

// alloc hands out storage for one more connection: the free list first,
// then the slab's next never-used record.
//
//gf:hotpath
func (t *Table) alloc() (*Conn, uint32) {
	if ref := t.free; ref != 0 {
		c := t.conns.At(ref)
		t.free = c.next
		return c, ref
	}
	return t.conns.Next()
}

// reopen replaces a closed connection whose tuple a new handshake is
// reusing. The initiator of the new connection is the packet at hand, so
// direction roles may swap relative to the old connection.
//
//gf:hotpath
func (t *Table) reopen(old *Conn, k *flow.Key, h uint64, now int64) *Conn {
	t.remove(old)
	t.stats.Reopened++
	return t.create(k, h, now)
}

// remove unregisters c's tuples, drops it from the LRU, poisons its stamps
// so cached entries that still point at it fail validation, and puts its
// storage on the free list. A tuple c no longer holds — its reply tuple
// re-registered onto its own forward one — is simply not found.
//
//gf:hotpath
func (t *Table) remove(c *Conn) {
	t.index.Delete(tupleHash(&c.Orig), c.self<<1|uint32(DirForward))
	t.index.Delete(tupleHash(&c.reply), c.self<<1|uint32(DirReply))
	t.countPair(&c.Orig, -1)
	t.unlink(c)
	t.count--
	t.restamp(c)
	c.next, t.free = t.free, c.self
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
	t.reregister(c)
}

// SetSNAT records c's source rewrite and re-registers the reply tuple
// (replies are addressed to the translated source).
func (t *Table) SetSNAT(c *Conn, ip, port uint64) {
	if c.SNAT.Set {
		return
	}
	c.SNAT = NATBinding{IP: ip, Port: port, Set: true}
	t.restamp(c) // see SetDNAT
	t.reregister(c)
}

// reregister moves c's reply registration to the tuple its bindings now
// make replies carry.
func (t *Table) reregister(c *Conn) {
	t.index.Delete(tupleHash(&c.reply), c.self<<1|uint32(DirReply))
	c.reply = invert(c.NATKey(DirForward))
	t.register(&c.reply, c.self<<1|uint32(DirReply))
}

// register indexes *tuple under v (a connection's ref<<1 | Dir). A tuple
// its own connection already holds — a reply that lands on the
// connection's forward tuple — has its slot rewritten in place. Any other
// connection still holding the tuple is displaced — a tuple clash, e.g. a
// NAT re-registration landing on a tuple that an earlier (pre-NAT)
// connection claimed as its own. The displaced connection is removed,
// which poisons its epoch: cache entries built under it must not keep
// serving once its tuple has been taken over.
//
//gf:hotpath
func (t *Table) register(tuple *flow.Key, v uint32) {
	h := tupleHash(tuple)
	if s := t.find(tuple, h); s != nil {
		if s.Ref>>1 == v>>1 {
			s.Ref = v
			return
		}
		t.remove(t.conns.At(s.Ref >> 1))
		t.stats.Displaced++
	}
	t.index.Insert(h, v)
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

// Touch refreshes c's LastSeen and moves it to the front of the LRU
// list without running the state machine: Track's per-packet refresh,
// also called by the benchmark's shadow chain, whose memo hits skip
// Track, until ROADMAP item 15.
//
//gf:hotpath
func (t *Table) Touch(c *Conn, now int64) {
	c.LastSeen = now
	if t.lruHead != c.self {
		t.unlink(c)
		t.pushFront(c)
	}
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
	s := t.find(&tuple, tupleHash(&tuple))
	return s != nil && epoch >= t.conns.At(s.Ref>>1).bound
}

// Lookup resolves a tuple to its connection and direction without
// running the state machine.
//
//gf:hotpath
func (t *Table) Lookup(k flow.Key) (*Conn, Dir, bool) {
	s := t.find(&k, tupleHash(&k))
	if s == nil {
		return nil, DirForward, false
	}
	return t.conns.At(s.Ref >> 1), Dir(s.Ref & 1), true
}

// ExpireIdle removes connections whose last packet is older than maxIdle
// (virtual ns) and returns how many died. Removed connections are
// epoch-poisoned, so the caches lazily drop entries that depended on
// them. The list is in LastSeen order, so the sweep stops at the first
// connection from the tail that is still fresh.
func (t *Table) ExpireIdle(now, maxIdle int64) int {
	if maxIdle <= 0 {
		return 0
	}
	n := 0
	for t.lruTail != 0 && now-t.conns.At(t.lruTail).LastSeen > maxIdle {
		t.remove(t.conns.At(t.lruTail))
		t.stats.Expired++
		n++
	}
	return n
}

// buildPairs builds the host-pair refcount behind ct_rel from the live
// connections; countPair maintains it from then on.
//
//gf:hotpath-safe builds the host-pair index once per table, at the first ICMP packet it tracks
func (t *Table) buildPairs() {
	t.pairs = flowtable.New[int](pairMask, t.count)
	for ref := t.lruHead; ref != 0; ref = t.conns.At(ref).next {
		t.countPair(&t.conns.At(ref).Orig, 1)
	}
}

// countPair moves the refcount of k's host pair by delta once the pair
// index exists, clearing ct_rel for the pair when its last connection
// dies.
//
//gf:hotpath-safe the pair index exists only in a table that has tracked ICMP, and grows with its connections
func (t *Table) countPair(k *flow.Key, delta int) {
	if t.pairs == nil {
		return
	}
	pk := pairKey(*k)
	n, _ := t.pairs.Lookup(pk)
	if n += delta; n <= 0 {
		t.pairs.Delete(pk)
		return
	}
	t.pairs.Put(pk, n)
}

// LRU plumbing, most recently seen at the front.

//gf:hotpath
func (t *Table) pushFront(c *Conn) {
	c.prev, c.next = 0, t.lruHead
	if t.lruHead != 0 {
		t.conns.At(t.lruHead).prev = c.self
	}
	t.lruHead = c.self
	if t.lruTail == 0 {
		t.lruTail = c.self
	}
}

//gf:hotpath
func (t *Table) unlink(c *Conn) {
	if c.prev != 0 {
		t.conns.At(c.prev).next = c.next
	} else if t.lruHead == c.self {
		t.lruHead = c.next
	}
	if c.next != 0 {
		t.conns.At(c.next).prev = c.prev
	} else if t.lruTail == c.self {
		t.lruTail = c.prev
	}
	c.prev, c.next = 0, 0
}
