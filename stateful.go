package gigaflow

import (
	"gigaflow/internal/conntrack"
	"gigaflow/internal/flow"
	"gigaflow/internal/microflow"
	"gigaflow/internal/packet"
)

// WithConntrack enables connection tracking: every TCP/UDP packet runs
// the conntrack state machine, its ct_state bits are folded into the key
// the main cache and slowpath match on, and stateful NAT actions
// (dnat/snat/ct_nat) resolve against per-connection bindings. maxConns
// bounds the table (0 = unbounded; LRU eviction under pressure).
//
// Conntrack changes which entry points make sense: feed TCP flags via
// ProcessBatchMeta so the state machine sees handshakes and closes.
// Process and a nil flags slice still work (flags read as zero — every
// TCP connection then looks like a half-open flow that establishes on the
// first reply and never closes).
func WithConntrack(maxConns int) VSwitchOption {
	return func(v *VSwitch) { v.ct = conntrack.NewTable(maxConns) }
}

// WithNATShard makes the switch shard shard of shards that share one
// pipeline: a connection it tracks is bound only to an endpoint in the
// shard's own contiguous sub-range of the pool (Pipeline.NATShard), so no
// two shards bind the same backend and a reply's source endpoint names the
// shard that holds its connection.
func WithNATShard(shard, shards int) VSwitchOption {
	return func(v *VSwitch) { v.res.shard, v.res.shards = shard, shards }
}

// Conntrack returns the connection table, or nil when tracking is
// disabled.
func (v *VSwitch) Conntrack() *conntrack.Table { return v.ct }

// ctServe is the conntrack fast-path guard for a microflow hit: the
// memoized result may be served iff the connection it was built under
// still carries the memoized epoch AND this packet cannot transition the
// connection. Serving also refreshes the connection's LRU/LastSeen so it
// stays alive while the microflow tier absorbs its traffic. Entries with
// no connection (nil Ct) are connection-independent and always serve.
//
// A false return means the entry is stale or the packet is a potential
// state-change; the caller drops the entry and takes the full path.
//
//gf:hotpath
func (v *VSwitch) ctServe(e *microflow.Entry, k *Key, tcpFlags uint8, now int64) bool {
	c := e.Ct
	if c == nil {
		return true
	}
	if c.Epoch != e.CtEpoch ||
		conntrack.MayTransition(c.State, e.CtDir, k.Get(flow.FieldIPProto), tcpFlags) {
		return false
	}
	v.ct.Touch(c, now)
	v.stats.CtFastpath++
	return true
}

// memoizeCt records a processed flow in the Microflow tier, when enabled;
// with tracking off that is all it does. Under conntrack, results for
// tracked connections are bound to the connection's current epoch (served
// only under the ctServe guard), and ICMP results are never memoized —
// their ct_rel bit flips as tracked host pairs come and go, and an exact
// entry has no way to revalidate that. The insert is part of the certified
// hot path: a full tier recycles its LRU entry in place, and a filling one
// grows its slab behind the microflow package's own audited boundary.
//
//gf:hotpath
func (v *VSwitch) memoizeCt(k, final *Key, verdict Verdict, now int64,
	conn *conntrack.Conn, dir conntrack.Dir) {
	if v.uf == nil {
		return
	}
	if v.ct == nil {
		v.uf.Memoize(k, final, verdict, now)
		return
	}
	if conn != nil {
		v.uf.MemoizeCt(k, final, verdict, now, conn, conn.Epoch, dir)
		return
	}
	if k.Get(flow.FieldEthType) == packet.EtherTypeIPv4 &&
		k.Get(flow.FieldIPProto) == packet.IPProtoICMP {
		return
	}
	v.uf.Memoize(k, final, verdict, now)
}

// ctResolver resolves stateful NAT actions during a slow-path traversal
// against a conntrack table and a pipeline's NAT pools, for the single
// connection the packet at hand belongs to. Both the VSwitch slow path
// and the cache-free Reference walk use it, which is what makes their
// NAT decisions bit-identical.
type ctResolver struct {
	ct   *conntrack.Table
	pipe *Pipeline
	conn *conntrack.Conn
	dir  conntrack.Dir
	// shard of shards is the sub-range of every pool new bindings are made
	// from (Pipeline.NATShard); shards ≤ 1 binds from the whole pool.
	shard, shards int
	// buf backs every returned resolution (at most ct_nat's four
	// rewrites); the traversal copies it out before resolving again.
	buf [4]Action
}

// Resolve implements pipeline.Resolver. Forward-direction dnat/snat pick
// (and then reuse) the connection's binding from the action's pool;
// reply-direction dnat/snat and ct_nat apply the inverse rewrite. All
// resolutions report the connection's original tuple and current epoch,
// tying the resulting cache entries to this connection generation. The
// returned actions alias the resolver's buffer.
func (r *ctResolver) Resolve(a Action) ([]Action, Key, uint64, bool) {
	c := r.conn
	if c == nil {
		return nil, Key{}, 0, false // untracked packet: stateful action is a no-op
	}
	switch a.Type {
	case flow.ActionDNAT:
		if r.dir == conntrack.DirForward {
			if !c.DNAT.Set {
				tgt, ok := r.pick(uint16(a.Value))
				if !ok {
					return nil, Key{}, 0, false
				}
				r.ct.SetDNAT(c, tgt.IP, tgt.Port)
			}
			return r.rewrite2(flow.FieldIPDst, c.DNAT.IP, flow.FieldTpDst, c.DNAT.Port), c.Orig, c.Epoch, true
		}
		// Reply direction: un-DNAT — the source reads as the original
		// destination (the virtual IP the client spoke to).
		return r.rewrite2(flow.FieldIPSrc, c.Orig.Get(flow.FieldIPDst),
			flow.FieldTpSrc, c.Orig.Get(flow.FieldTpDst)), c.Orig, c.Epoch, true
	case flow.ActionSNAT:
		if r.dir == conntrack.DirForward {
			if !c.SNAT.Set {
				tgt, ok := r.pick(uint16(a.Value))
				if !ok {
					return nil, Key{}, 0, false
				}
				r.ct.SetSNAT(c, tgt.IP, tgt.Port)
			}
			return r.rewrite2(flow.FieldIPSrc, c.SNAT.IP, flow.FieldTpSrc, c.SNAT.Port), c.Orig, c.Epoch, true
		}
		// Reply direction: un-SNAT — restore the original source as the
		// destination.
		return r.rewrite2(flow.FieldIPDst, c.Orig.Get(flow.FieldIPSrc),
			flow.FieldTpDst, c.Orig.Get(flow.FieldTpSrc)), c.Orig, c.Epoch, true
	case flow.ActionCtNAT:
		// Apply the connection's recorded bindings in the packet's
		// direction: the identity rewrite when no binding exists.
		nk := c.NATKey(r.dir)
		r.buf = [4]Action{
			flow.SetField(flow.FieldIPSrc, nk.Get(flow.FieldIPSrc)),
			flow.SetField(flow.FieldIPDst, nk.Get(flow.FieldIPDst)),
			flow.SetField(flow.FieldTpSrc, nk.Get(flow.FieldTpSrc)),
			flow.SetField(flow.FieldTpDst, nk.Get(flow.FieldTpDst)),
		}
		return r.buf[:], c.Orig, c.Epoch, true
	}
	return nil, Key{}, 0, false
}

// rewrite2 returns the address-and-port pair of set-field rewrites a dnat
// or snat resolves to, in the resolver's buffer.
func (r *ctResolver) rewrite2(ipField FieldID, ip uint64, portField FieldID, port uint64) []Action {
	r.buf[0], r.buf[1] = flow.SetField(ipField, ip), flow.SetField(portField, port)
	return r.buf[:2]
}

// pick selects this connection's backend from the resolver's sub-range of
// a NAT pool: deterministic in the connection's tuple and generation
// (BindHash), so a replayed trace binds identically, while a reused tuple
// may rebind.
func (r *ctResolver) pick(pool uint16) (NATTarget, bool) {
	targets := r.pipe.NATShard(pool, r.shard, r.shards)
	if len(targets) == 0 {
		return NATTarget{}, false
	}
	return targets[r.conn.BindHash()%uint64(len(targets))], true
}
