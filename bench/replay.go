package main

import (
	"fmt"
	"strings"
	"time"

	"gigaflow"
	"gigaflow/internal/conntrack"
	"gigaflow/internal/flow"
	gfcache "gigaflow/internal/gigaflow"
	"gigaflow/internal/megaflow"
	"gigaflow/internal/microflow"
	wire "gigaflow/internal/packet"
	"gigaflow/internal/telemetry"
	"gigaflow/service"
)

// The traced run's stage-isolating drivers. Each replays the workload's
// frame sequence, in the same 64-packet batches, against one slice of the
// datapath, timing the calls into each layer's public functions from the
// outside: two clock reads per stage per batch, never per packet.

// megaflowBaseline is the Megaflow capacity the baseline replays use: the
// service's default for BackendMegaflow.
const megaflowBaseline = 32768

// clonePipeline copies p the way service.New gives each worker its
// replica: through the textual program format.
func clonePipeline(p *gigaflow.Pipeline) (*gigaflow.Pipeline, error) {
	var sb strings.Builder
	if err := gigaflow.DumpPipeline(&sb, p); err != nil {
		return nil, fmt.Errorf("bench: clone pipeline: %w", err)
	}
	c, err := gigaflow.LoadPipelineString(sb.String())
	if err != nil {
		return nil, fmt.Errorf("bench: clone pipeline: %w", err)
	}
	c.SetStart(p.Start)
	return c, nil
}

// newVSwitch builds a bare VSwitch configured exactly as the service
// configures its one worker (tracer attached but not sampling, latency
// recorder on), optionally on the Megaflow backend.
func (in *instance) newVSwitch(mf bool) (*gigaflow.VSwitch, error) {
	p, err := clonePipeline(in.pipe)
	if err != nil {
		return nil, err
	}
	opts := []gigaflow.VSwitchOption{
		gigaflow.WithTracer(telemetry.NewTracer(0, 256)),
		gigaflow.WithMicroflow(in.cfg.MicroflowCapacity),
		gigaflow.WithLatencyRecorder(telemetry.NewLatencyRecorder(0, 0)),
	}
	if in.cfg.Conntrack.Enable {
		opts = append(opts, gigaflow.WithConntrack(in.cfg.Conntrack.MaxConns))
	}
	if mf {
		opts = append(opts, gigaflow.WithMegaflowBackend(megaflowBaseline))
	}
	return gigaflow.NewVSwitch(p, in.cfg.Cache, opts...), nil
}

// decoded is the batch's keys and TCP flags, as the shard worker's
// decode would produce them.
type decoded struct {
	keys  [batchSize]gigaflow.Key
	flags [batchSize]uint8
}

func (d *decoded) decode(frames []service.Frame) {
	for i, f := range frames {
		k, info := wire.Decode(f.Data, f.InPort)
		d.keys[i], d.flags[i] = k, info.TCPFlags
	}
}

// vsDriver replays through a bare VSwitch.ProcessBatchMeta — the service
// minus its arena copy, scatter, queue hop and gather — and, with stages
// set, times the packet layer's per-batch work around it.
type vsDriver struct {
	v      *gigaflow.VSwitch
	tr     *tracer
	stages bool
	decoded
	out   [batchSize]gigaflow.ProcessResult
	errs  [batchSize]error
	patch [batchSize * 64]byte
	sink  uint64
}

func (d *vsDriver) trace(t *tracer) { d.tr = t }

func (d *vsDriver) process(frames []service.Frame, res []result) int64 {
	t := time.Now()
	root := d.tr.open(spReplay, t)
	if d.stages {
		for _, f := range frames {
			if tu, ok := wire.RSSTuple(f.Data); ok {
				d.sink += tu.SymHash()
			}
		}
		t = d.tr.stage(spRSS, root, t)
		d.decode(frames)
		t = d.tr.stage(spDecode, root, t)
	} else {
		d.decode(frames)
		t = time.Now()
	}
	d.v.ProcessBatchMeta(d.keys[:], d.flags[:], d.out[:], d.errs[:], t.UnixNano())
	t1 := d.tr.stage(spVSwitch, root, t)
	dt := int64(t1.Sub(t))
	if d.stages {
		// The egress rewrite a NAT-ing deployment would add: copy the frame
		// out and patch its 5-tuple to the verdict's final key.
		for i, f := range frames {
			b := d.patch[i*64 : i*64+len(f.Data)]
			copy(b, f.Data)
			wire.PatchFrameNAT(b, d.out[i].Final)
		}
		t1 = d.tr.stage(spNatPatch, root, t1)
	}
	d.tr.close(root, t1)
	for i := range res {
		res[i] = result{d.out[i].Verdict, d.out[i].Final, d.errs[i]}
	}
	return dt
}

func (d *vsDriver) update(u *ruleUpdate) error { return updateVSwitch(d.v, d.tr, u) }

// updateVSwitch applies a rule mutation to a bare VSwitch and
// revalidates it, as service.UpdateRules does on the worker.
func updateVSwitch(v *gigaflow.VSwitch, tr *tracer, u *ruleUpdate) error {
	t := time.Now()
	if err := u.apply(v.Pipeline()); err != nil {
		return err
	}
	v.Revalidate()
	tr.stage(spUpdate, noParent, t)
	return nil
}

// shadowDriver is the shadow chain: the VSwitch's lookup chain rebuilt
// from the tiers' public functions and run a stage at a time per batch —
// every microflow lookup, then every conntrack Track, then every
// main-cache lookup, then the misses' traversals, installs and
// memoisation — so each stage's cost can be timed with two clock reads.
//
// Running stage-by-stage differs from the real per-packet order in one
// way: what an earlier packet installs is not visible to later packets of
// the same batch. For later packets of the *same flow* — common in the
// Pareto trace, whose heavy flows put several packets in a batch — the
// chain models the real outcome (the first packet's memo serves them)
// by resolving only the flow's first packet and copying its result; a
// different flow covered by a wildcard entry installed earlier in the
// batch still takes its own miss. vswitch.closure (Σ stage time ÷
// VSwitch batch time) reports how faithfully the chain models the real
// path.
type shadowDriver struct {
	pipe *gigaflow.Pipeline
	uf   *microflow.Cache
	gf   *gfcache.Cache  // nil when shadowing the Megaflow backend
	mf   *megaflow.Cache // nil when shadowing the Gigaflow backend
	ct   *conntrack.Table
	tr   *tracer
	decoded

	kt    [batchSize]gigaflow.Key
	hash  [batchSize]uint64
	first [batchSize]int // index of the batch's first packet of this flow
	conn  [batchSize]*conntrack.Conn
	dir   [batchSize]conntrack.Dir
	state [batchSize]uint8
	trav  [batchSize]*gigaflow.Traversal
	n     shadowCounts
}

// shadowCounts are the operation counts the stage times are divided by.
type shadowCounts struct {
	packets, tracks, mainLookups, mainHits, pathLen uint64
	misses, steps, probes, memos                    uint64
}

const (
	stServed  uint8 = iota // microflow hit
	stPending              // reached the main cache
	stMainHit
	stMiss
	stFailed
	stFollower // a later packet of a flow an earlier packet is resolving
)

func (in *instance) newShadow(mf bool) (*shadowDriver, error) {
	p, err := clonePipeline(in.pipe)
	if err != nil {
		return nil, err
	}
	d := &shadowDriver{pipe: p, uf: microflow.New(in.cfg.MicroflowCapacity)}
	if mf {
		d.mf = megaflow.New(megaflowBaseline)
	} else {
		d.gf = gfcache.New(p, in.cfg.Cache)
	}
	if in.cfg.Conntrack.Enable {
		d.ct = conntrack.NewTable(in.cfg.Conntrack.MaxConns)
	}
	return d, nil
}

func (d *shadowDriver) trace(t *tracer) { d.tr = t }

func (d *shadowDriver) process(frames []service.Frame, res []result) int64 {
	d.decode(frames)
	// Bookkeeping, off the clock: find each packet's first same-flow
	// packet in the batch.
	for i := range frames {
		d.hash[i], d.first[i] = d.keys[i].FlowHash(), i
		for j := 0; j < i; j++ {
			if d.hash[j] == d.hash[i] && d.keys[j] == d.keys[i] {
				d.first[i] = d.first[j]
				break
			}
		}
	}
	t0 := time.Now()
	now := t0.UnixNano()
	root := d.tr.open(spReplay, t0)

	ufb := d.uf.BatchLookup()
	for i := range frames {
		if e, ok := ufb.Lookup(d.keys[i], now); ok {
			if e.Ct == nil || d.ctServe(e, d.keys[i], d.flags[i], now) {
				res[i], d.state[i] = result{e.Verdict, e.Final, nil}, stServed
				continue
			}
			d.uf.Remove(d.keys[i])
		}
		if j := d.first[i]; j != i && d.state[j] != stServed {
			d.state[i] = stFollower
			continue
		}
		d.kt[i], d.state[i] = d.keys[i], stPending
	}
	ufb.Flush()
	t := d.tr.stage(spUfLookup, root, t0)

	if d.ct != nil {
		for i := range frames {
			if d.state[i] == stPending {
				var bits uint64
				bits, d.conn[i], d.dir[i] = d.ct.Track(d.keys[i], d.flags[i], now)
				d.kt[i] = d.keys[i].With(flow.FieldCtState, bits)
				d.n.tracks++
			}
		}
		t = d.tr.stage(spCtTrack, root, t)
	}

	if d.gf != nil {
		gfb := d.gf.BatchLookup()
		for i := range frames {
			if d.state[i] != stPending {
				continue
			}
			d.n.mainLookups++
			d.state[i] = stMiss
			if r := gfb.Lookup(d.kt[i], now); r.Hit && d.pathValid(r.Path) {
				res[i], d.state[i] = result{r.Verdict, r.Final, nil}, stMainHit
				d.n.mainHits++
				d.n.pathLen += uint64(len(r.Path))
			}
		}
		gfb.Flush()
	} else {
		mfb := d.mf.BatchLookup()
		for i := range frames {
			if d.state[i] != stPending {
				continue
			}
			d.n.mainLookups++
			d.state[i] = stMiss
			e, ok := mfb.Lookup(d.kt[i], now)
			if !ok {
				continue
			}
			if d.ct != nil && e.CtEpoch != 0 && !d.ct.EpochValid(e.CtConn, e.CtEpoch) {
				d.mf.Remove(e)
				continue
			}
			final, verdict := e.Apply(d.kt[i])
			res[i], d.state[i] = result{verdict, final, nil}, stMainHit
			d.n.mainHits++
		}
		mfb.Flush()
	}
	t = d.tr.stage(spMainLookup, root, t)

	for i := range frames {
		if d.state[i] != stMiss {
			continue
		}
		d.n.misses++
		var tr *gigaflow.Traversal
		var err error
		if d.ct != nil {
			r := natResolver{ct: d.ct, pipe: d.pipe, conn: d.conn[i], dir: d.dir[i]}
			tr, err = d.pipe.ProcessResolve(d.kt[i], &r)
		} else {
			tr, err = d.pipe.Process(d.kt[i])
		}
		if err != nil {
			res[i], d.state[i] = result{err: err}, stFailed
			continue
		}
		d.trav[i] = tr
		res[i] = result{tr.Verdict, tr.FinalKey(), nil}
		d.n.steps += uint64(tr.Len())
		d.n.probes += uint64(tr.TuplesProbed)
	}
	t = d.tr.stage(spTraverse, root, t)

	for i := range frames {
		if d.state[i] != stMiss {
			continue
		}
		// A rejected install (target tables full with eviction off) is not
		// an error for the packet; the real path only counts it.
		if d.gf != nil {
			_, _ = d.gf.Insert(d.trav[i], now)
		} else {
			d.mf.Insert(d.trav[i], now)
		}
		d.trav[i] = nil
	}
	t = d.tr.stage(spMainInsert, root, t)

	for i := range frames {
		if s := d.state[i]; s != stMainHit && s != stMiss {
			continue
		}
		d.n.memos++
		if c := d.conn[i]; d.ct != nil && c != nil {
			d.uf.InsertCt(d.keys[i], res[i].final, res[i].verdict, now, c, c.Epoch, d.dir[i])
		} else {
			d.uf.Insert(d.keys[i], res[i].final, res[i].verdict, now)
		}
	}
	t = d.tr.stage(spUfInsert, root, t)
	d.tr.close(root, t)
	for i := range frames {
		if d.state[i] == stFollower {
			res[i] = res[d.first[i]]
		}
	}
	d.n.packets += uint64(len(frames))
	return int64(t.Sub(t0))
}

// ctServe is the conntrack guard on a connection-bound microflow hit, as
// the VSwitch applies it: serve only while the connection still carries
// the memoised epoch and this packet cannot transition it.
func (d *shadowDriver) ctServe(e *microflow.Entry, k gigaflow.Key, tcpFlags uint8, now int64) bool {
	c := e.Ct
	if c.Epoch != e.CtEpoch ||
		conntrack.MayTransition(c.State, e.CtDir, k.Get(flow.FieldIPProto), tcpFlags) {
		return false
	}
	d.ct.Touch(c, now)
	return true
}

// pathValid checks a Gigaflow hit path's connection-dependent entries
// against the conntrack table, removing stale ones.
func (d *shadowDriver) pathValid(path []*gfcache.Entry) bool {
	if d.ct == nil {
		return true
	}
	valid := true
	for _, e := range path {
		if e.CtEpoch != 0 && !d.ct.EpochValid(e.CtConn, e.CtEpoch) {
			d.gf.Remove(e)
			valid = false
		}
	}
	return valid
}

func (d *shadowDriver) update(u *ruleUpdate) error {
	if err := u.apply(d.pipe); err != nil {
		return err
	}
	d.uf.Invalidate()
	t := time.Now()
	if d.gf != nil {
		d.gf.Revalidate()
	} else {
		d.mf.Revalidate(d.pipe)
	}
	d.tr.stage(spRevalidate, noParent, t)
	return nil
}

// natResolver resolves the benchmark pipeline's stateful actions (dnat
// and ct_nat; it installs no snat rule) against a conntrack table, the
// way the VSwitch's slow path does.
type natResolver struct {
	ct   *conntrack.Table
	pipe *gigaflow.Pipeline
	conn *conntrack.Conn
	dir  conntrack.Dir
}

func (r *natResolver) Resolve(a gigaflow.Action) ([]gigaflow.Action, gigaflow.Key, uint64, bool) {
	c := r.conn
	if c == nil {
		return nil, gigaflow.Key{}, 0, false
	}
	switch a.Type {
	case flow.ActionDNAT:
		if r.dir == conntrack.DirReply {
			return []gigaflow.Action{
				flow.SetField(flow.FieldIPSrc, c.Orig.Get(flow.FieldIPDst)),
				flow.SetField(flow.FieldTpSrc, c.Orig.Get(flow.FieldTpDst)),
			}, c.Orig, c.Epoch, true
		}
		if !c.DNAT.Set {
			targets := r.pipe.NATPool(uint16(a.Value))
			if len(targets) == 0 {
				return nil, gigaflow.Key{}, 0, false
			}
			tgt := targets[c.BindHash()%uint64(len(targets))]
			r.ct.SetDNAT(c, tgt.IP, tgt.Port)
		}
		return []gigaflow.Action{
			flow.SetField(flow.FieldIPDst, c.DNAT.IP),
			flow.SetField(flow.FieldTpDst, c.DNAT.Port),
		}, c.Orig, c.Epoch, true
	case flow.ActionCtNAT:
		nk := c.NATKey(r.dir)
		return []gigaflow.Action{
			flow.SetField(flow.FieldIPSrc, nk.Get(flow.FieldIPSrc)),
			flow.SetField(flow.FieldIPDst, nk.Get(flow.FieldIPDst)),
			flow.SetField(flow.FieldTpSrc, nk.Get(flow.FieldTpSrc)),
			flow.SetField(flow.FieldTpDst, nk.Get(flow.FieldTpDst)),
		}, c.Orig, c.Epoch, true
	}
	return nil, gigaflow.Key{}, 0, false
}

// parkDriver replays through the VSwitch's park-mode protocol, the
// datapath half of the asynchronous slow-path offload: ProcessBatchPark
// scans the batch and parks the misses; their traversals run off the
// clock (the upcall engine's work, on another goroutine in the service);
// then each parked packet gets its second-chance lookup and, if still
// missing, CompleteMiss.
type parkDriver struct {
	v  *gigaflow.VSwitch
	tr *tracer
	decoded
	out    [batchSize]gigaflow.ProcessResult
	errs   [batchSize]error
	parked [batchSize]bool
	trav   [batchSize]*gigaflow.Traversal

	nParked, nDedup uint64
}

func (d *parkDriver) trace(t *tracer) { d.tr = t }

func (d *parkDriver) process(frames []service.Frame, res []result) int64 {
	d.decode(frames)
	t0 := time.Now()
	now := t0.UnixNano()
	root := d.tr.open(spReplay, t0)
	d.v.ProcessBatchPark(d.keys[:], d.out[:], d.errs[:], d.parked[:], now)
	t := d.tr.stage(spParkScan, root, t0)
	scan := t.Sub(t0)

	for i := range frames {
		if d.parked[i] {
			d.trav[i], d.errs[i] = d.v.Pipeline().Process(d.keys[i])
		}
	}

	t = time.Now()
	for i := range frames {
		if !d.parked[i] || d.errs[i] != nil {
			continue
		}
		d.nParked++
		// Second chance: an earlier completion in this batch may have
		// installed an entry that now covers this flow.
		r, still, err := d.v.ProcessPark(d.keys[i], now)
		if still {
			r, err = d.v.CompleteMiss(d.keys[i], d.trav[i], now, 0, 0)
		} else {
			d.nDedup++
		}
		d.out[i], d.errs[i], d.trav[i] = r, err, nil
	}
	t1 := d.tr.stage(spParkComplete, root, t)
	d.tr.close(root, t1)
	for i := range res {
		res[i] = result{d.out[i].Verdict, d.out[i].Final, d.errs[i]}
	}
	return int64(scan + t1.Sub(t))
}

func (d *parkDriver) update(u *ruleUpdate) error { return updateVSwitch(d.v, d.tr, u) }
