// Command gfreplay feeds raw packet bytes through the vSwitch service:
// it reads a classic-pcap capture and submits its frames, a batch at a
// time, through Service.SubmitFrameBatch — each frame decoded once, by
// the call — against a Gigaflow (or Megaflow) cache, printing hit rates,
// drops, and decode statistics.
//
// Without -rules it installs a built-in wire-demo pipeline whose rules
// match only frame-representable fields, and -gen synthesizes a matching
// trace as a pcap so the loop is self-contained:
//
//	gfreplay -gen demo.pcap -flows 5000        # synthesize a capture
//	gfreplay -pcap demo.pcap                   # replay it flat out
//	gfreplay -pcap demo.pcap -timed -speedup 100
//	gfreplay -pcap real.pcap -rules prog.txt -backend megaflow -cap 32768
//	gfreplay -pcap demo.pcap -telemetry 127.0.0.1:0 -metrics
//	gfreplay -pcap real.pcap -rules nat.txt -workers 4 -conntrack -ct-idle 30s
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"time"

	"gigaflow"
	wire "gigaflow/internal/packet"
	"gigaflow/internal/pcap"
	"gigaflow/internal/stats"
	"gigaflow/internal/telemetry"
	"gigaflow/internal/traffic"
	"gigaflow/service"
)

func main() {
	var (
		o         options
		rc        replayConfig
		pcapPath  = flag.String("pcap", "", "capture to replay")
		genPath   = flag.String("gen", "", "synthesize a demo trace to this pcap file and exit")
		rulesPath = flag.String("rules", "", "pipeline program file (default: built-in wire demo)")
		inPort    = flag.Uint("inport", 0, "ingress port attributed to every frame")
		flows     = flag.Int("flows", 5000, "unique flows in a -gen trace")
		seed      = flag.Int64("seed", 1, "seed for -gen")
		metrics   = flag.Bool("metrics", false, "dump the metrics registry (Prometheus text) after the report")
	)
	flag.StringVar(&o.backend, "backend", "gigaflow", "cache backend (gigaflow|megaflow)")
	flag.IntVar(&o.workers, "workers", 1, "forwarding workers")
	flag.IntVar(&o.tables, "tables", 4, "Gigaflow tables")
	flag.IntVar(&o.capacity, "cap", 32768, "total main-cache entries, either backend (split across tables and workers)")
	flag.IntVar(&o.microflow, "microflow", 0, "per-worker microflow entries (0: disabled)")
	flag.StringVar(&o.telemetry, "telemetry", "", "serve /metrics and /debug endpoints on this address during the replay")
	flag.BoolVar(&o.conntrack, "conntrack", false, "enable connection tracking (required for ct_state/NAT pipelines)")
	flag.IntVar(&o.ctMax, "ct-max", 0, "total live-connection budget across workers (0: conntrack default)")
	flag.DurationVar(&o.ctIdle, "ct-idle", 0, "expire connections idle longer than this (0: never)")
	flag.BoolVar(&rc.timed, "timed", false, "pace by trace timestamps instead of as-fast-as-possible")
	flag.Float64Var(&rc.speedup, "speedup", 1, "timeline compression in -timed mode")
	flag.BoolVar(&rc.blocking, "block", false, "wait for each frame's verdict (lossless replay)")
	flag.IntVar(&rc.batch, "batch", 32, "frames submitted per batch (1: per-packet submission)")
	flag.IntVar(&rc.limit, "limit", 0, "stop after N records (0: all)")
	flag.Parse()

	if *genPath != "" {
		if err := generate(*genPath, *flows, *seed); err != nil {
			fail(err)
		}
		return
	}
	if *pcapPath == "" {
		fmt.Fprintln(os.Stderr, "usage: gfreplay -gen demo.pcap | gfreplay -pcap demo.pcap [flags]")
		os.Exit(2)
	}
	cfg, err := serviceConfig(o)
	if err == nil {
		rc, err = replayFlags(rc, *inPort)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "gfreplay: %v\n", err)
		os.Exit(2)
	}

	p, err := loadPipeline(*rulesPath)
	if err != nil {
		fail(err)
	}
	s, err := service.New(p, cfg)
	if err != nil {
		fail(err)
	}
	ctx := context.Background()
	if err := s.Start(ctx); err != nil {
		fail(err)
	}
	defer s.Close()
	if o.telemetry != "" {
		fmt.Fprintf(os.Stderr, "gfreplay: telemetry on http://%s/metrics\n", s.TelemetryAddr())
	}

	f, err := os.Open(*pcapPath)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	r, err := pcap.NewReader(f)
	if err != nil {
		fail(err)
	}

	rep, err := replay(ctx, s, r, rc)
	if err != nil {
		fail(err)
	}

	fmt.Printf("pipeline    %s (%d tables, %d rules)\n", p.Name, p.NumTables(), p.NumRules())
	fmt.Printf("capture     %s (%s resolution)\n", *pcapPath, resolution(r))
	fmt.Printf("replay      %s\n\n", rep)
	fmt.Println(rep.table())

	if *metrics {
		fmt.Println("--- telemetry ---")
		if err := dumpMetrics(ctx, os.Stdout, s); err != nil {
			fail(err)
		}
	}
}

// options are the flags that shape the service.
type options struct {
	backend                              string
	workers, tables, capacity, microflow int
	telemetry                            string
	conntrack                            bool
	ctMax                                int
	ctIdle                               time.Duration
}

// serviceConfig builds the service the flags ask for; an error is a usage
// error. capacity is the main cache's total on either backend: a Gigaflow
// cache splits it evenly across its tables.
func serviceConfig(o options) (service.Config, error) {
	cfg := service.Config{
		Workers:           o.workers,
		MicroflowCapacity: o.microflow * o.workers,
		TelemetryAddr:     o.telemetry,
	}
	switch {
	case o.workers < 1:
		return cfg, fmt.Errorf("-workers %d: at least one worker forwards", o.workers)
	case o.microflow < 0:
		return cfg, fmt.Errorf("-microflow %d is not a capacity", o.microflow)
	case o.ctMax < 0:
		return cfg, fmt.Errorf("-ct-max %d is not a budget", o.ctMax)
	}
	if o.conntrack {
		cfg.Conntrack = service.ConntrackConfig{Enable: true, MaxConns: o.ctMax, MaxIdle: o.ctIdle}
	} else if o.ctMax != 0 || o.ctIdle != 0 {
		return cfg, errors.New("-ct-max/-ct-idle require -conntrack")
	}
	switch o.backend {
	case "gigaflow":
		if o.tables < 1 || o.capacity < o.tables {
			return cfg, fmt.Errorf("-cap %d cannot give each of -tables %d an entry", o.capacity, o.tables)
		}
		cfg.Cache = gigaflow.CacheConfig{NumTables: o.tables, TableCapacity: o.capacity / o.tables}
	case "megaflow":
		if o.capacity < 1 {
			return cfg, fmt.Errorf("-cap %d: a Megaflow cache holds at least one entry", o.capacity)
		}
		cfg.MegaflowCapacity = o.capacity
	default:
		return cfg, fmt.Errorf("unknown backend %q", o.backend)
	}
	return cfg, nil
}

// replayConfig is how replay feeds a capture to the service.
type replayConfig struct {
	inPort   uint16  // the ingress port every frame is attributed to
	timed    bool    // submit each frame no earlier than its trace offset
	speedup  float64 // timed: compresses (>1) or stretches (<1) the timeline; positive
	blocking bool    // wait for every batch's verdicts: no frame is dropped
	limit    int     // stop after this many records (0: all)
	batch    int     // frames per SubmitFrameBatch call
}

// report summarises one replay.
type report struct {
	frames, bytes int // pcap records read, and their captured bytes
	submitted     int // frames that entered a worker queue
	queueDrops    int // frames a full worker queue refused (nonblocking only)
	rejected      int // frames too short for Ethernet, never submitted
	pipelineErrs  int // blocking: frames whose walk returned a pipeline error
	// decodeErrors (defective decodes, each submitted on a degraded key)
	// and perProto (decodes by protocol class), short frames aside, are the
	// change in the service's frame counters over the replay. Ingest
	// decodes every frame, so both count frames a full queue then refused,
	// and frames other goroutines submit meanwhile, as stats does.
	decodeErrors int
	perProto     [wire.NumProtos]int
	truncated    bool                  // the capture ended mid-record
	stats        gigaflow.VSwitchStats // the service's counter delta over the replay
	elapsed      time.Duration
}

// replayFlags is the replay the flags ask for, every frame attributed to
// inPort; an error is a usage error.
func replayFlags(rc replayConfig, inPort uint) (replayConfig, error) {
	switch {
	case inPort > math.MaxUint16:
		return rc, fmt.Errorf("-inport %d is not a port (0-65535)", inPort)
	case rc.batch < 1:
		return rc, fmt.Errorf("-batch %d: a batch holds at least one frame", rc.batch)
	case !(rc.speedup > 0):
		return rc, fmt.Errorf("-speedup %v: must be positive", rc.speedup)
	case rc.limit < 0:
		return rc, fmt.Errorf("-limit %d is not a record count", rc.limit)
	}
	rc.inPort = uint16(inPort)
	return rc, nil
}

// replay streams a capture through SubmitFrameBatch, cfg.batch records a
// call, and reports what happened. The service must be started. In
// nonblocking mode the report is still complete: the closing Stats runs
// as a control op behind every submitted frame on each shard's FIFO queue,
// and is repeated until it has counted every one of them.
//
// On cancellation every batch already handed to the shards is gathered
// before replay returns (SubmitFrameBatch does so even when it fails), so
// a cancelled replay leaks no goroutine and no pending result.
func replay(ctx context.Context, s *service.Service, r *pcap.Reader, cfg replayConfig) (report, error) {
	var rep report
	before, err := s.Stats(ctx)
	if err != nil {
		return rep, err
	}
	protoBefore, degradedBefore := decodeCounts(s.Registry())

	// r reuses its record buffer, so each frame's bytes are copied into an
	// arena that lives until the flush (when it grows, the frames already
	// in it keep the array they point into).
	batch := service.NewBatch(cfg.batch)
	frames := make([]service.Frame, 0, cfg.batch)
	var arena []byte
	var mode []service.SubmitOption
	if !cfg.blocking {
		mode = append(mode, service.Nonblocking())
	}
	flush := func() error {
		if len(frames) == 0 {
			return nil
		}
		if err := s.SubmitFrameBatch(ctx, frames, batch, mode...); err != nil {
			return err
		}
		for i := range frames {
			switch e := batch.Result(i).Err; {
			case e == nil:
				rep.submitted++
			case errors.Is(e, service.ErrQueueFull):
				rep.queueDrops++
			case errors.Is(e, service.ErrShortFrame):
				rep.rejected++
			default:
				// A per-packet pipeline error is a property of the ruleset,
				// not the replay; count it and keep going.
				rep.submitted++
				rep.pipelineErrs++
			}
		}
		frames, arena = frames[:0], arena[:0]
		return nil
	}

	start := time.Now()
	var traceStart int64
	for cfg.limit <= 0 || rep.frames < cfg.limit {
		rec, err := r.Next()
		if errors.Is(err, io.ErrUnexpectedEOF) {
			// An interrupted capture: replay what exists, as capture
			// tooling does, and say so in the report.
			rep.truncated = true
			break
		} else if errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return rep, err
		}
		if cfg.timed {
			if rep.frames == 0 {
				traceStart = rec.TimeNs
			}
			offset := time.Duration(float64(rec.TimeNs-traceStart) / cfg.speedup)
			if wait := time.Until(start.Add(offset)); wait > 0 {
				// Flush before pacing so frames already read are not held
				// past their trace slots by later ones.
				if err := flush(); err != nil {
					return rep, err
				}
				select {
				case <-ctx.Done():
					return rep, ctx.Err()
				case <-time.After(wait):
				}
			}
		}
		rep.frames++
		rep.bytes += len(rec.Frame)
		off := len(arena)
		arena = append(arena, rec.Frame...)
		frames = append(frames, service.Frame{InPort: cfg.inPort, Data: arena[off:len(arena):len(arena)]})
		if len(frames) >= cfg.batch {
			if err := flush(); err != nil {
				return rep, err
			}
		}
	}
	if err := flush(); err != nil {
		return rep, err
	}
	rep.elapsed = time.Since(start)
	// Stats is a control op behind every job the replay queued, on every
	// shard: it counts every submitted frame.
	after, err := s.Stats(ctx)
	if err != nil {
		return rep, err
	}
	rep.stats = after.Sub(before)
	// Every call counted its frames before submitting them: the counters
	// are complete.
	proto, degraded := decodeCounts(s.Registry())
	for p := range proto {
		rep.perProto[p] = proto[p] - protoBefore[p]
	}
	rep.decodeErrors = degraded - degradedBefore
	return rep, nil
}

// decodeCounts reads the service's frame counters as /metrics shows them:
// frames decoded per protocol class, and how many decoded with a defect
// yet were forwarded. A frame too short for Ethernet is counted as a
// non-IPv4 short_frame defect; it was never forwarded, so both figures
// leave it out.
func decodeCounts(reg *telemetry.Registry) (perProto [wire.NumProtos]int, degraded int) {
	decoded := reg.CounterVec("gigaflow_frames_decoded_total", "", "proto")
	errs := reg.CounterVec("gigaflow_frame_decode_errors_total", "", "reason")
	for p := range perProto {
		perProto[p] = int(decoded.With(wire.Proto(p).String()).Value())
	}
	short := int(errs.With(wire.ErrShortFrame.String()).Value())
	perProto[wire.ProtoNonIPv4] -= short
	for e := 1; e < wire.NumErrCodes; e++ { // 0 is ErrOK, which has no series
		degraded += int(errs.With(wire.ErrCode(e).String()).Value())
	}
	return perProto, degraded - short
}

// String renders a one-line summary.
func (rep report) String() string {
	return fmt.Sprintf("%d frames (%d bytes) in %v: %d submitted, %d queue drops, %d rejected, %d decode errors, hit rate %.2f%%",
		rep.frames, rep.bytes, rep.elapsed.Round(time.Millisecond),
		rep.submitted, rep.queueDrops, rep.rejected, rep.decodeErrors, 100*rep.stats.TotalHitRate())
}

// table renders the report's metric table.
func (rep report) table() string {
	t := &stats.Table{Headers: []string{"metric", "value"}}
	t.AddRow("frames read", rep.frames)
	t.AddRow("bytes read", rep.bytes)
	t.AddRow("submitted", rep.submitted)
	t.AddRow("queue drops", rep.queueDrops)
	t.AddRow("rejected (short frame)", rep.rejected)
	t.AddRow("decode errors (degraded)", rep.decodeErrors)
	if rep.pipelineErrs > 0 {
		t.AddRow("pipeline errors", rep.pipelineErrs)
	}
	for pr := wire.Proto(0); pr < wire.Proto(wire.NumProtos); pr++ {
		if n := rep.perProto[pr]; n > 0 {
			t.AddRow("proto "+pr.String(), n)
		}
	}
	t.AddRow("packets processed", rep.stats.Packets)
	t.AddRow("microflow hits", rep.stats.MicroflowHits)
	t.AddRow("cache hits", rep.stats.CacheHits)
	t.AddRow("cache misses", rep.stats.CacheMisses)
	t.AddRow("hit rate", fmt.Sprintf("%.2f%%", 100*rep.stats.TotalHitRate()))
	if rep.truncated {
		t.AddRow("capture truncated", "yes (replayed everything before the cut)")
	}
	return t.Render()
}

// dumpMetrics writes the service's registry as Prometheus text, after
// refreshing it from every shard: the per-worker series — packets, cache
// tiers, latency — exist only once Collect has run.
func dumpMetrics(ctx context.Context, w io.Writer, s *service.Service) error {
	if err := s.Collect(ctx); err != nil {
		return err
	}
	return s.Registry().WritePrometheus(w)
}

func resolution(r *pcap.Reader) string {
	if r.Nanosecond() {
		return "nanosecond"
	}
	return "microsecond"
}

// loadPipeline reads an ovs-ofctl-style program, or falls back to the
// built-in wire-demo pipeline that pairs with -gen traces.
func loadPipeline(path string) (*gigaflow.Pipeline, error) {
	if path == "" {
		return demoPipeline(), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return gigaflow.LoadPipeline(f)
}

// The built-in demo: an L2 admission table, an L3 routing table of /32
// destinations, and an L4 policy table. Every match field is carried in
// frame bytes, so a decoded frame reproduces the synthesized key exactly.
const (
	demoDsts     = 16 // /32 destinations in the L3 table
	demoServices = 4  // L4 service classes: demoTCPPorts plus DNS-over-UDP
)

var demoTCPPorts = [...]uint64{80, 443, 22}

func demoPipeline() *gigaflow.Pipeline {
	p := gigaflow.NewPipeline("wire-demo")
	p.AddTable(0, "l2", gigaflow.NewFieldSet(gigaflow.FieldEthDst))
	p.AddTable(1, "l3", gigaflow.NewFieldSet(gigaflow.FieldIPDst))
	p.AddTable(2, "l4", gigaflow.NewFieldSet(gigaflow.FieldIPProto, gigaflow.FieldTpDst))
	p.MustAddRule(0, gigaflow.MustParseMatch("eth_dst=02:00:00:00:00:01"), 10, nil, 1)
	for i := 0; i < demoDsts; i++ {
		m := gigaflow.MustParseMatch(fmt.Sprintf("ip_dst=10.1.0.%d", i))
		p.MustAddRule(1, m, 10, nil, 2)
	}
	for i, port := range demoTCPPorts {
		m := gigaflow.MustParseMatch(fmt.Sprintf("ip_proto=6,tp_dst=%d", port))
		p.MustAddRule(2, m, 10, []gigaflow.Action{gigaflow.Output(uint16(i + 1))}, gigaflow.NoTable)
	}
	p.MustAddRule(2, gigaflow.MustParseMatch("ip_proto=17,tp_dst=53"), 10,
		[]gigaflow.Action{gigaflow.Output(9)}, gigaflow.NoTable)
	return p
}

// demoKey synthesizes one wire-faithful flow key for rule combination
// ruleIdx: in_port and metadata stay zero (neither is a wire field),
// everything else round-trips through encode→decode losslessly. The rng
// varies the source fields, so distinct draws are distinct flows.
func demoKey(ruleIdx int, rng *rand.Rand) gigaflow.Key {
	var k gigaflow.Key
	k.Set(gigaflow.FieldEthSrc, 0x020000000000|uint64(rng.Intn(1<<24)))
	k.Set(gigaflow.FieldEthDst, 0x020000000001)
	k.Set(gigaflow.FieldEthType, wire.EtherTypeIPv4)
	k.Set(gigaflow.FieldIPSrc, uint64(0x0a000000+rng.Intn(1<<16)))
	k.Set(gigaflow.FieldIPDst, uint64(0x0a010000+ruleIdx%demoDsts))
	k.Set(gigaflow.FieldTpSrc, uint64(1024+rng.Intn(60000)))
	if pick := ruleIdx % demoServices; pick < len(demoTCPPorts) {
		k.Set(gigaflow.FieldIPProto, wire.IPProtoTCP)
		k.Set(gigaflow.FieldTpDst, demoTCPPorts[pick])
	} else {
		k.Set(gigaflow.FieldIPProto, wire.IPProtoUDP)
		k.Set(gigaflow.FieldTpDst, 53)
	}
	return k
}

func generate(path string, flows int, seed int64) error {
	cfg := traffic.Config{Seed: seed, NumFlows: flows}
	fl := traffic.GenerateFlows(cfg, traffic.UniformPicker(demoDsts*demoServices), demoKey)
	pkts := traffic.Expand(cfg, fl)

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pcap.WriteTrace(f, pkts); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("gfreplay: wrote %d packets (%d flows) to %s\n", len(pkts), flows, path)
	return nil
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "gfreplay: %v\n", err)
	os.Exit(1)
}
