// Command gfreplay feeds raw packet bytes through the vSwitch service:
// it reads a classic-pcap capture, decodes every frame into an LTM key,
// and replays the trace against a Gigaflow (or Megaflow) cache, printing
// hit rates, drops, and decode statistics.
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
	"flag"
	"fmt"
	"math/rand"
	"os"

	"gigaflow"
	wire "gigaflow/internal/packet"
	"gigaflow/internal/pcap"
	"gigaflow/internal/stats"
	"gigaflow/internal/traffic"
	"gigaflow/service"
)

func main() {
	var (
		pcapPath  = flag.String("pcap", "", "capture to replay")
		genPath   = flag.String("gen", "", "synthesize a demo trace to this pcap file and exit")
		rulesPath = flag.String("rules", "", "pipeline program file (default: built-in wire demo)")
		backend   = flag.String("backend", "gigaflow", "cache backend (gigaflow|megaflow)")
		workers   = flag.Int("workers", 1, "forwarding workers")
		tables    = flag.Int("tables", 4, "Gigaflow tables")
		capacity  = flag.Int("cap", 8192, "total main-cache entries (split across workers)")
		microflow = flag.Int("microflow", 0, "per-worker microflow entries (0: disabled)")
		queue     = flag.Int("queue", 1024, "worker queue depth")
		inPort    = flag.Uint("inport", 0, "ingress port attributed to every frame")
		timed     = flag.Bool("timed", false, "pace by trace timestamps instead of as-fast-as-possible")
		speedup   = flag.Float64("speedup", 1, "timeline compression in -timed mode")
		block     = flag.Bool("block", false, "wait for each frame's verdict (lossless replay)")
		batch     = flag.Int("batch", service.DefaultBatchSize, "frames submitted per batch (1: per-packet submission)")
		limit     = flag.Int("limit", 0, "stop after N records (0: all)")
		flows     = flag.Int("flows", 5000, "unique flows in a -gen trace")
		seed      = flag.Int64("seed", 1, "seed for -gen")
		telem     = flag.String("telemetry", "", "serve /metrics and /debug endpoints on this address during the replay")
		metrics   = flag.Bool("metrics", false, "dump the metrics registry (Prometheus text) after the report")
		conntrack = flag.Bool("conntrack", false, "enable connection tracking (required for ct_state/NAT pipelines)")
		ctMax     = flag.Int("ct-max", 0, "total live-connection budget across workers (0: conntrack default)")
		ctIdle    = flag.Duration("ct-idle", 0, "expire connections idle longer than this (0: never)")
	)
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

	p, err := loadPipeline(*rulesPath)
	if err != nil {
		fail(err)
	}
	cfg := service.Config{
		Workers:           *workers,
		MicroflowCapacity: *microflow * *workers,
		QueueDepth:        *queue,
		TelemetryAddr:     *telem,
	}
	if *conntrack {
		cfg.Conntrack = service.ConntrackConfig{
			Enable:   true,
			MaxConns: *ctMax,
			MaxIdle:  *ctIdle,
		}
	} else if *ctMax != 0 || *ctIdle != 0 {
		fmt.Fprintln(os.Stderr, "gfreplay: -ct-max/-ct-idle require -conntrack")
		os.Exit(2)
	}
	switch *backend {
	case "gigaflow":
		cfg.Cache = gigaflow.CacheConfig{NumTables: *tables, TableCapacity: *capacity}
	case "megaflow":
		cfg.Backend = service.BackendMegaflow
		cfg.MegaflowCapacity = *capacity
	default:
		fmt.Fprintf(os.Stderr, "gfreplay: unknown backend %q\n", *backend)
		os.Exit(2)
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
	if *telem != "" {
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

	rep, err := s.Replay(ctx, r, service.ReplayConfig{
		InPort:    uint16(*inPort),
		Timed:     *timed,
		Speedup:   *speedup,
		Blocking:  *block,
		Limit:     *limit,
		BatchSize: *batch,
	})
	if err != nil {
		fail(err)
	}

	fmt.Printf("pipeline    %s (%d tables, %d rules)\n", p.Name, p.NumTables(), p.NumRules())
	fmt.Printf("capture     %s (%s resolution)\n", *pcapPath, resolution(r))
	fmt.Printf("replay      %s\n\n", rep)
	report(rep)

	if *metrics {
		fmt.Println("--- telemetry ---")
		if err := s.Registry().WritePrometheus(os.Stdout); err != nil {
			fail(err)
		}
	}
}

func resolution(r *pcap.Reader) string {
	if r.Nanosecond() {
		return "nanosecond"
	}
	return "microsecond"
}

func report(rep service.ReplayReport) {
	t := &stats.Table{Headers: []string{"metric", "value"}}
	t.AddRow("frames read", rep.Frames)
	t.AddRow("bytes read", rep.Bytes)
	t.AddRow("submitted", rep.Submitted)
	t.AddRow("queue drops", rep.QueueDrops)
	t.AddRow("rejected (short frame)", rep.Rejected)
	t.AddRow("decode errors (degraded)", rep.DecodeErrors)
	if rep.PipelineErrs > 0 {
		t.AddRow("pipeline errors", rep.PipelineErrs)
	}
	for pr := wire.Proto(0); pr < wire.Proto(wire.NumProtos); pr++ {
		if n := rep.PerProto[pr]; n > 0 {
			t.AddRow("proto "+pr.String(), n)
		}
	}
	t.AddRow("packets processed", rep.Stats.Packets)
	t.AddRow("microflow hits", rep.Stats.MicroflowHits)
	t.AddRow("cache hits", rep.Stats.CacheHits)
	t.AddRow("cache misses", rep.Stats.CacheMisses)
	t.AddRow("slowpath traversals", rep.Stats.Slowpath)
	t.AddRow("hit rate", fmt.Sprintf("%.2f%%", 100*rep.HitRate()))
	if rep.Truncated {
		t.AddRow("capture truncated", "yes (replayed everything before the cut)")
	}
	fmt.Println(t.Render())
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
