// Example telemetry starts a multi-worker service, serves its
// introspection endpoints (Service.TelemetryHandler) on a listener of its
// own, drives encoded frames through it, and prints the address to scrape:
//
//	go run ./examples/telemetry
//	curl localhost:9090/metrics
//	curl localhost:9090/latency
//	curl localhost:9090/cache
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"time"

	"gigaflow"
	wire "gigaflow/internal/packet"
	"gigaflow/service"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9090", "telemetry listen address (use :0 for a free port)")
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	ln, err := net.Listen("tcp", *addr)
	var svc *service.Service
	if err == nil {
		svc, err = run(ctx, ln, 0)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	svc.Close()
}

// run starts a two-worker service serving the introspection endpoints on
// ln until ln is closed, and drives a steady mix of flows through it, one
// frame a millisecond, so every tier shows activity: frames of them, or
// until ctx is done when frames is 0. It returns the service still
// running; the caller closes it.
func run(ctx context.Context, ln net.Listener, frames int) (*service.Service, error) {
	p := gigaflow.NewPipeline("demo")
	p.AddTable(0, "l2", gigaflow.NewFieldSet(gigaflow.FieldEthDst))
	p.AddTable(1, "l3", gigaflow.NewFieldSet(gigaflow.FieldIPDst))
	p.AddTable(2, "l4", gigaflow.NewFieldSet(gigaflow.FieldTpDst))
	p.MustAddRule(0, gigaflow.MustParseMatch("eth_dst=02:00:00:00:00:01"), 10, nil, 1)
	p.MustAddRule(1, gigaflow.MustParseMatch("ip_dst=10.0.0.0/16"), 10, nil, 2)
	p.MustAddRule(2, gigaflow.MustParseMatch("tp_dst=80"), 10,
		[]gigaflow.Action{gigaflow.Output(1)}, gigaflow.NoTable)
	p.MustAddRule(2, gigaflow.MustParseMatch("tp_dst=22"), 20,
		[]gigaflow.Action{gigaflow.Drop()}, gigaflow.NoTable)

	svc, err := service.New(p, service.Config{
		Workers:           2,
		Cache:             gigaflow.CacheConfig{NumTables: 3, TableCapacity: 3 * 1024},
		MicroflowCapacity: 256,
	})
	if err != nil {
		return nil, err
	}
	if err := svc.Start(ctx); err != nil {
		return nil, err
	}
	go http.Serve(ln, svc.TelemetryHandler())
	fmt.Printf("telemetry on http://%s (ctrl-c to stop)\n", ln.Addr())

	ticker := time.NewTicker(time.Millisecond)
	defer ticker.Stop()
	for i := 0; frames == 0 || i < frames; i++ {
		select {
		case <-ctx.Done():
			return svc, nil
		case <-ticker.C:
		}
		port := uint64(80)
		if i%17 == 0 {
			port = 22
		}
		k := gigaflow.MustParseKey("eth_dst=02:00:00:00:00:01,eth_type=0x0800,ip_proto=6").
			With(gigaflow.FieldIPDst, 0x0a000000|uint64(i%64)).
			With(gigaflow.FieldTpDst, port)
		if _, err := svc.SubmitFrame(ctx, 0, wire.Encode(k)); err != nil && ctx.Err() == nil {
			svc.Close()
			return nil, err
		}
	}
	return svc, nil
}
