// Example telemetry starts a multi-worker service with the introspection
// endpoints enabled, drives encoded frames through it, and prints the
// address to scrape:
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
	"os"
	"os/signal"
	"time"

	"gigaflow"
	wire "gigaflow/internal/packet"
	"gigaflow/service"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9090", "telemetry listen address (use :0 for a free port)")
	upcall := flag.Int("upcall-workers", 0, "async slow-path goroutines (0 processes misses inline)")
	flag.Parse()

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
		TelemetryAddr:     *addr,
		Upcall:            service.UpcallConfig{Workers: *upcall},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := svc.Start(ctx); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer svc.Close()
	fmt.Printf("telemetry on http://%s (ctrl-c to stop)\n", svc.TelemetryAddr())

	// Drive a steady mix of flows so every tier shows activity.
	ticker := time.NewTicker(time.Millisecond)
	defer ticker.Stop()
	i := 0
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			port := uint64(80)
			if i%17 == 0 {
				port = 22
			}
			k := gigaflow.MustParseKey("eth_dst=02:00:00:00:00:01,eth_type=0x0800,ip_proto=6").
				With(gigaflow.FieldIPDst, 0x0a000000|uint64(i%64)).
				With(gigaflow.FieldTpDst, port)
			if _, err := svc.SubmitFrame(ctx, 0, wire.Encode(k)); err != nil && ctx.Err() == nil {
				fmt.Fprintln(os.Stderr, err)
			}
			i++
		}
	}
}
