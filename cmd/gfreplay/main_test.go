package main

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"

	wire "gigaflow/internal/packet"
	"gigaflow/service"
)

// TestDumpMetrics: the -metrics dump carries the per-worker series, not
// only the service-level ones a registry holds before its first Collect.
func TestDumpMetrics(t *testing.T) {
	s, err := service.New(demoPipeline(), service.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := s.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		if _, err := s.SubmitFrame(ctx, 0, wire.Encode(demoKey(i, rng))); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if err := dumpMetrics(ctx, &out, s); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		`gigaflow_packets_total{worker="0"}`, `gigaflow_packets_total{worker="1"}`,
		"gigaflow_cache_entries", "gigaflow_latency_ns", "gigaflow_frames_total",
	} {
		if !strings.Contains(out.String(), series) {
			t.Errorf("the dump has no %s series", series)
		}
	}
}
