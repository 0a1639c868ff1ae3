package service

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"gigaflow"
	wire "gigaflow/internal/packet"
)

// wireKey is the key() helper with the source fields a real TCP frame
// carries as well.
func wireKey(host, port uint64) gigaflow.Key {
	return key(host, port).
		With(gigaflow.FieldEthSrc, 0x02aabbccddee).
		With(gigaflow.FieldIPSrc, 0x0a000099).
		With(gigaflow.FieldTpSrc, 40000)
}

func TestSubmitFrame(t *testing.T) {
	s, ctx := startService(t, 2)
	frame := wire.Encode(wireKey(1, 80))
	r, err := s.SubmitFrame(ctx, 0, frame)
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict.Port != 1 {
		t.Fatalf("verdict = %v", r.Verdict)
	}
	// The same frame again: exact same key, so a cache hit.
	r, err = s.SubmitFrame(ctx, 0, frame)
	if err != nil {
		t.Fatal(err)
	}
	if !r.CacheHit {
		t.Error("second identical frame should hit")
	}
}

func TestSubmitFrameShortFrame(t *testing.T) {
	s, ctx := startService(t, 1)
	if _, err := s.SubmitFrame(ctx, 0, []byte{1, 2, 3}); !errors.Is(err, ErrShortFrame) {
		t.Fatalf("err = %v, want ErrShortFrame", err)
	}
	if s.frames.errs[wire.ErrShortFrame].Value() != 1 {
		t.Fatal("short frame not counted")
	}
}

func TestFrameTelemetryCounters(t *testing.T) {
	s, ctx := startService(t, 1)
	tcp := wire.Encode(wireKey(1, 80))
	if _, err := s.SubmitFrame(ctx, 0, tcp); err != nil {
		t.Fatal(err)
	}
	udp := wire.Encode(wireKey(2, 80).With(gigaflow.FieldIPProto, wire.IPProtoUDP))
	if _, err := s.SubmitFrame(ctx, 0, udp); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitFrame(ctx, 0, tcp[:36]); err != nil { // degraded but forwarded
		t.Fatal(err)
	}

	if got := s.frames.decoded[wire.ProtoTCP].Value(); got != 2 {
		t.Errorf("tcp decoded = %d, want 2 (one clean, one degraded)", got)
	}
	if got := s.frames.decoded[wire.ProtoUDP].Value(); got != 1 {
		t.Errorf("udp decoded = %d, want 1", got)
	}
	if got := s.frames.errs[wire.ErrL4Truncated].Value(); got != 1 {
		t.Errorf("l4_truncated = %d, want 1", got)
	}
	if got := s.frames.frames.Value(); got != 3 {
		t.Errorf("frames total = %d, want 3", got)
	}
	if got := s.frames.bytes.Value(); got != uint64(len(tcp)+len(udp)+36) {
		t.Errorf("bytes total = %d", got)
	}

	// The counters surface through the registry's Prometheus text.
	var buf bytes.Buffer
	if err := s.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`gigaflow_frames_decoded_total{proto="tcp"} 2`,
		`gigaflow_frames_decoded_total{proto="udp"} 1`,
		`gigaflow_frame_decode_errors_total{reason="l4_truncated"} 1`,
		`gigaflow_frames_total 3`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("missing %q in /metrics output", want)
		}
	}
}

// TestCapacitySplitExact is the regression test for the remainder-
// dropping bug: the per-worker capacity division must conserve the
// configured totals for every tier and backend.
func TestCapacitySplitExact(t *testing.T) {
	t.Run("gigaflow", func(t *testing.T) {
		const workers, total, tables = 3, 1000, 4
		s, err := New(buildPipeline(), Config{
			Workers:           workers,
			Cache:             gigaflow.CacheConfig{NumTables: tables, TableCapacity: total},
			MicroflowCapacity: 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		sumCache, sumMicro := 0, 0
		for _, w := range s.workers {
			sumCache += w.vs.Cache().Capacity()
			sumMicro += w.vs.Microflow().Capacity()
		}
		if sumCache != tables*total {
			t.Errorf("summed Gigaflow capacity = %d, want %d (remainder dropped)", sumCache, tables*total)
		}
		if sumMicro != 10 {
			t.Errorf("summed Microflow capacity = %d, want 10", sumMicro)
		}
	})
	t.Run("megaflow", func(t *testing.T) {
		const workers, total = 4, 1002
		s, err := New(buildPipeline(), Config{
			Workers:          workers,
			Backend:          BackendMegaflow,
			MegaflowCapacity: total,
		})
		if err != nil {
			t.Fatal(err)
		}
		sum := 0
		for _, w := range s.workers {
			sum += w.vs.Megaflow().Capacity()
		}
		if sum != total {
			t.Errorf("summed Megaflow capacity = %d, want %d", sum, total)
		}
	})
	t.Run("floor of one", func(t *testing.T) {
		// Fewer entries than workers: every worker still gets 1 (the
		// caches reject zero), so the total is the worker count.
		s, err := New(buildPipeline(), Config{
			Workers: 4,
			Cache:   gigaflow.CacheConfig{NumTables: 1, TableCapacity: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range s.workers {
			if got := w.vs.Cache().Capacity(); got != 1 {
				t.Errorf("worker capacity = %d, want floor of 1", got)
			}
		}
	})
}

func TestShareOf(t *testing.T) {
	for _, tc := range []struct {
		total, n int
		want     []int
	}{
		{100, 3, []int{34, 33, 33}},
		{8, 4, []int{2, 2, 2, 2}},
		{10, 4, []int{3, 3, 2, 2}},
		{1, 3, []int{1, 1, 1}}, // floor of one
		{0, 2, []int{1, 1}},
	} {
		for i, want := range tc.want {
			if got := shareOf(tc.total, tc.n, i); got != want {
				t.Errorf("shareOf(%d,%d,%d) = %d, want %d", tc.total, tc.n, i, got, want)
			}
		}
	}
}

// TestSubmitFrameBatchPerFramePorts: each Frame entry carries its own
// ingress port, and the decoded key for entry i must carry exactly
// frames[i].InPort — one batch can span multiple NIC queues without
// collapsing provenance onto a single port.
func TestSubmitFrameBatchPerFramePorts(t *testing.T) {
	s, ctx := startService(t, 2)
	raw := wire.Encode(wireKey(1, 80))
	frames := []Frame{
		{InPort: 0, Data: raw},
		{InPort: 3, Data: raw},
		{InPort: 7, Data: raw},
		{InPort: 3, Data: raw},
		{InPort: 65535, Data: raw},
	}
	b := NewBatch(len(frames))
	if err := s.SubmitFrameBatch(ctx, frames, b); err != nil {
		t.Fatal(err)
	}
	for i, f := range frames {
		if err := b.Result(i).Err; err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got := b.Key(i).Get(gigaflow.FieldInPort); got != uint64(f.InPort) {
			t.Errorf("frame %d: decoded in_port %d, want %d", i, got, f.InPort)
		}
		if b.Result(i).Verdict.Port != 1 {
			t.Errorf("frame %d: verdict %+v", i, b.Result(i).Verdict)
		}
	}
}
