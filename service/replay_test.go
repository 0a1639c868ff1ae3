package service

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"gigaflow"
	"gigaflow/internal/pcap"
)

// capture is a pcap of n whole frames of the svc tape, frame i stamped
// at(i) ns.
func capture(t *testing.T, n int, at func(i int) int64) *bytes.Buffer {
	t.Helper()
	spec := svc
	spec.damage, spec.rules = false, 0
	tape, _ := genTape(spec, 1, Config{})
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := w.WritePacket(at(i), tape[i].frame); err != nil {
			t.Fatal(err)
		}
	}
	return &buf
}

// replayConfig is the service the replay tests replay into.
var replayConfig = Config{Workers: 2, Cache: gigaflow.CacheConfig{NumTables: 3, TableCapacity: 512}, MicroflowCapacity: 256}

// TestReplayTimedPacing checks trace-timestamp pacing: a two-packet
// trace 80ms apart at Speedup 1 cannot finish faster than the gap.
func TestReplayTimedPacing(t *testing.T) {
	buf := capture(t, 2, func(i int) int64 { return int64(i) * 80_000_000 })
	s := start(t, buildPipeline(), replayConfig)
	r, err := pcap.NewReader(buf)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Replay(context.Background(), r, ReplayConfig{Timed: true, Blocking: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Elapsed < 80_000_000 {
		t.Fatalf("timed replay finished in %v, faster than the 80ms trace span", rep.Elapsed)
	}
	if rep.Frames != 2 {
		t.Fatalf("frames = %d", rep.Frames)
	}
}

// TestReplayLimit stops after N records.
func TestReplayLimit(t *testing.T) {
	s := start(t, buildPipeline(), replayConfig)
	r, err := pcap.NewReader(capture(t, 200, func(int) int64 { return 0 }))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Replay(context.Background(), r, ReplayConfig{Blocking: true, Limit: 25})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Frames != 25 || rep.Stats.Packets != 25 {
		t.Fatalf("limit ignored: %d frames, %d packets", rep.Frames, rep.Stats.Packets)
	}
}

// TestReplayTruncatedCapture replays what exists before a mid-record
// cut and reports the truncation instead of failing.
func TestReplayTruncatedCapture(t *testing.T) {
	const n = 10
	buf := capture(t, n, func(int) int64 { return 0 })
	cut := buf.Bytes()[:buf.Len()-7]
	s := start(t, buildPipeline(), replayConfig)
	r, err := pcap.NewReader(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Replay(context.Background(), r, ReplayConfig{Blocking: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Truncated {
		t.Fatal("truncation not reported")
	}
	if rep.Frames != n-1 {
		t.Fatalf("replayed %d frames, want %d", rep.Frames, n-1)
	}
}

// TestReplayCancelDrainsInFlight cancels a timed replay mid-capture (the
// trace has a 10s gap the test never waits out) and requires: Replay
// returns ctx.Err() promptly, every batch handed to the workers was
// gathered (no pending result), the service still closes cleanly, and no
// goroutine leaks past shutdown.
func TestReplayCancelDrainsInFlight(t *testing.T) {
	// The first half plays instantly, then a 10s gap the cancellation
	// interrupts.
	const n = 200
	buf := capture(t, n, func(i int) int64 { return int64(i/(n/2)) * 10_000_000_000 })

	baseline := runtime.NumGoroutine()
	s := start(t, buildPipeline(), replayConfig)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	r, err := pcap.NewReader(buf)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rep, err := s.Replay(ctx, r, ReplayConfig{Timed: true, Blocking: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled replay returned %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled replay took %v — it waited out the trace gap", elapsed)
	}
	// Everything flushed before the pacing wait was fully gathered: the
	// report's submission accounting covers every frame it read.
	if rep.Submitted+rep.QueueDrops+rep.Rejected < n/2 {
		t.Fatalf("first half of the trace not accounted for: %+v", rep)
	}

	if err := s.Close(); err != nil {
		t.Fatalf("close after cancelled replay: %v", err)
	}
	// Goroutine count settles back to the pre-service baseline (allow
	// slack for runtime/test goroutines winding down).
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked after cancelled replay: %d > baseline %d\n%s",
				n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
