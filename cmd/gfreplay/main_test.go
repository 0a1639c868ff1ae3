package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"gigaflow"
	wire "gigaflow/internal/packet"
	"gigaflow/internal/pcap"
	"gigaflow/service"
)

// replayInto is the service the replay tests replay into.
var replayInto = service.Config{Workers: 2, Cache: gigaflow.CacheConfig{NumTables: 3, TableCapacity: 512}, MicroflowCapacity: 256}

// start starts a service on the demo pipeline, closed when the test ends.
func start(t *testing.T, cfg service.Config) *service.Service {
	t.Helper()
	s, err := service.New(demoPipeline(), cfg)
	if err == nil {
		err = s.Start(context.Background())
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// capture is a pcap of n demo frames, frame i stamped at(i) ns. Its
// first m records are capture(t, m, at).
func capture(t *testing.T, n int, at func(i int) int64) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		f := wire.Encode(demoKey(i, rng))
		if err := w.WriteRecord(at(i), f, len(f)); err != nil {
			t.Fatal(err)
		}
	}
	return &buf
}

func reader(t *testing.T, r io.Reader) *pcap.Reader {
	t.Helper()
	pr, err := pcap.NewReader(r)
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

// hook is a reader that runs its function and ends: spliced into a
// stream, it acts when the stream's reader gets that far.
type hook func()

func (h hook) Read([]byte) (int, error) {
	h()
	return 0, io.EOF
}

// TestReplayTimedPacing checks trace-timestamp pacing: a two-packet
// trace 80ms apart at speedup 1 cannot finish faster than the gap.
func TestReplayTimedPacing(t *testing.T) {
	buf := capture(t, 2, func(i int) int64 { return int64(i) * 80_000_000 })
	s := start(t, replayInto)
	rep, err := replay(context.Background(), s, reader(t, buf), replayConfig{timed: true, speedup: 1, blocking: true, batch: 32})
	if err != nil {
		t.Fatal(err)
	}
	if rep.elapsed < 80*time.Millisecond {
		t.Fatalf("timed replay finished in %v, faster than the 80ms trace span", rep.elapsed)
	}
	if rep.frames != 2 {
		t.Fatalf("frames = %d", rep.frames)
	}
}

// TestReplayLimit stops after N records.
func TestReplayLimit(t *testing.T) {
	s := start(t, replayInto)
	r := reader(t, capture(t, 200, func(int) int64 { return 0 }))
	rep, err := replay(context.Background(), s, r, replayConfig{blocking: true, limit: 25, batch: 32})
	if err != nil {
		t.Fatal(err)
	}
	if rep.frames != 25 || rep.stats.Packets != 25 {
		t.Fatalf("limit ignored: %d frames, %d packets", rep.frames, rep.stats.Packets)
	}
}

// TestReplayTruncatedCapture replays what exists before a mid-record
// cut and reports the truncation instead of failing.
func TestReplayTruncatedCapture(t *testing.T) {
	const n = 10
	buf := capture(t, n, func(int) int64 { return 0 })
	cut := buf.Bytes()[:buf.Len()-7]
	s := start(t, replayInto)
	rep, err := replay(context.Background(), s, reader(t, bytes.NewReader(cut)), replayConfig{blocking: true, batch: 32})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.truncated {
		t.Fatal("truncation not reported")
	}
	if rep.frames != n-1 {
		t.Fatalf("replayed %d frames, want %d", rep.frames, n-1)
	}
}

// TestReplayCancelDrainsInFlight cancels a timed replay from inside its
// capture, as the reader reaches frame n/2, the first after a 10 s gap
// the test never waits out, and requires: replay returns
// context.Canceled promptly, every frame it read was submitted and
// gathered, the service still closes cleanly, and no goroutine leaks past
// shutdown.
func TestReplayCancelDrainsInFlight(t *testing.T) {
	const n = 192 // n/2 is three whole batches: none is pending at the cancel
	at := func(i int) int64 { return int64(i/(n/2)) * 10_000_000_000 }
	data, split := capture(t, n, at).Bytes(), capture(t, n/2, at).Len()

	baseline := runtime.NumGoroutine()
	s := start(t, replayInto)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := reader(t, io.MultiReader(bytes.NewReader(data[:split]), hook(cancel), bytes.NewReader(data[split:])))
	begin := time.Now()
	rep, err := replay(ctx, s, r, replayConfig{timed: true, speedup: 1, blocking: true, batch: 32})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled replay returned %v, want context.Canceled", err)
	}
	if elapsed := time.Since(begin); elapsed > 5*time.Second {
		t.Fatalf("cancelled replay took %v — it waited out the trace gap", elapsed)
	}
	if rep.frames != n/2 || rep.submitted+rep.queueDrops+rep.rejected != rep.frames {
		t.Fatalf("read %d frames, want %d, each submitted, dropped or rejected: %+v", rep.frames, n/2, rep)
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

// TestReplayMatchesPerFrame holds the replay loop to per-frame submission:
// a -gen capture, every 50th frame cut short and one too short for
// Ethernet, replayed blocking in batches of 32 into a 2-shard service, and
// the same frames handed one at a time to SubmitFrame on a twin, leave the
// same VSwitchStats, per-protocol counts and decode-error counts.
func TestReplayMatchesPerFrame(t *testing.T) {
	path := filepath.Join(t.TempDir(), "demo.pcap")
	if err := generate(path, 500, 1); err != nil {
		t.Fatal(err)
	}
	gen, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer gen.Close()
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var frames [][]byte
	for r := reader(t, gen); ; {
		rec, err := r.Next()
		if err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		frame := append([]byte(nil), rec.Frame...)
		if i := len(frames); i == 7 {
			frame = frame[:9] // no Ethernet header: rejected
		} else if i%50 == 49 {
			frame = frame[:20] // IPv4 header cut short: forwarded degraded
		}
		frames = append(frames, frame)
		if err := w.WriteRecord(rec.TimeNs, frame, len(frame)); err != nil {
			t.Fatal(err)
		}
	}

	ctx := context.Background()
	s, twin := start(t, replayInto), start(t, replayInto)
	rep, err := replay(ctx, s, reader(t, &buf), replayConfig{blocking: true, batch: 32})
	if err != nil {
		t.Fatal(err)
	}
	rejected := 0
	for _, f := range frames {
		if _, err := twin.SubmitFrame(ctx, 0, f); errors.Is(err, service.ErrShortFrame) {
			rejected++
		} else if err != nil {
			t.Fatal(err)
		}
	}
	want, err := twin.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	proto, degraded := decodeCounts(twin.Registry())
	if rep.stats != want || rep.perProto != proto || rep.decodeErrors != degraded {
		t.Errorf("replay: %+v, per protocol %v, %d decode errors\nper frame: %+v, %v, %d",
			rep.stats, rep.perProto, rep.decodeErrors, want, proto, degraded)
	}
	if rep.frames != len(frames) || rep.rejected != rejected || rep.submitted != len(frames)-rejected {
		t.Errorf("%d frames: %d read, %d submitted, %d rejected; want %d rejected", len(frames), rep.frames, rep.submitted, rep.rejected, rejected)
	}
	decoded := 0
	for _, n := range rep.perProto {
		decoded += n
	}
	if decoded != rep.submitted || rep.decodeErrors != len(frames)/50 {
		t.Errorf("%d frames decoded, %d with a defect; want the %d submitted, %d cut short", decoded, rep.decodeErrors, rep.submitted, len(frames)/50)
	}
	if rejected != 1 || want.CacheHits+want.MicroflowHits == 0 || want.CacheMisses == 0 {
		t.Errorf("a tame capture: %d rejected, %+v", rejected, want)
	}
}

// TestReplayNonblockingUpcall: a nonblocking replay into a service that
// parks misses behind upcalls reports every submitted frame in its stats;
// it waits for the parked packets before its closing Stats.
func TestReplayNonblockingUpcall(t *testing.T) {
	cfg := replayInto
	cfg.Upcall = service.UpcallConfig{Workers: 1}
	s := start(t, cfg)
	r := reader(t, capture(t, 400, func(int) int64 { return 0 }))
	rep, err := replay(context.Background(), s, r, replayConfig{batch: 32})
	if err != nil {
		t.Fatal(err)
	}
	if rep.submitted == 0 || rep.stats.Packets != uint64(rep.submitted) || rep.stats.CacheMisses == 0 {
		t.Fatalf("%d frames submitted, %d dropped; stats %+v", rep.submitted, rep.queueDrops, rep.stats)
	}
}

// TestServiceConfigCapacity: -cap is the main cache's total on either
// backend.
func TestServiceConfigCapacity(t *testing.T) {
	o := options{backend: "gigaflow", workers: 2, tables: 4, capacity: 32768}
	gf, err := serviceConfig(o)
	if err != nil {
		t.Fatal(err)
	}
	o.backend = "megaflow"
	mf, err := serviceConfig(o)
	if err != nil {
		t.Fatal(err)
	}
	if gf.Cache.NumTables*gf.Cache.TableCapacity != mf.MegaflowCapacity || gf.Cache.TableCapacity != 8192 {
		t.Errorf("-cap 32768: gigaflow %d × %d entries, megaflow %d", gf.Cache.NumTables, gf.Cache.TableCapacity, mf.MegaflowCapacity)
	}
	o.backend, o.capacity = "gigaflow", 3
	if _, err := serviceConfig(o); err == nil {
		t.Error("-cap 3 -tables 4 accepted")
	}
}

// TestFlagsOutOfRange: a flag out of its range is a usage error (exit 2),
// never a panic, a silently different value or a run failure.
func TestFlagsOutOfRange(t *testing.T) {
	ok := options{backend: "gigaflow", workers: 1, tables: 4, capacity: 32768}
	if _, err := serviceConfig(ok); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]func(*options){
		"-workers 0 -microflow 1000": func(o *options) { o.workers, o.microflow = 0, 1000 },
		"-workers -1":                func(o *options) { o.workers = -1 },
		"-microflow -1":              func(o *options) { o.microflow = -1 },
		"-conntrack -ct-max -1":      func(o *options) { o.conntrack, o.ctMax = true, -1 },
		"-backend megaflow -cap 0":   func(o *options) { o.backend, o.capacity = "megaflow", 0 },
	} {
		o := ok
		bad(&o)
		if _, err := serviceConfig(o); err == nil {
			t.Errorf("%s accepted", name)
		}
	}

	rc := replayConfig{speedup: 1, batch: 32}
	if got, err := replayFlags(rc, 65535); err != nil || got.inPort != 65535 {
		t.Fatalf("-inport 65535: %+v, %v", got, err)
	}
	if _, err := replayFlags(rc, 70000); err == nil {
		t.Error("-inport 70000 accepted")
	}
	for name, bad := range map[string]func(*replayConfig){
		"-batch -1":   func(rc *replayConfig) { rc.batch = -1 },
		"-batch 0":    func(rc *replayConfig) { rc.batch = 0 },
		"-speedup 0":  func(rc *replayConfig) { rc.speedup = 0 },
		"-speedup -2": func(rc *replayConfig) { rc.speedup = -2 },
		"-limit -1":   func(rc *replayConfig) { rc.limit = -1 },
	} {
		c := rc
		bad(&c)
		if _, err := replayFlags(c, 0); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestDumpMetrics: the -metrics dump carries the per-worker series, not
// only the service-level ones a registry holds before its first Collect.
func TestDumpMetrics(t *testing.T) {
	s := start(t, service.Config{Workers: 2})
	ctx := context.Background()
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
		"gigaflow_cache_entries", "gigaflow_latency_ns", "gigaflow_frames_decoded_total",
	} {
		if !strings.Contains(out.String(), series) {
			t.Errorf("the dump has no %s series", series)
		}
	}
	// Summed over proto, the decoded series count every frame submitted.
	perProto, _ := decodeCounts(s.Registry())
	total := 0
	for _, n := range perProto {
		total += n
	}
	if total != 8 {
		t.Errorf("decoded frames sum to %d, want 8", total)
	}
}
