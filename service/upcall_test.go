package service

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"gigaflow"
	"gigaflow/internal/telemetry"
)

// upcallConfig is a config with the offload on. One engine worker keeps
// completion order equal to park order.
func upcallConfig(backend Backend, workers, engineWorkers int) Config {
	cfg := Config{
		Workers:           workers,
		Backend:           backend,
		MicroflowCapacity: 512,
		Upcall:            UpcallConfig{Workers: engineWorkers, Queue: 4096},
	}
	if backend == BackendMegaflow {
		cfg.MegaflowCapacity = 1024
	} else {
		cfg.Cache = gigaflow.CacheConfig{NumTables: 3, TableCapacity: 3 * 256}
	}
	return cfg
}

// TestUpcallOrdering pins in-order per-flow release: in a batch holding
// several packets of one cold flow, exactly the first is the slow-path
// initiator and every later one observes its install, both positionally
// and in WithResponse stream order — indistinguishable from inline.
func TestUpcallOrdering(t *testing.T) {
	s := start(t, buildPipeline(), upcallConfig(BackendGigaflow, 1, 2))
	ctx := context.Background()

	kA, kB := key(1, 80), key(2, 22) // different ports: no wildcard overlap
	b := NewBatch(6)
	for _, k := range []gigaflow.Key{kA, kB, kA, kB, kA, kB} {
		b.Add(k)
	}
	if err := s.SubmitBatch(ctx, b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		r := b.Result(i)
		if r.Err != nil {
			t.Fatalf("packet %d: %v", i, r.Err)
		}
		if wantHit := i >= 2; r.CacheHit != wantHit {
			t.Fatalf("packet %d: CacheHit=%v, want %v (first packet of each flow is the initiator)",
				i, r.CacheHit, wantHit)
		}
	}

	// Response-channel order for one flow must be initiator first, then
	// followers, regardless of the engine's concurrency. A fresh service:
	// the wildcard entries installed above would otherwise cover kC.
	s = start(t, buildPipeline(), upcallConfig(BackendGigaflow, 1, 2))
	kC := key(3, 80)
	resp := make(chan Result, 3)
	b.Reset()
	b.Add(kC)
	b.Add(kC)
	b.Add(kC)
	if err := s.SubmitBatch(ctx, b, Nonblocking(), WithResponse(resp)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if r := recv(t, resp, "a response"); r.Err != nil || r.CacheHit != (i > 0) {
			t.Fatalf("response %d: %+v, want a hit exactly after the first", i, r)
		}
	}
}

// TestUpcallShutdownParked proves shutdown is hang-proof with packets
// parked and the engine wedged mid-traversal: Close must fail the parked
// packets with ErrClosed (unblocking their submitters) and still return
// once the engine is released.
func TestUpcallShutdownParked(t *testing.T) {
	cfg := upcallConfig(BackendGigaflow, 1, 1)
	s, err := New(buildPipeline(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	s.rules.Lock()
	resp := make(chan Result, 1)
	if _, err := s.Submit(ctx, key(1, 80), Nonblocking(), WithResponse(resp)); err != nil {
		t.Fatal(err)
	}
	// A blocking submitter parked behind a second flow, to prove it
	// unblocks at Close.
	blocked := make(chan error, 1)
	b := NewBatch(1)
	b.Add(key(2, 80))
	go func() { blocked <- s.SubmitBatch(ctx, b) }()
	await(t, "both packets parked", func() bool {
		us, err := s.UpcallStats(ctx)
		return err == nil && us.ParkedPackets == 2
	})

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	if r := recv(t, resp, "the parked packet's failure at shutdown"); !errors.Is(r.Err, ErrClosed) {
		t.Fatalf("parked packet got %+v, want ErrClosed", r)
	}
	select {
	case <-blocked:
		if got := b.Result(0).Err; !errors.Is(got, ErrClosed) {
			t.Fatalf("blocked submitter's request got %v, want ErrClosed", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocking submitter still stuck after shutdown")
	}

	s.rules.Unlock() // release the engine so Close can join it
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung waiting for the engine")
	}
}

// holPipeline builds a pipeline whose flows never share installed cache
// entries: one exact /32 rule per host, so every new host is a genuine
// slow-path miss. This is the workload that exposes head-of-line
// blocking — an inline worker stalls every queued packet behind each
// cold traversal.
func holPipeline(hosts int) *gigaflow.Pipeline {
	p := gigaflow.NewPipeline("hol")
	p.AddTable(0, "l2", gigaflow.NewFieldSet(gigaflow.FieldEthDst))
	p.AddTable(1, "l3", gigaflow.NewFieldSet(gigaflow.FieldIPDst))
	p.AddTable(2, "l4", gigaflow.NewFieldSet(gigaflow.FieldTpDst))
	p.MustAddRule(0, gigaflow.MustParseMatch("eth_dst=02:00:00:00:00:01"), 10, nil, 1)
	for h := 0; h < hosts; h++ {
		m := gigaflow.MustParseMatch(fmt.Sprintf("ip_dst=10.0.%d.%d/32", (h>>8)&0xff, h&0xff))
		p.MustAddRule(1, m, 10, nil, 2)
	}
	p.MustAddRule(2, gigaflow.MustParseMatch("tp_dst=80"), 10,
		[]gigaflow.Action{gigaflow.Output(1)}, gigaflow.NoTable)
	return p
}

// TestUpcallWarmFlowNotBlocked is head-of-line blocking as a property:
// with the engine wedged mid-traversal (the test holds the service's
// rules lock) and a cold flow parked behind it, a warm flow's
// blocking Submit is still served from the cache — parking a miss must
// never stall the datapath behind it. Releasing the lock completes the
// cold flow as the miss it was.
func TestUpcallWarmFlowNotBlocked(t *testing.T) {
	s, ctx := start(t, holPipeline(2), upcallConfig(BackendGigaflow, 1, 1)), context.Background()
	warm, cold := key(0, 80), key(1, 80)
	if _, err := s.Submit(ctx, warm); err != nil {
		t.Fatal(err)
	}

	s.rules.Lock()
	wedged := true
	release := func() {
		if wedged {
			wedged = false
			s.rules.Unlock()
		}
	}
	defer release() // a failed assertion must not leave Close waiting on the engine

	resp := make(chan Result, 1)
	if _, err := s.Submit(ctx, cold, Nonblocking(), WithResponse(resp)); err != nil {
		t.Fatal(err)
	}
	// A shard with a message in flight runs nothing in place, so this
	// Submit queues behind the cold packet: it is served after the worker
	// has handled — parked — that miss, or not at all.
	within(t, 5*time.Second, "warm flow's Submit behind a parked miss", func() {
		if res, err := s.Submit(ctx, warm); err != nil || res.Err != nil || !res.CacheHit {
			t.Errorf("warm flow behind a parked miss: %+v, %v; want a cache hit", res, err)
		}
	})
	if us, err := s.UpcallStats(ctx); err != nil || us.ParkedPackets != 1 {
		t.Errorf("upcall stats %+v, %v; want the cold packet parked", us, err)
	}
	select {
	case r := <-resp:
		t.Errorf("cold flow completed with the engine wedged: %+v", r)
	default:
	}

	release()
	if r := recv(t, resp, "the cold flow's completion"); r.Err != nil || r.CacheHit || r.Verdict.Port != 1 {
		t.Errorf("cold flow: %+v; want a miss forwarded to port 1", r)
	}
}

// TestUpcallParkNsExcludesTraversal: a deferred completion's flight record
// keeps its two components apart — ParkNs the wait from enqueue to the
// engine's dequeue, LatNs the traversal span — as /debug/flight promises.
// The engine dequeues the miss at once and is then held inside the
// traversal span (the test holds the service's rules lock, as
// TestUpcallShutdownParked does) for at least 20 ms: that wait belongs to
// LatNs, and ParkNs must fit in the window from submission to the moment
// the engine was seen to have dequeued.
func TestUpcallParkNsExcludesTraversal(t *testing.T) {
	s, ctx := start(t, holPipeline(2), upcallConfig(BackendGigaflow, 1, 1)), context.Background()
	s.rules.Lock()
	resp := make(chan Result, 1)
	submitted := time.Now()
	if _, err := s.Submit(ctx, key(1, 80), Nonblocking(), WithResponse(resp)); err != nil {
		s.rules.Unlock()
		t.Fatal(err)
	}
	for deadline := submitted.Add(5 * time.Second); s.eng.Drained() == 0; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			s.rules.Unlock()
			t.Fatal("the engine never dequeued the miss")
		}
	}
	window := time.Since(submitted) // enqueue and dequeue both happened inside it
	hold := 20*time.Millisecond + window
	time.Sleep(hold)
	s.rules.Unlock()
	if r := recv(t, resp, "the cold flow's completion"); r.Err != nil || r.CacheHit {
		t.Fatalf("cold flow: %+v; want a completed miss", r)
	}

	var recs []telemetry.FlightRecord
	if err := s.eachShard(ctx, func(_ int, w *worker) { recs = w.rec.Recent(0) }); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Flags&telemetry.FlightDeferred == 0 {
			continue
		}
		if lat := time.Duration(r.LatNs); lat < hold {
			t.Errorf("LatNs = %v, want the %v the engine waited inside the traversal span", lat, hold)
		}
		if park := time.Duration(r.ParkNs); park > window {
			t.Errorf("ParkNs = %v, want at most the %v between submission and dequeue: it contains the traversal (LatNs %v)",
				park, window, time.Duration(r.LatNs))
		}
		return
	}
	t.Fatalf("no Deferred flight record among %d", len(recs))
}
