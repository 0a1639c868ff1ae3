package service

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gigaflow"
	wire "gigaflow/internal/packet"
)

func buildPipeline() *gigaflow.Pipeline {
	p := gigaflow.NewPipeline("svc")
	p.AddTable(0, "l2", gigaflow.NewFieldSet(gigaflow.FieldEthDst))
	p.AddTable(1, "l3", gigaflow.NewFieldSet(gigaflow.FieldIPDst))
	p.AddTable(2, "l4", gigaflow.NewFieldSet(gigaflow.FieldTpDst))
	p.MustAddRule(0, gigaflow.MustParseMatch("eth_dst=02:00:00:00:00:01"), 10, nil, 1)
	p.MustAddRule(1, gigaflow.MustParseMatch("ip_dst=10.0.0.0/16"), 10, nil, 2)
	p.MustAddRule(2, gigaflow.MustParseMatch("tp_dst=80"), 10,
		[]gigaflow.Action{gigaflow.Output(1)}, gigaflow.NoTable)
	p.MustAddRule(2, gigaflow.MustParseMatch("tp_dst=22"), 10,
		[]gigaflow.Action{gigaflow.Drop()}, gigaflow.NoTable)
	return p
}

func key(host, port uint64) gigaflow.Key {
	return gigaflow.MustParseKey("eth_dst=02:00:00:00:00:01,eth_type=0x0800,ip_proto=6").
		With(gigaflow.FieldIPDst, 0x0a000000|host).
		With(gigaflow.FieldTpDst, port)
}

// frameOf puts k in a wire frame whose TCP flag byte is flags, and fails
// the test unless the frame decodes back to k and flags: a test that
// submits the frame submits exactly the packet it names.
func frameOf(tb testing.TB, k gigaflow.Key, flags uint8) []byte {
	tb.Helper()
	frame := encode(k, flags)
	if dk, info := wire.Decode(frame, 0); dk != k || info.TCPFlags != flags {
		tb.Fatalf("%s with flags %#x decodes to %s with flags %#x", k, flags, dk, info.TCPFlags)
	}
	return frame
}

// encode is wire.Encode with the TCP flag byte set to flags (a frame that
// is not TCP carries none).
func encode(k gigaflow.Key, flags uint8) []byte {
	frame := wire.Encode(k)
	if len(frame) > 47 && k.Get(gigaflow.FieldIPProto) == wire.IPProtoTCP {
		frame[47] = flags // Ethernet 14 + IPv4 20 + 13 bytes into the TCP header
	}
	return frame
}

// start builds a service of p on cfg and starts it; it is closed when the
// test ends, if the test has not closed it.
func start(tb testing.TB, p *gigaflow.Pipeline, cfg Config) *Service {
	tb.Helper()
	return startOn(tb, p, cfg, nil)
}

// startOn is start with prep (when not nil) run on the service between
// New and Start: where a test replaces the service clock, which every
// stamp that ages the caches reads, or the worker queues (shortQueues).
func startOn(tb testing.TB, p *gigaflow.Pipeline, cfg Config, prep func(*Service)) *Service {
	tb.Helper()
	s, err := New(p, cfg)
	if err == nil {
		if prep != nil {
			prep(s)
		}
		err = s.Start(context.Background())
	}
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	return s
}

// shortQueues gives every worker of s, which has not started, an input
// queue n messages deep in place of workerQueue's.
func shortQueues(s *Service, n int) {
	for _, w := range s.workers {
		w.in = make(chan packet, n)
	}
}

// submitN submits n packets one at a time, blocking, cycling over the
// first hosts flows.
func submitN(t *testing.T, s *Service, n, hosts int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := s.SubmitFrame(context.Background(), 0, frameOf(t, key(uint64(i%hosts), 80), 0)); err != nil {
			t.Fatal(err)
		}
	}
}

// within fails the test if fn has not returned after d: the hang
// detector for calls that used to block on a dead worker's queue.
func within(t *testing.T, d time.Duration, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s still blocked after %v", what, d)
	}
}

// await fails the test if cond has not come true within 5 s.
func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s never happened", what)
		}
	}
}

// cacheEntries sums the shards' cache entries as ShardStats reports them.
func cacheEntries(t *testing.T, s *Service) int {
	t.Helper()
	shards, err := s.ShardStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, sh := range shards {
		n += sh.CacheEntries
	}
	return n
}

func startService(t *testing.T, workers int) (*Service, context.Context) {
	t.Helper()
	cfg := Config{Workers: workers, Cache: gigaflow.CacheConfig{NumTables: 3, TableCapacity: 3 * 256}}
	return start(t, buildPipeline(), cfg), context.Background()
}

func TestSubmitBasic(t *testing.T) {
	s, ctx := startService(t, 2)
	frame := frameOf(t, key(1, 80), 0)
	r, err := s.SubmitFrame(ctx, 0, frame)
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict.Port != 1 {
		t.Fatalf("verdict = %v", r.Verdict)
	}
	if r.CacheHit {
		t.Error("first packet cannot hit")
	}
	r, err = s.SubmitFrame(ctx, 0, frame)
	if err != nil {
		t.Fatal(err)
	}
	if !r.CacheHit {
		t.Error("second identical packet should hit")
	}
	st, err := s.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Packets != 2 || st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestConcurrentSubmitters, TestConcurrentBatchSubmitters and
// TestSubmitFrameBatchConcurrent run many blocking submitters at once
// against four shards (under -race in make ci) through SubmitFrame,
// SubmitFrameBatch, and both at once. concurrentSubmitters holds every
// check: each request gets its own verdict — port 22 drops, port 80
// forwards, and every eighth frame, too short for Ethernet, is refused at
// its index — and no packet or decoded frame is lost or counted twice.
func TestConcurrentSubmitters(t *testing.T) {
	concurrentSubmitters(t, func(int) bool { return false })
}

func TestConcurrentBatchSubmitters(t *testing.T) {
	concurrentSubmitters(t, func(int) bool { return true })
}

// TestSubmitFrameBatchConcurrent interleaves the two entry points on the
// same shards: the even submitters batch, the odd ones send frame by frame.
func TestSubmitFrameBatchConcurrent(t *testing.T) {
	concurrentSubmitters(t, func(g int) bool { return g%2 == 0 })
}

// concurrentSubmitters runs eight submitters; batched(g) picks whether
// submitter g calls SubmitFrameBatch or SubmitFrame.
func concurrentSubmitters(t *testing.T, batched func(g int) bool) {
	const goroutines, calls, perCall = 8, 25, 33 // 33: not a divisor-friendly size

	var web, ssh [512][]byte // port 80 and 22 frames by host
	for h := range web {
		web[h], ssh[h] = frameOf(t, key(uint64(h), 80), 0), frameOf(t, key(uint64(h), 22), 0)
	}
	short := func(i int) bool { return i%8 == 7 }
	served := 0
	for i := 0; i < perCall; i++ {
		if !short(i) {
			served++
		}
	}
	s, ctx := startService(t, 4)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			b, frames, res := NewBatch(perCall), make([]Frame, perCall), make([]Result, perCall)
			for n := 0; n < calls; n++ {
				for i := range frames {
					j := (g*calls+n)*perCall + i
					switch {
					case short(i):
						frames[i] = Frame{Data: web[0][:10]}
					case j%3 == 0:
						frames[i] = Frame{Data: ssh[j%512]}
					default:
						frames[i] = Frame{Data: web[j%512]}
					}
				}
				if batched(g) {
					if err := s.SubmitFrameBatch(ctx, frames, b); err != nil {
						t.Error(err)
						return
					}
					for i := range res {
						res[i] = b.Result(i)
					}
				} else {
					for i, f := range frames {
						r, err := s.SubmitFrame(ctx, f.InPort, f.Data)
						if r.Err == nil {
							r.Err = err
						}
						res[i] = r
					}
				}
				for i, r := range res {
					j := (g*calls+n)*perCall + i
					if short(i) {
						if !errors.Is(r.Err, ErrShortFrame) {
							t.Errorf("short frame %d: %v, want ErrShortFrame", i, r.Err)
							return
						}
					} else if r.Err != nil || (r.Verdict.Kind == gigaflow.VerdictDrop) != (j%3 == 0) {
						t.Errorf("frame %d (port 22: %t): %+v", i, j%3 == 0, r)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	st, err := s.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(goroutines * calls * served); st.Packets != want {
		t.Errorf("packets = %d, want %d", st.Packets, want)
	}
	if got, want := framesDecoded(s), uint64(goroutines*calls*perCall); got != want {
		t.Errorf("decoded frames = %d, want %d", got, want)
	}
	if st.CacheHits == 0 {
		t.Error("no cache hits under repeated flows")
	}
	if cacheEntries(t, s) == 0 {
		t.Error("caches empty")
	}
}

// TestUpdateRulesRevalidatesAllShards: every shard walks the one pipeline
// New cloned, and a rule update calls its function once, on that pipeline,
// and revalidates every shard's cache against it.
func TestUpdateRulesRevalidatesAllShards(t *testing.T) {
	s, ctx := startService(t, 3)
	for _, w := range s.workers {
		if w.vs.Pipeline() != s.pipe {
			t.Fatalf("shard %d walks its own pipeline", w.idx)
		}
	}
	submitN(t, s, 32, 32) // warm flows across workers
	// Flip port 80 to a new output.
	calls := 0
	err := s.UpdateRules(ctx, func(p *gigaflow.Pipeline) error {
		if calls++; p != s.pipe {
			t.Error("the update was handed another pipeline than the shards walk")
		}
		for _, r := range p.Table(2).Rules() {
			if r.Match.Key.Get(gigaflow.FieldTpDst) == 80 {
				p.DeleteRule(r)
			}
		}
		p.MustAddRule(2, gigaflow.MustParseMatch("tp_dst=80"), 10,
			[]gigaflow.Action{gigaflow.Output(9)}, gigaflow.NoTable)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("the update function ran %d times, want once", calls)
	}
	// Every flow must now observe the new rule, on every worker shard.
	for h := uint64(0); h < 32; h++ {
		r, err := s.SubmitFrame(ctx, 0, frameOf(t, key(h, 80), 0))
		if err != nil {
			t.Fatal(err)
		}
		if r.Verdict.Port != 9 {
			t.Fatalf("host %d: verdict %v, want output(9)", h, r.Verdict)
		}
	}
}

// TestIdleExpiryTicker: a shard sweeps at the start of the first message
// it serves sweepEvery or more after its last sweep, on the service clock,
// and not a nanosecond before, however long an entry has been idle —
// whether the message is a control op (the ShardStats that observes the
// sweep), a share its submitter runs in place, or a queued job.
func TestIdleExpiryTicker(t *testing.T) {
	var clock atomic.Int64
	s, ctx := startOn(t, perFlowPipeline(2), Config{
		Workers: 1,
		Cache:   gigaflow.CacheConfig{NumTables: 3, TableCapacity: 3 * 64},
		MaxIdle: time.Millisecond,
	}, func(s *Service) { s.clock = clock.Load }), context.Background()
	every := sweepEvery.Nanoseconds()
	miss := func(what string, flow int) {
		t.Helper()
		if r, err := s.SubmitFrame(ctx, 0, frameOf(t, perFlowKey(flow), 0)); err != nil || r.CacheHit {
			t.Fatalf("%s: %+v, %v; want a miss", what, r, err)
		}
	}
	miss("first packet", 0)
	flow := cacheEntries(t, s) // a flow's entries
	clock.Store(every - 1)
	if n := cacheEntries(t, s); n != flow {
		t.Fatalf("%d entries, want %d: the shard swept before its first sweep was due", n, flow)
	}
	clock.Store(every)
	if n := cacheEntries(t, s); n != 0 {
		t.Fatalf("%d entries idle for %v survived a due sweep", n, sweepEvery)
	}
	miss("in place, after the sweep", 0)
	clock.Add(every - 1)
	miss("another flow, before the next sweep is due", 1)
	if n := cacheEntries(t, s); n != 2*flow {
		t.Fatalf("%d entries, want %d: a share run in place swept before its sweep was due", n, 2*flow)
	}
	clock.Add(1)
	miss("in place, once the next sweep is due", 0)
	clock.Add(every)
	// A shard held busy runs no share in place: the blocking call queues it.
	s.workers[0].inflight.Add(1)
	miss("queued, once the next sweep is due", 0)
	s.workers[0].inflight.Add(-1)
}

func TestLifecycleErrors(t *testing.T) {
	s, err := New(buildPipeline(), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err == nil {
		t.Error("Close before Start must fail")
	}
	ctx := context.Background()
	if err := s.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(ctx); err == nil {
		t.Error("double Start must fail")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err == nil {
		t.Error("double Close must fail")
	}
}

// TestCancelEndsLikeClose: cancelling the context Start was given ends
// the service where Close ends it. Every entry point then fails with the
// same error, and a blocking call records no submit latency for work that
// never ran — where a blocking batch whose shard had stopped used to run
// there, return no call error and record a sample. Close after a
// cancellation reports ErrClosed, like a second Close, and returns only
// once every worker has exited: one shard is held in a control op while
// the other sees the cancellation and refuses its frames, and let go only
// after Close has been called. Either way no goroutine outlives the
// shutdown.
func TestCancelEndsLikeClose(t *testing.T) {
	frame := frameOf(t, key(1, 80), 0)
	frames := []Frame{{Data: frame}, {Data: frameOf(t, key(2, 443), 0)}}
	calls := []struct {
		name string
		call func(s *Service) error
	}{
		{"SubmitFrame", func(s *Service) error {
			_, err := s.SubmitFrame(context.Background(), 0, frame)
			return err
		}},
		{"SubmitFrameBatch", func(s *Service) error {
			b := NewBatch(len(frames))
			err := s.SubmitFrameBatch(context.Background(), frames, b)
			for i := range frames {
				if r := b.Result(i); !errors.Is(r.Err, err) {
					t.Errorf("SubmitFrameBatch: request %d failed with %v, the call with %v", i, r.Err, err)
				}
			}
			return err
		}},
		{"SubmitFrameBatch nonblocking", func(s *Service) error {
			return s.SubmitFrameBatch(context.Background(), frames, NewBatch(len(frames)), Nonblocking())
		}},
		{"Stats", func(s *Service) error {
			_, err := s.Stats(context.Background())
			return err
		}},
		{"UpdateRules", func(s *Service) error {
			return s.UpdateRules(context.Background(), func(*gigaflow.Pipeline) error { return nil })
		}},
		{"Collect", func(s *Service) error { // every /metrics scrape runs it
			return s.Collect(context.Background())
		}},
	}
	for _, cancelled := range []bool{false, true} {
		goroutines := runtime.NumGoroutine()
		s, err := New(buildPipeline(), Config{Workers: 2, Cache: gigaflow.CacheConfig{NumTables: 3, TableCapacity: 3 * 256}})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		if err := s.Start(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := s.SubmitFrame(ctx, 0, frame); err != nil {
			t.Fatal(err)
		}
		if cancelled {
			held, in := make(chan struct{}), make(chan struct{})
			if err := s.post(context.Background(), s.workers[0], packet{control: func(int, *worker) { in <- struct{}{}; <-held }}); err != nil {
				t.Fatal(err)
			}
			<-in
			cancel()
			// Shard 1 sees the cancellation: wait until it refuses a frame.
			var own []byte
			for host := uint64(3); own == nil; host++ {
				if k := key(host, 80); s.shardOfKey(&k) == 1 {
					own = frameOf(t, k, 0)
				}
			}
			await(t, "shard 1 refusing a frame", func() bool {
				_, err := s.SubmitFrame(context.Background(), 0, own)
				return errors.Is(err, ErrClosed)
			})
			time.AfterFunc(time.Millisecond, func() { close(held) })
			if err := s.Close(); !errors.Is(err, ErrClosed) {
				t.Errorf("Close after cancellation = %v, want ErrClosed", err)
			}
		} else if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		select {
		case <-s.term:
		default:
			t.Errorf("cancelled %v: Close returned before every worker exited", cancelled)
		}
		samples := s.latency.Snapshot().Count
		for _, c := range calls {
			if err := c.call(s); !errors.Is(err, ErrClosed) {
				t.Errorf("cancelled %v: %s = %v, want ErrClosed", cancelled, c.name, err)
			}
		}
		if n := s.latency.Snapshot().Count; n != samples {
			t.Errorf("cancelled %v: %d submit latency samples for calls that ran nothing", cancelled, n-samples)
		}
		if err := s.Start(ctx); !errors.Is(err, ErrClosed) {
			t.Errorf("cancelled %v: Start = %v, want ErrClosed", cancelled, err)
		}
		cancel()
		await(t, "every goroutine the service started exiting", func() bool { return runtime.NumGoroutine() <= goroutines })
	}
}

func TestSubmitContextCancel(t *testing.T) {
	s, _ := startService(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.SubmitFrame(ctx, 0, frameOf(t, key(1, 80), 0)); err == nil {
		t.Error("cancelled submit must fail")
	}
}
