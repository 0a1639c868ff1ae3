package service

import (
	"context"
	"sync"
	"testing"
	"time"

	"gigaflow"
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
	return gigaflow.MustParseKey("eth_dst=02:00:00:00:00:01,eth_type=0x0800").
		With(gigaflow.FieldIPDst, 0x0a000000|host).
		With(gigaflow.FieldTpDst, port)
}

// start builds a service of p on cfg and starts it; it is closed when the
// test ends, if the test has not closed it.
func start(tb testing.TB, p *gigaflow.Pipeline, cfg Config) *Service {
	tb.Helper()
	s, err := New(p, cfg)
	if err == nil {
		err = s.Start(context.Background())
	}
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	return s
}

// submitN submits n packets one at a time, blocking, cycling over the
// first hosts flows.
func submitN(t *testing.T, s *Service, n, hosts int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := s.Submit(context.Background(), key(uint64(i%hosts), 80)); err != nil {
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

// recv is the next result on ch; the test fails if none comes within 5 s.
func recv(t *testing.T, ch <-chan Result, what string) Result {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(5 * time.Second):
		t.Fatalf("%s never arrived", what)
		return Result{}
	}
}

func startService(t *testing.T, workers int) (*Service, context.Context) {
	t.Helper()
	cfg := Config{Workers: workers, Cache: gigaflow.CacheConfig{NumTables: 3, TableCapacity: 3 * 256}}
	return start(t, buildPipeline(), cfg), context.Background()
}

func TestSubmitBasic(t *testing.T) {
	s, ctx := startService(t, 2)
	r, err := s.Submit(ctx, key(1, 80))
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict.Port != 1 {
		t.Fatalf("verdict = %v", r.Verdict)
	}
	if r.CacheHit {
		t.Error("first packet cannot hit")
	}
	r, err = s.Submit(ctx, key(1, 80))
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
	if st.Packets != 2 || st.CacheHits != 1 || st.Slowpath != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestConcurrentSubmitters(t *testing.T) {
	s, ctx := startService(t, 4)
	const goroutines = 16
	const perG = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				port := uint64(80)
				if i%3 == 0 {
					port = 22
				}
				if r, err := s.Submit(ctx, key(uint64(g*perG+i)%512, port)); err != nil || (r.Verdict.Kind == gigaflow.VerdictDrop) != (port == 22) {
					t.Errorf("port %d: %+v, %v", port, r, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st, err := s.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Packets != goroutines*perG {
		t.Errorf("packets = %d, want %d", st.Packets, goroutines*perG)
	}
	if st.CacheHits == 0 {
		t.Error("no cache hits under repeated flows")
	}
	if s.CacheEntries() == 0 {
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
		r, err := s.Submit(ctx, key(h, 80))
		if err != nil {
			t.Fatal(err)
		}
		if r.Verdict.Port != 9 {
			t.Fatalf("host %d: verdict %v, want output(9)", h, r.Verdict)
		}
	}
}

func TestIdleExpiryTicker(t *testing.T) {
	s, ctx := start(t, buildPipeline(), Config{
		Workers: 1,
		Cache:   gigaflow.CacheConfig{NumTables: 3, TableCapacity: 3 * 64},
		Expiry:  ExpiryConfig{MaxIdle: time.Millisecond, Every: 5 * time.Millisecond},
	}), context.Background()
	if _, err := s.Submit(ctx, key(1, 80)); err != nil {
		t.Fatal(err)
	}
	await(t, "idle expiry", func() bool { return s.CacheEntries() == 0 })
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

func TestSubmitContextCancel(t *testing.T) {
	s, _ := startService(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Submit(ctx, key(1, 80)); err == nil {
		t.Error("cancelled submit must fail")
	}
}
