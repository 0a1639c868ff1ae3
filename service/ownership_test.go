package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"gigaflow"
	wire "gigaflow/internal/packet"
)

// TestControlOpsOnStoppedService: every control operation on a service
// that is not running returns at once with the lifecycle error — before
// Start, after Close, and after the context Start was given is cancelled
// — where it used to queue a closure to a worker that would never run it
// (a context-free cache-entry count blocked forever). The cancelled
// leg serves telemetry: that server outlives the workers until Close, and
// must not keep the service looking alive to callers meanwhile.
func TestControlOpsOnStoppedService(t *testing.T) {
	for _, tc := range []struct {
		name, telemetryAddr string
		cancel              bool
	}{
		{"Close", "", false},
		{"cancelled ctx, telemetry on", "127.0.0.1:0", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(buildPipeline(), Config{
				Workers:       2,
				Cache:         gigaflow.CacheConfig{NumTables: 3, TableCapacity: 3 * 256},
				TelemetryAddr: tc.telemetryAddr,
			})
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			check := func(want error) {
				t.Helper()
				within(t, 5*time.Second, "control ops", func() {
					if _, err := s.Stats(ctx); !errors.Is(err, want) {
						t.Errorf("Stats: %v, want %v", err, want)
					}
					if _, err := s.ShardStats(ctx); !errors.Is(err, want) {
						t.Errorf("ShardStats: %v, want %v", err, want)
					}
					if err := s.Collect(ctx); !errors.Is(err, want) {
						t.Errorf("Collect: %v, want %v", err, want)
					}
					if err := s.UpdateRules(ctx, func(*gigaflow.Pipeline) error { return nil }); !errors.Is(err, want) {
						t.Errorf("UpdateRules: %v, want %v", err, want)
					}
					h := s.TelemetryHandler()
					for _, path := range []string{"/cache", "/latency", "/shards", "/debug/flight"} {
						rec := httptest.NewRecorder()
						h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
						if rec.Code != http.StatusServiceUnavailable {
							t.Errorf("GET %s: status %d, want 503", path, rec.Code)
						}
					}
					// A scrape still serves the registry's last values.
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
					if rec.Code != http.StatusOK {
						t.Errorf("GET /metrics: status %d, want 200", rec.Code)
					}
				})
			}
			check(ErrNotStarted)
			startCtx, cancel := context.WithCancel(ctx)
			defer cancel()
			if err := s.Start(startCtx); err != nil {
				t.Fatal(err)
			}
			if _, err := s.SubmitFrame(ctx, 0, frameOf(t, key(1, 80), 0)); err != nil {
				t.Fatal(err)
			}
			if n := cacheEntries(t, s); n == 0 {
				t.Error("running service reports no cache entries after a miss")
			}
			if tc.cancel {
				cancel()
				// Until the workers have drained, an op may still be served.
				within(t, 5*time.Second, "workers exiting after cancellation", func() { <-s.term })
				check(ErrClosed)
			}
			within(t, 5*time.Second, "Close", func() {
				if err := s.Close(); err != nil {
					t.Error(err)
				}
			})
			check(ErrClosed)
		})
	}
}

// TestUpcallStatsOnStoppedService is the same contract for the offload
// counters.
func TestUpcallStatsOnStoppedService(t *testing.T) {
	s, err := New(buildPipeline(), upcallConfig(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	within(t, 5*time.Second, "UpcallStats before Start", func() {
		if _, err := s.UpcallStats(ctx); !errors.Is(err, ErrNotStarted) {
			t.Errorf("UpcallStats: %v, want ErrNotStarted", err)
		}
	})
	if err := s.Start(ctx); err != nil {
		t.Fatal(err)
	}
	s.Close()
	within(t, 5*time.Second, "UpcallStats after Close", func() {
		if _, err := s.UpcallStats(ctx); !errors.Is(err, ErrClosed) {
			t.Errorf("UpcallStats: %v, want ErrClosed", err)
		}
	})
}

// TestBlockingSeesOwnEarlierNonblocking is the order guarantee a queue
// gave for free and the run-in-place path has to earn: one goroutine
// submits a cold flow Nonblocking and then the same flow blocking, and
// the blocking packet must always see the first one's install — a cache
// hit, never a second miss — whether the first is still queued, already
// dequeued but not yet run (the window len(queue) cannot see), running,
// or done. On alternate rounds the worker is held busy by a control op
// that blocks until both packets have been handed in.
func TestBlockingSeesOwnEarlierNonblocking(t *testing.T) {
	const rounds = 1000
	for _, workers := range []int{1, 2} {
		s, ctx := start(t, perFlowPipeline(rounds), Config{
			Workers:           workers,
			Cache:             gigaflow.CacheConfig{NumTables: 3, TableCapacity: 3 * 4096},
			MicroflowCapacity: 64,
		}), context.Background()
		for r := 0; r < rounds; r++ {
			frame := frameOf(t, perFlowKey(r), 0)
			var release chan struct{}
			var updated chan error
			if r%2 == 1 {
				// Hold every shard busy: the control op parks on release
				// under each shard's owner lock.
				release = make(chan struct{})
				updated = make(chan error, 1)
				entered := make(chan struct{}, workers)
				go func() {
					updated <- s.UpdateRules(ctx, func(*gigaflow.Pipeline) error {
						entered <- struct{}{}
						<-release
						return nil
					})
				}()
				<-entered // at least one shard is inside the control op
			}
			if _, err := s.SubmitFrame(ctx, 0, frame, Nonblocking()); err != nil {
				t.Fatalf("workers=%d round %d: nonblocking: %v", workers, r, err)
			}
			if release != nil {
				close(release)
			}
			res, err := s.SubmitFrame(ctx, 0, frame)
			if err != nil {
				t.Fatalf("workers=%d round %d: blocking: %v", workers, r, err)
			}
			if !res.CacheHit {
				t.Fatalf("workers=%d round %d: the blocking packet missed: it overtook the same goroutine's earlier nonblocking packet of the flow", workers, r)
			}
			if updated != nil {
				if err := <-updated; err != nil {
					t.Fatal(err)
				}
			}
		}
		st, err := s.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Packets != 2*rounds || st.CacheMisses != rounds {
			t.Errorf("workers=%d: %d packets, %d misses; want %d and %d", workers, st.Packets, st.CacheMisses, 2*rounds, rounds)
		}
	}
}

// TestShardOwnershipUnderRace hammers one service from every kind of
// caller at once — blocking submitters (which run their own shares when
// the shard is idle), a nonblocking submitter streaming responses, rule
// updates, stats and telemetry snapshots — on a service clock that races
// ahead a quarter of sweepEvery a read, so shards sweep idle entries all
// along — and closes it mid-flight. Under -race this is the proof that
// everything touching a shard's state holds its owner lock. Every
// blocking request gets exactly one outcome, nobody hangs, nothing stays
// parked, every shard's counters still add up, and idle entries expired.
func TestShardOwnershipUnderRace(t *testing.T) {
	for _, workers := range []int{1, 3} {
		for _, async := range []bool{false, true} {
			cfg := Config{
				Workers:           workers,
				Cache:             gigaflow.CacheConfig{NumTables: 3, TableCapacity: 3 * 64},
				MicroflowCapacity: 32,
				MaxIdle:           sweepEvery / 2,
			}
			if async {
				cfg.Upcall = UpcallConfig{Workers: 2}
			}
			var clock atomic.Int64
			s, ctx := startOn(t, perFlowPipeline(256), cfg, func(s *Service) {
				s.clock = func() int64 { return clock.Add(sweepEvery.Nanoseconds() / 4) }
				if async {
					s.eng.q = make(chan *miss, 8) // shallow, for the inline fallback under contention
				}
			}), context.Background()
			flows := make([][]byte, 256)
			for i := range flows {
				flows[i] = frameOf(t, perFlowKey(i), 0)
			}
			var wg sync.WaitGroup
			var verdicts, refusals atomic.Int64
			closed := make(chan struct{})
			stopped := func() bool {
				select {
				case <-closed:
					return true
				default:
					return false
				}
			}
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					b := NewBatch(16)
					frames := make([]Frame, 16)
					for n := 0; !stopped(); n++ {
						stride := 61 + 6*(n%2) // two interleavings of the flows
						for i := range frames {
							frames[i] = Frame{Data: flows[(g*stride+n*16+i)%256]}
						}
						err := s.SubmitFrameBatch(ctx, frames, b)
						if err != nil && !errors.Is(err, ErrClosed) {
							t.Errorf("blocking submitter: %v", err)
							return
						}
						for i := 0; i < b.Len(); i++ {
							switch r := b.Result(i); {
							case r.Err == nil && r.Verdict.Kind == gigaflow.VerdictOutput:
								verdicts.Add(1)
							case errors.Is(r.Err, ErrClosed):
								refusals.Add(1)
							default:
								t.Errorf("request with no outcome: %+v (call error %v)", r, err)
								return
							}
						}
					}
				}(g)
			}
			resp := make(chan Result, 1<<16)
			var accepted int64
			wg.Add(1)
			go func() {
				defer wg.Done()
				b, frames := NewBatch(8), make([]Frame, 8)
				for n := 0; !stopped() && accepted < 1<<15; n++ {
					for i := range frames {
						frames[i] = Frame{Data: flows[(n*8+i)%256]}
					}
					if err := s.SubmitFrameBatch(ctx, frames, b, Nonblocking(), WithResponse(resp)); err != nil && !errors.Is(err, ErrClosed) {
						t.Errorf("nonblocking submitter: %v", err)
						return
					}
					for i := 0; i < b.Len(); i++ {
						if b.Result(i).Err == nil {
							accepted++
						}
					}
				}
			}()
			wg.Add(1)
			go func() {
				defer wg.Done()
				h := s.TelemetryHandler()
				for n := 0; !stopped(); n++ {
					var err error
					switch n % 4 {
					case 0:
						// Net no-op that still bumps the pipeline version, so
						// traversals in flight at the engine go stale.
						err = s.UpdateRules(ctx, func(p *gigaflow.Pipeline) error {
							p.DeleteRule(p.MustAddRule(2, gigaflow.MustParseMatch("tp_src=9"), 1,
								[]gigaflow.Action{gigaflow.Drop()}, gigaflow.NoTable))
							return nil
						})
					case 1:
						_, err = s.Stats(ctx)
					case 2:
						_, err = s.UpcallStats(ctx)
					case 3:
						h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/cache", nil))
					}
					if err != nil && !errors.Is(err, ErrClosed) {
						t.Errorf("control op %d: %v", n%4, err)
						return
					}
				}
			}()

			// Close once every kind of caller has demonstrably overlapped:
			// some blocking requests have their verdicts while the others
			// are still at it.
			await(t, "256 blocking verdicts", func() bool { return verdicts.Load() >= 256 })
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			close(closed)
			within(t, 10*time.Second, "callers after Close", wg.Wait)

			if n := int64(len(resp)); n > accepted {
				t.Errorf("workers=%d async=%v: %d responses for %d accepted nonblocking requests", workers, async, n, accepted)
			}
			// The workers have exited (Close waited for them); shard state is
			// quiescent and safe to read directly.
			var expired uint64
			for _, w := range s.workers {
				if !w.own.TryLock() {
					t.Fatalf("workers=%d async=%v: shard %d's owner lock is still held after Close", workers, async, w.idx)
				}
				st := w.vs.Stats()
				if st.Packets != st.MicroflowHits+st.CacheHits+st.CacheMisses {
					t.Errorf("workers=%d async=%v shard %d: %d packets != %d+%d hits + %d misses",
						workers, async, w.idx, st.Packets, st.MicroflowHits, st.CacheHits, st.CacheMisses)
				}
				if len(w.pending) != 0 || w.up.ParkedPackets != 0 {
					t.Errorf("workers=%d async=%v shard %d: %d flows / %d packets still parked after Close",
						workers, async, w.idx, len(w.pending), w.up.ParkedPackets)
				}
				expired += w.vs.Cache().Stats().Expired + w.vs.Microflow().Stats().Expired
				w.own.Unlock()
			}
			if expired == 0 {
				t.Errorf("workers=%d async=%v: no shard swept an idle entry", workers, async)
			}
			t.Logf("workers=%d async=%v: %d verdicts, %d refused at shutdown, %d/%d nonblocking answered",
				workers, async, verdicts.Load(), refusals.Load(), len(resp), accepted)
		}
	}
}

// TestSubmitFrameBatchZeroAlloc: at steady state a blocking frame batch
// allocates nothing — not at one shard, where the submitter runs the
// whole batch in place, not at two, where one share crosses a worker
// queue and the other runs in place, and not with connection tracking
// on, where every hit of these TCP flows runs the conntrack guard (the
// pipeline is stateless: this is what tracking costs a user who never
// writes a stateful rule). Nor does the single-packet wrapper, blocking
// SubmitFrame, which is that batch path on a pooled batch of one. And the
// message a busy shard's share crosses its queue in is three words,
// whatever the share holds.
func TestSubmitFrameBatchZeroAlloc(t *testing.T) {
	if n := unsafe.Sizeof(packet{}); n > 24 {
		t.Errorf("a queued message is %d bytes, want at most 24 (a job pointer, a control function, its ack channel)", n)
	}
	// The wrappers' batch comes from a sync.Pool, and under the race
	// detector a Pool drops a quarter of what it is handed, on purpose: their
	// rows are read only where a Pool keeps what it is given.
	news := 0
	probe := sync.Pool{New: func() any { news++; return new(int) }}
	for i := 0; i < 200; i++ {
		probe.Put(probe.Get())
	}
	poolKeeps := news < 10 // about 50 under the race detector, 1 without (a GC may add one)
	const flows = 64
	frames := make([]Frame, flows)
	for i := range frames {
		frames[i] = Frame{Data: wire.Encode(perFlowKey(i))}
	}
	for _, tc := range []struct {
		workers int
		ct      bool
	}{{1, false}, {2, false}, {1, true}} {
		s, ctx := start(t, perFlowPipeline(flows), Config{
			Workers:           tc.workers,
			Cache:             gigaflow.CacheConfig{NumTables: 3, TableCapacity: 3 * 1024},
			MicroflowCapacity: 8 * flows,
			Conntrack:         ConntrackConfig{Enable: tc.ct},
		}), context.Background()
		b := NewBatch(flows)
		submit := func() {
			if err := s.SubmitFrameBatch(ctx, frames, b); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 4; i++ {
			submit() // install, memoise, size the shares
		}
		if n := testing.AllocsPerRun(200, submit); n != 0 {
			t.Errorf("%+v: %.2f allocs per steady-state SubmitFrameBatch, want 0", tc, n)
		}
		if n := testing.AllocsPerRun(200, func() { s.SubmitFrame(ctx, 0, frames[0].Data) }); n != 0 && poolKeeps {
			t.Errorf("%+v: %.2f allocs per steady-state SubmitFrame, want 0", tc, n)
		}
		for i := 0; i < flows; i++ {
			if r := b.Result(i); r.Err != nil || !r.CacheHit {
				t.Fatalf("%+v: frame %d: %+v", tc, i, r)
			}
		}
		if st, err := s.Stats(ctx); err != nil || (st.CtFastpath > 0) != tc.ct {
			t.Errorf("%+v: CtFastpath = %d, %v; the guard must run exactly when tracking is on", tc, st.CtFastpath, err)
		}
	}
}
