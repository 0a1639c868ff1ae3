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
					for _, path := range []string{"/cache", "/latency", "/debug/flight"} {
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

// TestStoppedShard drives one shard's shutdown on the test goroutine,
// white-box: drain stops the shard before it serves what is queued, so a
// queued control op still runs and a queued job fails whole with
// ErrClosed; and a stopped shard neither sweeps nor runs a job handed to
// it in place, however late the stamp.
func TestStoppedShard(t *testing.T) {
	s, err := New(perFlowPipeline(4), Config{MaxIdle: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	w := s.workers[0]
	job := func(flow int) (*batchJob, *Batch) {
		b := NewBatch(1)
		b.shape(1)
		b.ingest(s, []Frame{{Data: wire.Encode(perFlowKey(flow))}})
		return &batchJob{blk: &b.part[0], done: make(chan *batchJob, 1)}, b
	}
	if j, b := job(0); !w.tryRun(j, 1) || !j.finished || b.Result(0).Err != nil || w.vs.CacheEntries() == 0 {
		t.Fatalf("an idle shard's first share: ran %v, %+v, %d entries", j.finished, b.Result(0), w.vs.CacheEntries())
	}
	entries := w.vs.CacheEntries()

	ran, ack := false, make(chan struct{}, 1)
	queued, qb := job(1)
	if !w.offer(packet{control: func(int, *worker) { ran = true }, ack: ack}) || !w.offer(packet{job: queued}) {
		t.Fatal("a queue refused two messages")
	}
	w.drain()
	if !ran || len(ack) != 1 {
		t.Errorf("a control op queued at shutdown: ran %v, acknowledged %v; want both", ran, len(ack) == 1)
	}
	if len(queued.done) != 1 || !errors.Is(qb.Result(0).Err, ErrClosed) {
		t.Errorf("a job queued at shutdown: signalled %v, %+v; want ErrClosed", len(queued.done) == 1, qb.Result(0))
	}

	late, lb := job(2)
	if !w.tryRun(late, time.Hour.Nanoseconds()) || !late.finished || !errors.Is(lb.Result(0).Err, ErrClosed) {
		t.Errorf("a share run in place on a stopped shard: finished %v, %+v; want ErrClosed", late.finished, lb.Result(0))
	}
	if n := w.vs.CacheEntries(); n != entries {
		t.Errorf("a stopped shard's cache changed: %d entries, want %d", n, entries)
	}
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
// the shard is idle), a nonblocking submitter, rule
// updates, stats and telemetry snapshots — on a service clock that races
// ahead a quarter of sweepEvery a read, so shards sweep idle entries all
// along — and closes it mid-flight. Under -race this is the proof that
// everything touching a shard's state holds its owner lock. Every
// blocking request gets exactly one outcome, nobody hangs, every shard's
// counters still add up, and idle entries expired.
func TestShardOwnershipUnderRace(t *testing.T) {
	for _, workers := range []int{1, 3} {
		cfg := Config{
			Workers:           workers,
			Cache:             gigaflow.CacheConfig{NumTables: 3, TableCapacity: 3 * 64},
			MicroflowCapacity: 32,
			MaxIdle:           sweepEvery / 2,
		}
		var clock atomic.Int64
		s, ctx := startOn(t, perFlowPipeline(256), cfg, func(s *Service) {
			s.clock = func() int64 { return clock.Add(sweepEvery.Nanoseconds() / 4) }
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
		var accepted int64
		wg.Add(1)
		go func() {
			defer wg.Done()
			b, frames := NewBatch(8), make([]Frame, 8)
			for n := 0; !stopped() && accepted < 1<<15; n++ {
				for i := range frames {
					frames[i] = Frame{Data: flows[(n*8+i)%256]}
				}
				if err := s.SubmitFrameBatch(ctx, frames, b, Nonblocking()); err != nil && !errors.Is(err, ErrClosed) {
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
					// Net no-op that still bumps the pipeline version.
					err = s.UpdateRules(ctx, func(p *gigaflow.Pipeline) error {
						p.DeleteRule(p.MustAddRule(2, gigaflow.MustParseMatch("tp_src=9"), 1,
							[]gigaflow.Action{gigaflow.Drop()}, gigaflow.NoTable))
						return nil
					})
				case 1:
					_, err = s.Stats(ctx)
				case 2:
					err = s.Collect(ctx)
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

		// The workers have exited (Close waited for them); shard state is
		// quiescent and safe to read directly.
		var expired uint64
		for _, w := range s.workers {
			if !w.own.TryLock() {
				t.Fatalf("workers=%d: shard %d's owner lock is still held after Close", workers, w.idx)
			}
			st := w.vs.Stats()
			if st.Packets != st.MicroflowHits+st.CacheHits+st.CacheMisses {
				t.Errorf("workers=%d shard %d: %d packets != %d+%d hits + %d misses",
					workers, w.idx, st.Packets, st.MicroflowHits, st.CacheHits, st.CacheMisses)
			}
			expired += w.vs.Cache().Stats().Expired + w.vs.Microflow().Snapshot().Stats.Expired
			w.own.Unlock()
		}
		if expired == 0 {
			t.Errorf("workers=%d: no shard swept an idle entry", workers)
		}
		t.Logf("workers=%d: %d verdicts, %d refused at shutdown, %d nonblocking accepted",
			workers, verdicts.Load(), refusals.Load(), accepted)
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

// TestSubmitFrameBatchNonblockingAllocs: a nonblocking share keeps only
// what the shard reads — the job, its block, and the copies of the keys
// and their flag bytes — and no result arrays, which nobody would read:
// the shard writes the results into scratch of its own.
func TestSubmitFrameBatchNonblockingAllocs(t *testing.T) {
	const flows = 64
	frames := make([]Frame, flows)
	for i := range frames {
		frames[i] = Frame{Data: wire.Encode(perFlowKey(i))}
	}
	s, ctx := start(t, perFlowPipeline(flows), Config{
		Cache:             gigaflow.CacheConfig{NumTables: 3, TableCapacity: 3 * 1024},
		MicroflowCapacity: 8 * flows,
	}), context.Background()
	b := NewBatch(flows)
	submit := func() {
		if err := s.SubmitFrameBatch(ctx, frames, b, Nonblocking()); err != nil {
			t.Fatal(err)
		}
		if err := b.Result(0).Err; err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		submit() // install, memoise, size the batch and the shard's scratch
	}
	if _, err := s.Stats(ctx); err != nil { // behind the warm-up, on the one shard
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, submit); n > 4 {
		t.Errorf("%.2f allocs per one-share nonblocking SubmitFrameBatch, want at most 4 (job, block, keys, metas)", n)
	}
	if st, err := s.Stats(ctx); err != nil || st.Packets != 205*flows {
		t.Errorf("served %d packets, %v; want %d", st.Packets, err, 205*flows)
	}
}
