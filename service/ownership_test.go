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

// TestControlOpsOnStoppedService: every control operation on a service
// that is not running returns at once with the lifecycle error — before
// Start, after Close, and after the context Start was given is cancelled
// — where it used to queue a closure to a worker that would never run it
// (CacheEntries, which takes no context, blocked forever). The cancelled
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
					if n := s.CacheEntries(); n != 0 {
						t.Errorf("CacheEntries = %d, want 0 (%v)", n, want)
					}
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
			if _, err := s.Submit(ctx, key(1, 80)); err != nil {
				t.Fatal(err)
			}
			if n := s.CacheEntries(); n == 0 {
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
	s, err := New(buildPipeline(), upcallConfig(BackendGigaflow, 1, 1))
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
		s, err := New(perFlowPipeline(rounds), Config{
			Workers:           workers,
			Cache:             gigaflow.CacheConfig{NumTables: 3, TableCapacity: 3 * 4096},
			MicroflowCapacity: 64,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if err := s.Start(ctx); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < rounds; r++ {
			k := perFlowKey(r)
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
			if _, err := s.Submit(ctx, k, Nonblocking()); err != nil {
				t.Fatalf("workers=%d round %d: nonblocking: %v", workers, r, err)
			}
			if release != nil {
				close(release)
			}
			res, err := s.Submit(ctx, k)
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
		s.Close()
	}
}

// TestQueuedMatchesInline runs one frame tape — cold flows, repeats,
// degraded and refused frames, several shards — through identical
// services by every way in: each of the four entry points, blocking on an
// idle service (the single submitter runs its own shares), blocking with
// every shard marked busy (every share crosses a worker queue), and
// Nonblocking with the results streamed back. Same runJob under all of
// them: per-packet results, decoded keys and aggregate stats must be
// identical, in synchronous and in upcall mode. A last leg sends a TCP
// handshake and close as single nonblocking frames through a conntrack
// service: the flag bytes arrive with them.
func TestQueuedMatchesInline(t *testing.T) {
	const flows = 96
	var tape []Frame
	for round := 0; round < 4; round++ {
		for i := 0; i < flows; i++ {
			data := wire.Encode(perFlowKey((i * 7) % flows))
			switch {
			case i%31 == 5:
				data = data[:20] // IPv4 header cut short: submitter-side fallback
			case i%41 == 7:
				data = data[:9] // no Ethernet header: refused
			}
			tape = append(tape, Frame{InPort: uint16(i % 3), Data: data})
		}
	}
	// What the key entry points are handed: the key and flags a frame
	// decodes to. They have no way to refuse a frame, so the test answers a
	// short one with the ErrShortFrame the frame entry points give it.
	keys, flags, short := make([]gigaflow.Key, len(tape)), make([]uint8, len(tape)), make([]bool, len(tape))
	for i, f := range tape {
		var info wire.Info
		keys[i], info = wire.Decode(f.Data, f.InPort)
		flags[i], short[i] = info.TCPFlags, info.Err == wire.ErrShortFrame
	}

	type way struct {
		entry       string // the entry point the tape goes through
		nonblocking bool   // Nonblocking() + WithResponse, else blocking
		busy        bool   // blocking only: no share is run in place
	}
	type outcome struct {
		res   []Result
		keys  []gigaflow.Key // blocking SubmitFrameBatch only: what the shards decoded
		stats gigaflow.VSwitchStats
		n     int
	}
	run := func(cfg Config, v way) outcome {
		t.Helper()
		s, err := New(perFlowPipeline(flows), cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if err := s.Start(ctx); err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if v.busy {
			// A phantom in-flight message per shard: tryRun never finds the
			// shard idle, the worker serves its queue as usual.
			for _, w := range s.workers {
				w.inflight.Add(1)
			}
		}
		var opts []SubmitOption
		resp := make(chan Result, 32)
		if v.nonblocking {
			opts = []SubmitOption{Nonblocking(), WithResponse(resp)}
		}
		var out outcome
		b := NewBatch(32)
		// send puts tape[lo:hi] through the entry point in one call (the
		// single entry points are handed one frame at a time) and returns
		// what the call itself reported per frame.
		send := func(lo, hi int) []Result {
			res := make([]Result, hi-lo)
			switch v.entry {
			case "Submit":
				if res[0].Err = ErrShortFrame; !short[lo] {
					res[0], _ = s.Submit(ctx, keys[lo], opts...)
				}
			case "SubmitFrame":
				res[0], _ = s.SubmitFrame(ctx, tape[lo].InPort, tape[lo].Data, opts...)
			case "SubmitBatch":
				b.Reset()
				for i := lo; i < hi; i++ {
					if !short[i] {
						b.AddMeta(keys[i], flags[i])
					}
				}
				if err := s.SubmitBatch(ctx, b, opts...); err != nil {
					t.Fatalf("%+v: %v", v, err)
				}
				for i, n := lo, 0; i < hi; i++ {
					if res[i-lo].Err = ErrShortFrame; !short[i] {
						res[i-lo] = b.Result(n)
						n++
					}
				}
			case "SubmitFrameBatch":
				if err := s.SubmitFrameBatch(ctx, tape[lo:hi], b, opts...); err != nil {
					t.Fatalf("%+v: %v", v, err)
				}
				for i := range res {
					res[i] = b.Result(i)
					if !v.nonblocking {
						out.keys = append(out.keys, b.Key(i))
					}
				}
			}
			return res
		}
		chunk := 32
		if v.entry == "Submit" || v.entry == "SubmitFrame" {
			chunk = 1
		}
		for lo := 0; lo < len(tape); lo += chunk {
			res := send(lo, lo+chunk)
			// A nonblocking call reported only what it enqueued; the verdicts
			// are on resp, one shard's in order, the shards' interleaved. No
			// rule rewrites a field, so a result's Final names its flow: it
			// answers the earliest unanswered request of that flow.
			for i := range res {
				if !v.nonblocking || res[i].Err != nil {
					continue
				}
				select {
				case r := <-resp:
					at := -1
					for j := range res {
						if res[j] == (Result{}) && keys[lo+j] == r.Final {
							at = j
							break
						}
					}
					if at < 0 {
						t.Fatalf("%+v: frames %d-%d: a result nobody asked for: %+v", v, lo, lo+chunk, r)
					}
					res[at] = r
				case <-time.After(5 * time.Second):
					t.Fatalf("%+v: frames %d-%d: %d results never arrived", v, lo, lo+chunk, len(res)-i)
				}
			}
			out.res = append(out.res, res...)
		}
		// And the key path, one blocking request per call.
		for i := 0; i < flows; i++ {
			r, err := s.Submit(ctx, perFlowKey(i))
			if err != nil {
				t.Fatal(err)
			}
			out.res = append(out.res, r)
		}
		if out.stats, err = s.Stats(ctx); err != nil {
			t.Fatal(err)
		}
		out.n = s.CacheEntries()
		return out
	}
	modes := map[string]Config{
		"sync": {
			Cache:             gigaflow.CacheConfig{NumTables: 3, TableCapacity: 3 * 1024},
			MicroflowCapacity: 64,
		},
		"upcall": {
			Cache:             gigaflow.CacheConfig{NumTables: 3, TableCapacity: 3 * 1024},
			MicroflowCapacity: 64,
			Upcall:            UpcallConfig{Workers: 1, Queue: 4096},
		},
	}
	for mode, cfg := range modes {
		for _, workers := range []int{1, 3} {
			cfg.Workers = workers
			want := run(cfg, way{entry: "SubmitFrameBatch"})
			if want.stats.Packets == 0 || want.stats.CacheMisses == 0 || want.stats.MicroflowHits == 0 {
				t.Fatalf("%s workers=%d: the tape does not exercise misses and hits: %+v", mode, workers, want.stats)
			}
			for _, entry := range []string{"Submit", "SubmitFrame", "SubmitBatch", "SubmitFrameBatch"} {
				for _, v := range []way{{entry, false, false}, {entry, false, true}, {entry, true, false}} {
					got := run(cfg, v)
					if len(got.res) != len(want.res) {
						t.Fatalf("%s workers=%d %+v: %d results, want %d", mode, workers, v, len(got.res), len(want.res))
					}
					for i := range want.res {
						if got.res[i] != want.res[i] {
							t.Fatalf("%s workers=%d %+v: packet %d: %+v, want %+v", mode, workers, v, i, got.res[i], want.res[i])
						}
					}
					for i := range got.keys {
						if got.keys[i] != want.keys[i] {
							t.Fatalf("%s workers=%d %+v: frame %d decoded to %v, want %v", mode, workers, v, i, got.keys[i], want.keys[i])
						}
					}
					if got.stats != want.stats || got.n != want.n {
						t.Errorf("%s workers=%d %+v: stats diverge:\n got  %+v (%d entries)\n want %+v (%d entries)",
							mode, workers, v, got.stats, got.n, want.stats, want.n)
					}
				}
			}
		}
	}

	// The conntrack leg. Only a frame's flag byte can close a connection or
	// reopen its tuple: were it lost on the way in, the FIN would leave the
	// connection established and the second SYN would find it there.
	s, err := New(perFlowPipeline(flows), Config{
		Workers:           3,
		Cache:             gigaflow.CacheConfig{NumTables: 3, TableCapacity: 3 * 1024},
		MicroflowCapacity: 64,
		Conntrack:         ConntrackConfig{Enable: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := s.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fwd := perFlowKey(1)
	rpl := fwd.With(gigaflow.FieldIPSrc, fwd.Get(gigaflow.FieldIPDst)).With(gigaflow.FieldIPDst, fwd.Get(gigaflow.FieldIPSrc)).
		With(gigaflow.FieldTpSrc, fwd.Get(gigaflow.FieldTpDst)).With(gigaflow.FieldTpDst, fwd.Get(gigaflow.FieldTpSrc))
	resp := make(chan Result, 1)
	sendTCP := func(k gigaflow.Key, tcpFlags uint8) {
		t.Helper()
		frame := wire.Encode(k)
		frame[47] = tcpFlags // Ethernet 14 + IPv4 20 + 13 bytes into the TCP header
		if _, err := s.SubmitFrame(ctx, 0, frame, Nonblocking(), WithResponse(resp)); err != nil {
			t.Fatal(err)
		}
		select {
		case <-resp:
		case <-time.After(5 * time.Second):
			t.Fatal("a nonblocking SubmitFrame was never answered")
		}
	}
	conns := func() (live int, created uint64) {
		t.Helper()
		shards, err := s.ShardStats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range shards {
			live, created = live+sh.CtLive, created+sh.CtCreated
		}
		return live, created
	}
	sendTCP(fwd, wire.TCPSyn)
	sendTCP(rpl, wire.TCPSyn|wire.TCPAck)
	for i := 0; i < 4; i++ {
		sendTCP(fwd, wire.TCPAck)
	}
	if st, err := s.Stats(ctx); err != nil || st.CtFastpath == 0 {
		t.Errorf("established segment: CtFastpath = %d, %v; want memoised hits under the guard", st.CtFastpath, err)
	}
	if live, created := conns(); live != 1 || created != 1 {
		t.Errorf("after the handshake: %d live, %d created; want 1 and 1", live, created)
	}
	sendTCP(fwd, wire.TCPFin|wire.TCPAck)
	sendTCP(fwd, wire.TCPSyn)
	if live, created := conns(); live != 1 || created != 2 {
		t.Errorf("after FIN and a second SYN: %d live, %d created; want the tuple reopened as a second connection (1 and 2)", live, created)
	}
}

// TestShardOwnershipUnderRace hammers one service from every kind of
// caller at once — blocking submitters (which run their own shares when
// the shard is idle), a nonblocking submitter streaming responses, rule
// updates, stats and telemetry snapshots, the expiry ticker — and closes
// it mid-flight. Under -race this is the proof that everything touching
// a shard's state holds its owner lock. Every blocking request gets
// exactly one outcome, nobody hangs, nothing stays parked, and every
// shard's counters still add up.
func TestShardOwnershipUnderRace(t *testing.T) {
	for _, workers := range []int{1, 3} {
		for _, async := range []bool{false, true} {
			cfg := Config{
				Workers:           workers,
				Cache:             gigaflow.CacheConfig{NumTables: 3, TableCapacity: 3 * 64},
				MicroflowCapacity: 32,
				Expiry:            ExpiryConfig{Every: time.Millisecond, MaxIdle: 2 * time.Millisecond},
			}
			if async {
				cfg.Upcall = UpcallConfig{Workers: 2, Queue: 8}
			}
			s, err := New(perFlowPipeline(256), cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			if err := s.Start(ctx); err != nil {
				t.Fatal(err)
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
						var err error
						if n%2 == 0 {
							b.Reset()
							for i := 0; i < 16; i++ {
								b.Add(perFlowKey((g*61 + n*16 + i) % 256))
							}
							err = s.SubmitBatch(ctx, b)
						} else {
							for i := range frames {
								frames[i] = Frame{Data: wire.Encode(perFlowKey((g*67 + n*16 + i) % 256))}
							}
							err = s.SubmitFrameBatch(ctx, frames, b)
						}
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
				b := NewBatch(8)
				for n := 0; !stopped() && accepted < 1<<15; n++ {
					b.Reset()
					for i := 0; i < 8; i++ {
						b.Add(perFlowKey((n*8 + i) % 256))
					}
					if err := s.SubmitBatch(ctx, b, Nonblocking(), WithResponse(resp)); err != nil {
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
			for deadline := time.Now().Add(10 * time.Second); verdicts.Load() < 256; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("workers=%d async=%v: only %d blocking requests processed in 10s", workers, async, verdicts.Load())
				}
			}
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
			for _, w := range s.workers {
				if !w.own.TryLock() {
					t.Fatalf("workers=%d async=%v: shard %d's owner lock is still held after Close", workers, async, w.idx)
				}
				st := w.vs.Stats()
				if st.Packets != st.MicroflowHits+st.CacheHits+st.CacheMisses {
					t.Errorf("workers=%d async=%v shard %d: %d packets != %d+%d hits + %d misses",
						workers, async, w.idx, st.Packets, st.MicroflowHits, st.CacheHits, st.CacheMisses)
				}
				if w.pending != nil && (w.pending.Len() != 0 || w.pending.Parked() != 0) {
					t.Errorf("workers=%d async=%v shard %d: %d flows / %d packets still parked after Close",
						workers, async, w.idx, w.pending.Len(), w.pending.Parked())
				}
				w.own.Unlock()
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
// writes a stateful rule). Nor do the single-packet wrappers, blocking
// Submit and SubmitFrame, which are that batch path on a pooled batch of
// one. And the message a busy shard's share crosses its queue in is
// three words, whatever the share holds.
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
		s, err := New(perFlowPipeline(flows), Config{
			Workers:           tc.workers,
			Cache:             gigaflow.CacheConfig{NumTables: 3, TableCapacity: 3 * 1024},
			MicroflowCapacity: 8 * flows,
			Conntrack:         ConntrackConfig{Enable: tc.ct},
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if err := s.Start(ctx); err != nil {
			t.Fatal(err)
		}
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
		k := perFlowKey(0)
		if n := testing.AllocsPerRun(200, func() { s.Submit(ctx, k) }); n != 0 && poolKeeps {
			t.Errorf("%+v: %.2f allocs per steady-state Submit, want 0", tc, n)
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
		s.Close()
	}
}
