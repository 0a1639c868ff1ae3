package gigaflow

import (
	"testing"

	"gigaflow/internal/microflow"
	"gigaflow/internal/telemetry"
)

// TestMicroflowStepsAside walks a switch through the Microflow tier's
// thrash policy (DESIGN.md §10.3) from outside, in four phases on one
// tape:
//
//	cold  round robin over four capacities of flows, which LRU cannot hit:
//	      after the first observation window the tier bypasses, for 2, 4,
//	      8 and 16 windows with a window of observation between;
//	hot   half a capacity of flows, starting in mid-bypass: nothing is
//	      learnt until the period is over, then the set is admitted in one
//	      pass and every packet after that is a microflow hit;
//	cold  again, until the tier steps aside again, and half a period more;
//	hot   after a Revalidate, which returns the tier to active at once.
//
// Every packet's verdict and final key equal the cache-free Reference
// walk's — a memo is only ever a shortcut, so declining one changes who
// serves the packet and never what it is served — and the tape leaves the
// same VSwitchStats, microflow.Stats and main-cache Stats whether it runs
// through ProcessBatchMeta in 64s, through Process one packet at a time, or
// through the park protocol (ProcessPark, then CompleteMiss): the policy
// counts packets that end in the tier, not probes, and a parked packet is
// probed twice and memoized once.
func TestMicroflowStepsAside(t *testing.T) {
	const (
		ufCap = 2048
		W     = 2 * ufCap // the tier's observation window, at the floor of 4 096
		coldA = 26 * W    // windows: 1 observed, 2 aside, 1, 4, 1, 8, 1, and 8 of 16
		hotA  = 10 * W
		coldB = 2 * W // one window without a hit, and half of the period it earns
		hotB  = W
	)
	// One flow in eight goes to a port of its own, which no rule names:
	// a thousand such entries cycle through a 64-entry cache table, so
	// the slow path — and with it the park protocol — runs all along the
	// tape, on both sides of every edge of the policy.
	flowKey := func(id int) Key {
		port := uint64(80)
		if id%8 == 7 {
			port = 10000 + uint64(id)
		}
		return demoKey(uint64(id%200), port).With(FieldIPSrc, 0xc0a80000|uint64(id))
	}
	var tape []Key
	next := 0
	cold := func(n int) {
		for i := 0; i < n; i++ {
			tape = append(tape, flowKey(ufCap+next%(4*ufCap)))
			next++
		}
	}
	hot := func(n int) {
		for i := 0; i < n; i++ {
			tape = append(tape, flowKey(i%(ufCap/2)))
		}
	}
	cold(coldA)
	hot(hotA)
	cold(coldB)
	revalidateAt := len(tape)
	hot(hotB)

	ref := NewReference(buildDemoPipeline(), false, 0)
	want := make([]ProcessResult, len(tape))
	for i, k := range tape {
		r, err := ref.Process(k, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}

	type outcome struct {
		stats VSwitchStats
		uf    microflow.Stats
		main  any
	}
	drivers := []struct {
		name string
		run  func(vs *VSwitch, lo, hi int, out []ProcessResult)
	}{
		{"batch", func(vs *VSwitch, lo, hi int, out []ProcessResult) {
			errs := make([]error, 64)
			for ; lo < hi; lo += 64 {
				n := min(64, hi-lo)
				vs.ProcessBatchMeta(tape[lo:lo+n], nil, out[lo:lo+n], errs, int64(lo+n-1))
				for i, err := range errs[:n] {
					if err != nil {
						t.Fatalf("packet %d: %v", lo+i, err)
					}
				}
			}
		}},
		{"single", func(vs *VSwitch, lo, hi int, out []ProcessResult) {
			for i := lo; i < hi; i++ {
				var err error
				if out[i], err = vs.Process(tape[i], int64(i|63)); err != nil {
					t.Fatalf("packet %d: %v", i, err)
				}
			}
		}},
		{"park", func(vs *VSwitch, lo, hi int, out []ProcessResult) {
			for i := lo; i < hi; i++ {
				r, parked, err := vs.ProcessPark(tape[i], int64(i|63))
				if err == nil && parked {
					tr, terr := vs.Pipeline().Process(tape[i])
					if terr != nil {
						t.Fatal(terr)
					}
					r, err = vs.CompleteMiss(tape[i], tr, int64(i|63), 100, 50)
				}
				if err != nil {
					t.Fatalf("packet %d: %v", i, err)
				}
				out[i] = r
			}
		}},
	}

	// ufMetrics collects the switch's metrics and reads the two series the
	// policy exports: the declined requests and the gauge.
	ufMetrics := func(vs *VSwitch) (bypassed uint64, bypassing float64) {
		reg := telemetry.NewRegistry()
		vs.CollectMetrics(reg, "0")
		return reg.CounterVec("gigaflow_microflow_bypassed_total", "", "worker").With("0").Value(),
			reg.GaugeVec("gigaflow_microflow_bypassing", "", "worker").With("0").Value()
	}

	var first outcome
	for _, d := range drivers {
		vs := NewVSwitch(buildDemoPipeline(), CacheConfig{NumTables: 3, TableCapacity: 64}, WithMicroflow(ufCap))
		out := make([]ProcessResult, len(tape))
		uf := vs.Microflow()
		// upTo runs the tape on to packet hi and returns how many of the
		// packets it ran were microflow hits and how many the tier declined
		// to memoize.
		at := 0
		upTo := func(hi int) (hits, bypassed uint64) {
			h0, b0 := vs.Stats().MicroflowHits, uf.Stats().Bypassed
			d.run(vs, at, hi, out)
			at = hi
			return vs.Stats().MicroflowHits - h0, uf.Stats().Bypassed - b0
		}

		// (a) Cold. The first window is observed in full; of the 25 that
		// follow, 22 are spent aside.
		if hits, bypassed := upTo(W); hits != 0 || bypassed != 0 || !uf.Snapshot().Bypassing {
			t.Fatalf("%s: first window: %d hits, %d declined, bypassing=%v", d.name, hits, bypassed, uf.Snapshot().Bypassing)
		}
		hits, bypassed := upTo(coldA)
		if hits != 0 || bypassed != 22*W || bypassed*100 < 85*(coldA-W) {
			t.Fatalf("%s: cold: %d hits, %d of %d packets declined", d.name, hits, bypassed, coldA-W)
		}
		if got := uf.Stats().EvictLRU; got != 4*W-ufCap {
			t.Fatalf("%s: cold: %d evictions over four observed windows, want %d", d.name, got, 4*W-ufCap)
		}

		// (b) Hot, from the middle of the longest period there is: the
		// first hit comes after what is left of it and one pass over the
		// set, inside one maximum period and a window; from there a whole
		// window hits.
		firstHit := -1
		for at < coldA+hotA-W && firstHit < 0 {
			if hits, _ := upTo(at + 64); hits != 0 {
				firstHit = at - 64
			}
		}
		if firstHit != coldA+8*W+ufCap/2 || firstHit-coldA > 17*W {
			t.Fatalf("%s: hot: first microflow hit at packet %d, want %d", d.name, firstHit-coldA, 8*W+ufCap/2)
		}
		if hits, bypassed := upTo(at + W); hits < W*9/10 || bypassed != 0 {
			t.Fatalf("%s: hot: %d hits, %d declined in the %d packets after the first hit", d.name, hits, bypassed, W)
		}
		upTo(coldA + hotA)

		// (c) Cold until it steps aside again — two windows, the back-off
		// having collapsed — and Revalidate in the middle of that.
		if _, bypassed := upTo(revalidateAt); bypassed != W || !uf.Snapshot().Bypassing {
			t.Fatalf("%s: second cold phase: %d declined, bypassing=%v", d.name, bypassed, uf.Snapshot().Bypassing)
		}
		// 22 windows declined in the first cold phase, the 8 the hot phase
		// began with, and this one.
		if n, g := ufMetrics(vs); n != 31*W || g != 1 {
			t.Fatalf("%s: metrics in mid-bypass: bypassed_total %d, bypassing %v; want %d, 1", d.name, n, g, 31*W)
		}
		vs.Revalidate()
		if _, g := ufMetrics(vs); uf.Snapshot().Bypassing || g != 0 {
			t.Fatalf("%s: Revalidate left the tier bypassing (gauge %v)", d.name, g)
		}
		if hits, bypassed := upTo(len(tape)); hits != hotB-ufCap/2 || bypassed != 0 {
			t.Fatalf("%s: after Revalidate: %d hits, %d declined in %d packets", d.name, hits, bypassed, hotB)
		}

		for i := range tape {
			if out[i].Verdict != want[i].Verdict || out[i].Final != want[i].Final {
				t.Fatalf("%s: packet %d: %+v, Reference %+v", d.name, i, out[i], want[i])
			}
		}
		o := outcome{stats: vs.Stats(), uf: uf.Stats(), main: vs.Cache().Stats()}
		if d.name == drivers[0].name {
			first = o
			if o.stats.CacheMisses == 0 || o.stats.CacheHits == 0 || o.stats.MicroflowHits == 0 || o.uf.Bypassed == 0 {
				t.Fatalf("tape does not reach every tier and the bypass: %+v %+v", o.stats, o.uf)
			}
		} else if o != first {
			t.Errorf("%s: %+v\n%s: %+v", d.name, o, drivers[0].name, first)
		}
	}
}
