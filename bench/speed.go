package main

import "time"

// Machine-speed normalisation.
//
// This benchmark runs on small shared virtual machines whose memory
// system slows by 10–40% for seconds to minutes at a time when
// neighbours are busy, and the datapath — hash-table probes over
// megabytes of state — slows with it: as measured, ten runs of one commit
// spread 10–30% (interquartile, of the median), which would hide every
// change this benchmark exists to show. So every stretch of timed work
// is bracketed by a fixed calibration kernel with the same character —
// dependent random 8-byte reads over an 8 MiB table — and every timing
// metric (set-up time included) is reported scaled to a reference machine
// speed: measured × speed. On the box this benchmark was built on, that
// roughly halves the run-to-run spread (see results/README.md).
//
// The factor depends only on the machine's state, never on the code
// under test; the traced run reports it as gen.speed and the span files
// keep raw nanoseconds, so the raw figure is always recoverable.
const (
	calTableWords = 1 << 20 // 8 MiB of uint64
	// calReads is the kernel's length in reads, ≈25 ms; tests shrink it
	// with the workload.
	calReads = 300000
	// calRefNs is one read's duration on the seed commit's box when
	// quiet; it only fixes the scale of the normalised figures.
	calRefNs = 25e6 / calReads
)

var (
	calTable = func() []uint64 {
		t := make([]uint64, calTableWords)
		for i := range t {
			t[i] = uint64(i) * 0x9e3779b97f4a7c15
		}
		return t
	}()
	calSink uint64
)

// speedOf turns the calibration readings taken just before and after a
// stretch of work into the machine's speed over it: 1 = the reference box
// when quiet, <1 = slower. It trusts the faster reading: a hypervisor
// stall that lands in one reading must not pass for a slow machine.
func speedOf(calBefore, calAfter float64) float64 {
	if calAfter < calBefore {
		return calRefNs / calAfter
	}
	return calRefNs / calBefore
}

// calibrate runs the calibration kernel for the given number of reads
// and returns the nanoseconds one read took. Each read's address depends
// on the previous read's value, so the kernel is latency-bound, like a
// chain of hash-table probes.
func calibrate(reads int) float64 {
	t0 := time.Now()
	idx, sum := uint64(1), calSink
	for i := 0; i < reads; i++ {
		idx = idx*6364136223846793005 + 1442695040888963407 + sum&1
		sum += calTable[idx>>44]
	}
	calSink = sum
	return float64(time.Since(t0)) / float64(reads)
}

// speedometer hands each round the calibration taken just before it, so
// consecutive rounds share the reading between them.
type speedometer struct{ last float64 }
