package gigaflow

// Profile-guided adaptation (§7, "Traffic-Profile-Guided Optimizations"):
// in low-locality environments sub-traversal caching can trail Megaflow,
// since partitioning pays entry overhead without sharing in return. The
// paper proposes sampling traffic to estimate sharing and switching to
// Megaflow-style entries when sharing is poor. This file implements that
// proposal: the cache tracks an exponentially-weighted sharing rate over
// recent installs and, below a threshold, installs whole traversals as
// single-segment entries (exactly a Megaflow rule living in GF₁) instead
// of partitioned sub-traversals. When sharing recovers, partitioning
// resumes — per-install, with no reconfiguration.

// The adaptation's thresholds.
const (
	// adaptMinSharing is the sharing rate below which inserts fall back to
	// whole-traversal entries: at least ~1 in 7 recent sub-traversals
	// reused.
	adaptMinSharing = 0.15
	// adaptAlpha is the EWMA weight of each new install observation:
	// roughly a 20-install horizon.
	adaptAlpha = 0.05
	// adaptWarmup installs are always partitioned, to gather a signal
	// before judging.
	adaptWarmup = 500
	// adaptSampleEvery keeps 1 in adaptSampleEvery inserts partitioned
	// while degraded — the paper's periodic traffic sampling, which lets
	// the estimate recover when sharing returns. Only partitioned inserts
	// feed the estimator; whole-traversal installs measure nothing about
	// sub-traversal sharing.
	adaptSampleEvery = 8
)

// adaptState is the cache's live sharing estimate.
type adaptState struct {
	sharing  float64 // EWMA of per-(partitioned-)install sharing fraction
	installs uint64  // total inserts seen (partitioned or not)
	observed uint64  // partitioned inserts folded into the estimate
}

// observe folds one partitioned install's sharing fraction (reused
// segments / total segments) into the estimate.
func (a *adaptState) observe(reused, total int) {
	if total <= 0 {
		return
	}
	frac := float64(reused) / float64(total)
	a.sharing = (1-adaptAlpha)*a.sharing + adaptAlpha*frac
	a.observed++
}

// degraded reports whether inserts should fall back to whole-traversal
// (Megaflow-style) entries.
func (a *adaptState) degraded() bool {
	return a.observed >= adaptWarmup && a.sharing < adaptMinSharing
}

// sampleNow reports whether this degraded-mode insert is a probation
// sample that must be partitioned anyway.
func (a *adaptState) sampleNow() bool {
	return a.installs%adaptSampleEvery == 0
}

// SharingEstimate exposes the EWMA sharing rate (for reports and tests).
func (c *Cache) SharingEstimate() float64 {
	if c.adapt == nil {
		return 0
	}
	return c.adapt.sharing
}

// Degraded reports whether adaptive mode is currently installing
// Megaflow-style entries.
func (c *Cache) Degraded() bool { return c.adapt != nil && c.adapt.degraded() }
