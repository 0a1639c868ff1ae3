// Package lockdiscipline is a gflint fixture: locks released on every
// path (defer or same block) pass; leaks, returns under a lock, and
// channel operations under a lock are findings.
package lockdiscipline

import "sync"

type guarded struct {
	mu sync.Mutex
	rw sync.RWMutex
	ch chan int
	n  int
}

// deferred is the canonical pattern.
func (g *guarded) deferred() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.n++
}

// sameBlock releases in straight-line code.
func (g *guarded) sameBlock() {
	g.mu.Lock()
	g.n++
	g.mu.Unlock()
}

// branchUnlock releases on both paths.
func (g *guarded) branchUnlock(b bool) int {
	g.mu.Lock()
	if b {
		g.mu.Unlock()
		return 1
	}
	g.mu.Unlock()
	return 0
}

// readers pairs RLock/RUnlock independently of the writer lock.
func (g *guarded) readers() int {
	g.rw.RLock()
	defer g.rw.RUnlock()
	return g.n
}

// closureClean defines (but does not run) a locking closure; the literal
// body is checked as its own function and is clean.
func (g *guarded) closureClean() func() {
	return func() {
		g.mu.Lock()
		g.mu.Unlock()
	}
}

// leak never releases.
func (g *guarded) leak() {
	g.mu.Lock() // want "locked but never unlocked"
	g.n++
}

// returnHeld leaks on the early-return path only.
func (g *guarded) returnHeld(b bool) int {
	g.mu.Lock()
	if b {
		return g.n // want "return while holding g.mu"
	}
	g.mu.Unlock()
	return 0
}

// sendHeld blocks on a channel inside the critical section.
func (g *guarded) sendHeld() {
	g.mu.Lock()
	g.ch <- 1 // want "channel send while holding g.mu"
	g.mu.Unlock()
}

// recvDeferred's critical section spans to the end of the function, so
// the receive is still under the lock even though the unlock is deferred.
func (g *guarded) recvDeferred() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return <-g.ch // want "channel receive while holding g.mu"
}

// selectHeld blocks on select under the lock.
func (g *guarded) selectHeld() {
	g.mu.Lock()
	select { // want "select while holding g.mu"
	case v := <-g.ch:
		g.n = v
	default:
	}
	g.mu.Unlock()
}

// tryOwner is the shard-ownership shape: a conditional acquisition whose
// failure returns early holds the lock on the fall-through path.
func (g *guarded) tryOwner(busy bool) bool {
	if busy || !g.mu.TryLock() {
		return false
	}
	g.n++
	g.mu.Unlock()
	return true
}

// tryBody holds the lock only inside the if body.
func (g *guarded) tryBody() {
	if g.mu.TryLock() {
		g.n++
		g.mu.Unlock()
	}
	g.ch <- 1
}

// trySendHeld signals completion before releasing the owner lock.
func (g *guarded) trySendHeld() bool {
	if !g.mu.TryLock() {
		return false
	}
	g.ch <- g.n // want "channel send while holding g.mu"
	g.mu.Unlock()
	return true
}

// tryLeak returns on the success path without releasing.
func (g *guarded) tryLeak() bool {
	if g.mu.TryLock() {
		return true // want "return while holding g.mu"
	}
	return false
}
