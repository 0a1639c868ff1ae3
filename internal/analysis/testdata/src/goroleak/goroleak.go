// Package goroleak exercises gflint's goroutine-lifecycle analysis:
// goroutines must have a provable termination path, go targets must be
// statically resolvable, and every WaitGroup.Add needs a reachable Done.
package goroleak

import (
	"context"
	"sync"
)

// leakyWorker spins forever: no return, no labeled break, no exit.
func leakyWorker(c chan int) {
	for { // want "unconditional loop in goroutine leakyWorker has no exit path"
		<-c
	}
}

// goodWorker exits when its context is cancelled.
func goodWorker(ctx context.Context, c chan int) {
	for {
		select {
		case <-ctx.Done():
			return
		case <-c:
		}
	}
}

// drainWorker exits through the default arm once the channel is dry.
func drainWorker(c chan int) {
	for {
		select {
		case <-c:
		default:
			return
		}
	}
}

// boundedWorker's loop has a condition, so termination is the loop's
// own business.
func boundedWorker(c chan int) {
	for i := 0; i < 10; i++ {
		c <- i
	}
}

// rangeWorker terminates when the channel closes.
func rangeWorker(c chan int) {
	for range c {
	}
}

// escapeWorker exits its spin via a labeled break.
func escapeWorker(c chan int) {
drain:
	for {
		if <-c == 0 {
			break drain
		}
	}
}

func Spawn(ctx context.Context, c chan int) {
	go leakyWorker(c)
	go goodWorker(ctx, c)
	go drainWorker(c)
	go boundedWorker(c)
	go rangeWorker(c)
	go escapeWorker(c)
	go func() {
		for { // want "unconditional loop in goroutine func@goroleak.go"
			<-c
		}
	}()
}

// hooks carries a func-typed field no module function is ever assigned
// to, so the go statement's target is unresolvable.
type hooks struct{ bg func(chan byte) }

func SpawnHook(h hooks, c chan byte) {
	go h.bg(c) // want "cannot resolve the target of this go statement"
}

type pool struct {
	wg     sync.WaitGroup
	orphan sync.WaitGroup
}

func (p *pool) run(ctx context.Context, c chan int) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		goodWorker(ctx, c)
	}()
	p.orphan.Add(1) // want "sync.WaitGroup.Add on p.orphan has no matching Done"
}

func (p *pool) wait() { p.wg.Wait() }

// engine is a pool of drain goroutines: Start Adds
// once per drain goroutine, each drain defers the matching Done on the
// same WaitGroup field and exits through the context arm; the inner
// batch-gather loop escapes via a labeled break. All clean — no
// findings expected anywhere in this block.
type engine struct {
	wg sync.WaitGroup
	in chan int
}

func (e *engine) Start(ctx context.Context, workers int) {
	for i := 0; i < workers; i++ {
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			e.drain(ctx)
		}()
	}
}

func (e *engine) drain(ctx context.Context) {
	for {
		var batch []int
		select {
		case <-ctx.Done():
			return
		case v := <-e.in:
			batch = append(batch, v)
		}
	gather:
		for len(batch) < 8 {
			select {
			case v := <-e.in:
				batch = append(batch, v)
			default:
				break gather
			}
		}
		batch = batch[:0]
		_ = batch
	}
}

func (e *engine) Wait() { e.wg.Wait() }

// metronome runs for the process lifetime by design; the suppression
// records that decision next to the loop.
func metronome(c chan int) {
	//gflint:ignore goroleak process-lifetime ticker, killed with the process
	for {
		c <- 1
	}
}

func SpawnForever(c chan int) {
	go metronome(c)
}
