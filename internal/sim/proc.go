package sim

import "fmt"

// Proc is a coroutine running application ("master thread") code inside
// the simulation. The coroutine runs on its own goroutine but is never
// concurrent with the engine: control is handed back and forth through a
// pair of unbuffered channels, so at any instant exactly one of
// {engine, coroutine} is executing. This keeps the simulation fully
// deterministic while letting application code be written in plain
// blocking style (submit tasks, call taskwait, loop).
//
// A panic in the body is recovered on the coroutine goroutine, handed
// back over yield and re-panicked unchanged on the engine goroutine, so
// the caller of Engine.Run can recover it like any other run failure.
type Proc struct {
	e        *Engine
	name     string
	body     func(p *Proc)
	resume   chan struct{} // engine -> coroutine
	yield    chan any      // coroutine -> engine: nil, or the body's panic value
	started  bool
	finished bool
	parked   bool
	// unparkFn is the prebound Unpark method value, so Sleep (called once
	// per task when CreateOverhead is modelled) schedules its wake-up
	// without allocating a fresh closure each time.
	unparkFn func()
}

// Spawn registers a coroutine with the engine. The body starts executing
// when Run is called (at virtual time zero), runs until it parks (or
// returns), and from then on is resumed by Unpark calls made from event
// handlers.
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc {
	p := &Proc{
		e:      e,
		name:   name,
		body:   body,
		resume: make(chan struct{}),
		yield:  make(chan any),
	}
	p.unparkFn = p.Unpark
	e.procs = append(e.procs, p)
	return p
}

// start launches the coroutine goroutine and runs it until its first park
// (or completion). Called by the engine only.
func (p *Proc) start() {
	p.started = true
	go func() {
		defer func() {
			v := recover()
			p.finished = true
			p.yield <- v
		}()
		<-p.resume
		p.body(p)
	}()
	p.transferToCoroutine()
}

// transferToCoroutine hands control to the coroutine and blocks until it
// parks or finishes, re-panicking a panic of the body. Engine side only.
func (p *Proc) transferToCoroutine() {
	p.resume <- struct{}{}
	if v := <-p.yield; v != nil {
		panic(v)
	}
}

// Park suspends the coroutine until some event handler calls Unpark.
// Must be called from the coroutine itself.
func (p *Proc) Park() {
	if p.finished {
		panic("sim: Park on finished proc")
	}
	p.parked = true
	p.yield <- nil
	<-p.resume
}

// Unpark resumes a parked coroutine and runs it synchronously until it
// parks again (or finishes). Must be called from engine context (an event
// handler), never from another coroutine.
func (p *Proc) Unpark() {
	if !p.parked {
		panic(fmt.Sprintf("sim: Unpark of proc %q that is not parked", p.name))
	}
	p.parked = false
	p.transferToCoroutine()
}

// Finished reports whether the coroutine body has returned.
func (p *Proc) Finished() bool { return p.finished }

// Name returns the coroutine's diagnostic name.
func (p *Proc) Name() string { return p.name }

// Sleep advances the coroutine's virtual time by d: it schedules a
// wake-up event and parks until it fires. Must be called from the
// coroutine itself.
func (p *Proc) Sleep(d Duration) {
	p.e.After(d, p.unparkFn)
	p.Park()
}

// Now returns the engine's current virtual time (valid from coroutine
// context because the engine is suspended while the coroutine runs).
func (p *Proc) Now() Time { return p.e.Now() }

// Engine returns the engine this coroutine belongs to.
func (p *Proc) Engine() *Engine { return p.e }
