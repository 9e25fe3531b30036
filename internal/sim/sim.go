// Package sim is a minimal discrete-event simulation engine: a virtual
// clock and a priority queue of timed events. The cluster simulator uses
// it to drive query arrivals, autoscaler control loops and pod cold-start
// timers for the Fig. 19 dynamic-traffic experiment without consuming
// wall-clock time.
package sim

import (
	"container/heap"
	"fmt"
	"time"
)

// Event is a callback scheduled at a virtual time.
type Event struct {
	At time.Duration
	Fn func(now time.Duration)

	seq   uint64 // FIFO tie-break for simultaneous events
	index int    // heap bookkeeping
}

type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].At != q[j].At {
		return q[i].At < q[j].At
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Engine owns the virtual clock and event queue. It is single-threaded:
// event callbacks run sequentially in timestamp order and may schedule
// further events.
type Engine struct {
	now     time.Duration
	queue   eventQueue
	nextSeq uint64
	stopped bool
}

// New creates an engine with the clock at zero.
func New() *Engine {
	e := &Engine{}
	heap.Init(&e.queue)
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// At schedules fn at absolute virtual time t; scheduling in the past is an
// error (it would reorder causality).
func (e *Engine) At(t time.Duration, fn func(now time.Duration)) error {
	if t < e.now {
		return fmt.Errorf("sim: scheduling at %v before now %v", t, e.now)
	}
	if fn == nil {
		return fmt.Errorf("sim: nil event callback")
	}
	ev := &Event{At: t, Fn: fn, seq: e.nextSeq}
	e.nextSeq++
	heap.Push(&e.queue, ev)
	return nil
}

// After schedules fn delay after the current virtual time.
func (e *Engine) After(delay time.Duration, fn func(now time.Duration)) error {
	if delay < 0 {
		delay = 0
	}
	return e.At(e.now+delay, fn)
}

// Every schedules fn at period intervals starting at start, until the
// engine stops or the horizon passes (fn returning false also stops the
// series).
func (e *Engine) Every(start, period time.Duration, horizon time.Duration, fn func(now time.Duration) bool) error {
	if period <= 0 {
		return fmt.Errorf("sim: non-positive period %v", period)
	}
	var tick func(now time.Duration)
	tick = func(now time.Duration) {
		if !fn(now) {
			return
		}
		next := now + period
		if next > horizon {
			return
		}
		// Scheduling from inside a callback cannot fail: next >= now.
		_ = e.At(next, tick)
	}
	return e.At(start, tick)
}

// Stop halts the run loop after the current event.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the queue drains or the horizon is reached,
// and returns the final virtual time.
func (e *Engine) Run(horizon time.Duration) time.Duration {
	e.stopped = false
	for e.queue.Len() > 0 && !e.stopped {
		ev := heap.Pop(&e.queue).(*Event)
		if ev.At > horizon {
			e.now = horizon
			return e.now
		}
		e.now = ev.At
		ev.Fn(e.now)
	}
	if e.now < horizon && e.queue.Len() == 0 {
		e.now = horizon
	}
	return e.now
}
