package coherence

import (
	"testing"

	"chats/internal/mem"
	"chats/internal/sim"
)

// The per-line request queue against a slice model: random enqueues and
// dequeues keep FIFO order and QueuedLen's count, the array stays within
// one append growth (at most 3x) of the peak number of parked requests
// (popped slots are reused, not kept at the front), and a drained queue
// refills without allocating.
func TestLineQueueFIFO(t *testing.T) {
	rng := sim.NewRand(1)
	var l dirLine
	var model []mem.Addr
	peak, next := 0, mem.Addr(0)
	for step := 0; step < 50_000; step++ {
		// Alternate push-heavy and pop-heavy phases so the queue both
		// grows past its array and drains.
		push := rng.Uint64n(4) < 3
		if (step/500)%2 == 1 {
			push = !push
		}
		if push {
			next += mem.LineSize
			l.enqueue(queuedReq{line: next})
			model = append(model, next)
			peak = max(peak, len(model))
		} else {
			q, ok := l.dequeue()
			if ok != (len(model) > 0) {
				t.Fatalf("step %d: dequeue ok=%v with %d modeled", step, ok, len(model))
			}
			if ok {
				if q.line != model[0] {
					t.Fatalf("step %d: dequeued %v, want %v", step, q.line, model[0])
				}
				model = model[1:]
			}
		}
		if n := len(l.queue) - l.qhead; n != len(model) {
			t.Fatalf("step %d: %d queued, want %d", step, n, len(model))
		}
		if cap(l.queue) > 3*peak+8 {
			t.Fatalf("step %d: array cap %d for a peak of %d parked requests", step, cap(l.queue), peak)
		}
	}
	for _, ok := l.dequeue(); ok; _, ok = l.dequeue() {
	}
	if a := testing.AllocsPerRun(100, func() {
		for i := 0; i < peak; i++ {
			l.enqueue(queuedReq{line: mem.Addr(i)})
		}
		for _, ok := l.dequeue(); ok; _, ok = l.dequeue() {
		}
	}); a != 0 {
		t.Fatalf("%.1f allocations refilling a drained queue, want 0", a)
	}
}
