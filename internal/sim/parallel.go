// Intra-run parallel execution: same-cycle events of distinct domains
// run concurrently on a worker pool, with results bit-identical to the
// serial engine.
//
// Model. Every event carries an owner Domain. Domain 0 (DomainSerial)
// is the global serial domain: its events run alone, one at a time, on
// the coordinating goroutine, and may touch anything — unannotated
// events land there, so migration is incremental. Non-serial domains
// promise that their events touch only domain-local state and interact
// with the rest of the system exclusively by scheduling events (through
// Sched handles), so same-cycle events of *distinct* domains commute
// and may run concurrently.
//
// Execution. Each cycle the bucket for `now` is drained into a frame
// (seq-ordered). The frame is walked in order and split into segments:
// a serial event is fired inline; a maximal run of non-serial events
// becomes a batch whose events are grouped per domain (each group keeps
// frame order) and executed by the pool, one goroutine per domain.
// Events scheduled during a batch are buffered per scheduling domain,
// tagged with the frame index of the event that scheduled them. After
// the barrier the buffers are merged by walking the batch's frame
// indices in order and popping each executing domain's buffer: because
// one worker runs a domain's events sequentially, each buffer is
// already (parent frame index, birth order)-sorted, so the merge visits
// new events in exactly the order the serial engine would have created
// them and assigns seq numbers accordingly. Delay-0 children land back
// in the current bucket and feed the next wave of the same cycle.
//
// The serial fast path is untouched: with workers <= 1, Engine.par is
// nil and Run/Schedule/Cancel never take a lock, touch an atomic or
// start a goroutine.
package sim

import (
	"container/heap"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Domain identifies an ownership domain for parallel execution.
// DomainSerial is the default for everything scheduled directly on the
// Engine; events of non-serial domains may fire concurrently with
// same-cycle events of other domains.
type Domain int32

// DomainSerial is the global serial domain: its events run alone and
// may touch any simulator state.
const DomainSerial Domain = 0

// parMinBatch is the minimum number of live events in a same-cycle
// segment for it to be worth dispatching to the pool; smaller segments
// (and segments whose events all share one domain) run inline on the
// coordinator, which is trivially bit-identical and avoids the wakeup
// round-trip.
const parMinBatch = 4

// domFreeCap caps each domain's private event free list; overflow goes
// to the engine's global list (coordinator only).
const domFreeCap = 64

// Sched is a scheduling handle owned by one domain. It is the only
// legal way to schedule or cancel events from inside a concurrently
// executing (non-serial) event; outside a batch it behaves exactly like
// the plain Engine methods, just annotating the owner domain. Handles
// must be created before Run starts.
type Sched struct {
	eng *Engine
	dom Domain
}

// NewSched returns a scheduling handle that stamps events with domain
// d. Call once per component at build time.
func (e *Engine) NewSched(d Domain) Sched {
	if d < 0 {
		panic("sim: negative domain")
	}
	if int(d) > e.maxDom {
		e.maxDom = int(d)
	}
	return Sched{eng: e, dom: d}
}

// Engine returns the underlying engine (for serial-context use only).
func (s Sched) Engine() *Engine { return s.eng }

// Domain returns the handle's owner domain.
func (s Sched) Domain() Domain { return s.dom }

// Now returns the current cycle. The clock is frozen while any batch
// executes, so this is safe from worker context.
func (s Sched) Now() uint64 { return s.eng.now }

// Halted reports the pending halt error. Reads are safe from worker
// context only in the sense that halts are never raised there; it is
// meant for serial-context checks.
func (s Sched) Halted() error { return s.eng.halt }

// Schedule runs fn delay cycles from now in the handle's own domain.
func (s Sched) Schedule(delay uint64, fn func()) *Event {
	if fn == nil {
		panic("sim: Schedule called with nil fn")
	}
	return s.scheduleIn(s.dom, delay, fn, nil)
}

// ScheduleRunner runs r delay cycles from now in the handle's own
// domain.
func (s Sched) ScheduleRunner(delay uint64, r Runner) *Event {
	if r == nil {
		panic("sim: ScheduleRunner called with nil Runner")
	}
	return s.scheduleIn(s.dom, delay, nil, r)
}

// ScheduleRunnerIn runs r delay cycles from now in the given target
// domain (e.g. a node handing a message to the serial directory, or a
// serial response handler scheduling a retry back into a node domain).
func (s Sched) ScheduleRunnerIn(target Domain, delay uint64, r Runner) *Event {
	if r == nil {
		panic("sim: ScheduleRunnerIn called with nil Runner")
	}
	if target < 0 {
		panic("sim: negative target domain")
	}
	return s.scheduleIn(target, delay, nil, r)
}

func (s Sched) scheduleIn(target Domain, delay uint64, fn func(), r Runner) *Event {
	e := s.eng
	p := e.par
	if p == nil || !p.inBatch {
		return e.insertDom(target, delay, fn, r)
	}
	// Worker context: buffer in the scheduling domain's staging list.
	// ev.seq temporarily holds the parent frame index; the coordinator
	// assigns the real seq at merge time.
	ds := &p.doms[s.dom]
	var ev *Event
	if n := len(ds.free); n > 0 {
		ev = ds.free[n-1]
		ds.free[n-1] = nil
		ds.free = ds.free[:n-1]
	} else {
		ev = &Event{}
	}
	ev.cycle = e.now + delay
	ev.seq = uint64(ds.curParent)
	ev.fn = fn
	ev.run = r
	ev.dom = target
	ev.index = idxStaged
	ds.staged = append(ds.staged, ev)
	return ev
}

// Cancel removes a scheduled event. From worker context only events
// owned by (or staged by) the handle's own domain may be cancelled:
// frame/staged events are marked dead in place, wheel and far events
// are marked immediately and unlinked by the coordinator at the merge.
func (s Sched) Cancel(ev *Event) {
	if ev == nil {
		return
	}
	e := s.eng
	p := e.par
	if p == nil || !p.inBatch {
		e.Cancel(ev)
		return
	}
	ds := &p.doms[s.dom]
	switch ev.index {
	case idxStaged:
		// Stays in the staging list: the merge still assigns its seq (the
		// serial engine would have consumed one) but recycles it instead
		// of inserting it.
		ev.index = idxCancelled
		ev.fn = nil
		ev.run = nil
	case idxFrame:
		// A later same-domain event of this frame: the group walker skips
		// it, the coordinator recycles it with the rest of the frame.
		ev.index = idxCancelled
		ev.fn = nil
		ev.run = nil
	case idxWheel:
		ev.index = idxCancelled
		ev.fn = nil
		ev.run = nil
		ds.cancels = append(ds.cancels, stagedCancel{ev: ev, far: false})
	case idxFired, idxCancelled:
		// no-op
	default: // far heap position
		ev.index = idxCancelled
		ev.fn = nil
		ev.run = nil
		ds.cancels = append(ds.cancels, stagedCancel{ev: ev, far: true})
	}
}

// stagedCancel defers the queue unlink of a cancel issued from worker
// context to the coordinator's merge step.
type stagedCancel struct {
	ev  *Event
	far bool
}

// frameEvt pairs a frame event with its frame index (the merge key for
// events it schedules).
type frameEvt struct {
	ev *Event
	fi int32
}

// domState is the per-domain execution state. During a batch it is
// touched only by the single worker running that domain (events and
// groups are laid out by the coordinator before the wakeup, and read
// back after the barrier).
type domState struct {
	events    []frameEvt     // this domain's slice of the current batch
	staged    []*Event       // events scheduled during the batch, birth order
	cancels   []stagedCancel // deferred queue unlinks
	free      []*Event       // private event free list
	curParent int32          // frame index of the event currently running
	executed  uint64         // events actually fired this batch
	mc        int            // merge cursor into staged
}

// parState is the parallel executor: worker pool, per-domain state and
// the frame/group scratch of the current cycle.
type parState struct {
	eng     *Engine
	workers int // total, including the coordinating goroutine

	doms   []domState
	frame  []*Event
	groups []Domain

	// inBatch is written by the coordinator around each pool dispatch
	// (the epoch/joined atomics provide the happens-before edges) and
	// read by Sched calls to pick the staging path.
	inBatch bool

	cursor     atomic.Int64  // next group index to claim
	groupsDone atomic.Int32  // groups fully executed this batch
	epoch      atomic.Uint64 // odd = batch open, even = closed
	joined     atomic.Int32  // workers currently inside the batch
	stop       atomic.Bool   // tells workers to exit
	parked     []atomic.Bool // worker i is blocked on park[i]
	park       []chan struct{}
	started    bool
	wg         sync.WaitGroup

	// panicked holds the first panic raised by an event on a worker
	// goroutine; the coordinator re-raises it after the batch barrier, so
	// it reaches Run's caller instead of crashing the process.
	panicked atomic.Pointer[any]

	// Coordinator-only wake throttling. On a host with no spare cores
	// (GOMAXPROCS=1, or every core busy with sweep cells) the spawned
	// workers never get scheduled inside a batch window, so unparking
	// them every batch is pure overhead: after wakeIdleLimit consecutive
	// batches fully executed by the coordinator the wakes pause, and a
	// periodic probe keeps checking whether cores have freed up. Which
	// goroutine runs a group never affects results, so the throttle is
	// invisible to determinism.
	selfClaims int
	workerIdle int
	batchNo    uint64
}

// SetWorkers selects the execution mode for subsequent Run calls:
// n <= 1 restores the serial engine (the zero-overhead default), n > 1
// enables the parallel executor with n-1 spawned workers plus the
// calling goroutine. Must not be called while Run is active.
func (e *Engine) SetWorkers(n int) {
	if e.par != nil && e.par.started {
		panic("sim: SetWorkers while Run is active")
	}
	if n <= 1 {
		e.par = nil
		return
	}
	e.par = &parState{eng: e, workers: n}
}

// Workers returns the configured worker count (1 = serial).
func (e *Engine) Workers() int {
	if e.par == nil {
		return 1
	}
	return e.par.workers
}

// parkSpins is how many failed epoch checks (each yielding the
// processor) a worker tolerates before blocking on its park channel.
const parkSpins = 64

// wakeIdleLimit and wakeProbeMask tune the wake throttle: after
// wakeIdleLimit consecutive all-coordinator batches, parked workers are
// only unparked every wakeProbeMask+1 batches.
const (
	wakeIdleLimit = 8
	wakeProbeMask = 255
)

func (p *parState) startWorkers() {
	n := p.workers - 1
	if len(p.doms) <= p.eng.maxDom {
		p.doms = make([]domState, p.eng.maxDom+1)
	}
	p.parked = make([]atomic.Bool, n)
	p.park = make([]chan struct{}, n)
	for i := range p.park {
		p.park[i] = make(chan struct{}, 1)
	}
	p.stop.Store(false)
	p.started = true
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		go p.workerLoop(i)
	}
}

func (p *parState) stopWorkers() {
	p.stop.Store(true)
	for i := range p.park {
		if p.parked[i].CompareAndSwap(true, false) {
			p.park[i] <- struct{}{}
		}
	}
	p.wg.Wait()
	p.started = false
}

// workerLoop spins on the batch epoch, joins open batches, and parks
// after enough idle passes. The join protocol (joined.Add around a
// re-checked epoch load) lets the coordinator close a batch without
// ever waiting for workers to arrive: a worker that joins late sees the
// closed epoch and backs straight out.
func (p *parState) workerLoop(id int) {
	defer p.wg.Done()
	var lastSeen uint64
	spins := 0
	for {
		if p.stop.Load() {
			return
		}
		e := p.epoch.Load()
		if e&1 == 0 || e == lastSeen {
			spins++
			if spins < parkSpins {
				runtime.Gosched()
				continue
			}
			spins = 0
			// Park. Publish the flag first, then re-check for a batch or a
			// stop that raced with the publication; if the racing side
			// already consumed the flag, its token is in flight — take it.
			p.parked[id].Store(true)
			if e2 := p.epoch.Load(); (e2&1 == 1 && e2 != lastSeen) || p.stop.Load() {
				if !p.parked[id].CompareAndSwap(true, false) {
					<-p.park[id]
				}
				continue
			}
			<-p.park[id]
			continue
		}
		lastSeen = e
		spins = 0
		p.joined.Add(1)
		if p.epoch.Load() == e {
			p.work()
		}
		p.joined.Add(-1)
	}
}

// work claims domain groups off the shared cursor until the batch is
// exhausted. Called by workers that joined the open batch. A panicking
// event ends the worker's share of the batch; its group still counts as
// done so the barrier closes.
func (p *parState) work() {
	defer func() {
		if rec := recover(); rec != nil {
			v := rec // declared here so only a panic pays its heap escape
			p.panicked.CompareAndSwap(nil, &v)
			p.groupsDone.Add(1)
		}
	}()
	for {
		t := int(p.cursor.Add(1)) - 1
		if t >= len(p.groups) {
			return
		}
		p.runGroup(p.groups[t])
		p.groupsDone.Add(1)
	}
}

// coordWork is work for the coordinator: it also counts the groups it
// claimed itself, which feeds the wake throttle.
func (p *parState) coordWork() {
	for {
		t := int(p.cursor.Add(1)) - 1
		if t >= len(p.groups) {
			return
		}
		p.runGroup(p.groups[t])
		p.groupsDone.Add(1)
		p.selfClaims++
	}
}

// wakeParked unparks blocked workers for the batch just opened, subject
// to the throttle. Spinning workers join via the epoch alone and are
// never throttled.
func (p *parState) wakeParked() {
	if p.workerIdle >= wakeIdleLimit && p.batchNo&wakeProbeMask != 0 {
		return
	}
	need := len(p.groups) - 1
	for i := range p.park {
		if need <= 0 {
			return
		}
		if p.parked[i].CompareAndSwap(true, false) {
			p.park[i] <- struct{}{}
			need--
		}
	}
}

// runGroup fires one domain's slice of the batch, in frame order.
func (p *parState) runGroup(d Domain) {
	ds := &p.doms[d]
	for _, fe := range ds.events {
		ev := fe.ev
		if ev.index == idxCancelled {
			continue
		}
		ds.curParent = fe.fi
		ev.index = idxFired
		ds.executed++
		if r := ev.run; r != nil {
			r.Run()
		} else {
			ev.fn()
		}
	}
}

// runParallel is the parallel counterpart of the serial Run loop.
func (e *Engine) runParallel(limit uint64) (uint64, error) {
	p := e.par
	p.startWorkers()
	defer p.stopWorkers()
	start := e.fired
	for {
		if e.halt != nil {
			err := e.halt
			e.halt = nil
			return e.fired - start, err
		}
		c, ok := e.nextCycle()
		if !ok {
			break
		}
		if limit != 0 && c > limit {
			return e.fired - start, fmt.Errorf("sim: cycle limit %d reached with %d events pending at cycle %d",
				limit, e.Pending(), c)
		}
		if c > e.now {
			e.now = c
			e.migrate()
		}
		e.runCycleParallel()
	}
	if e.halt != nil {
		err := e.halt
		e.halt = nil
		return e.fired - start, err
	}
	return e.fired - start, nil
}

// runCycleParallel fires every event at cycle now, in waves: drain the
// bucket into the frame, execute it in seq order (serial events inline,
// non-serial segments on the pool), merge, and repeat while delay-0
// children keep refilling the bucket.
func (e *Engine) runCycleParallel() {
	p := e.par
	bi := int(uint(e.now) & wheelMask)
	b := &e.buckets[bi]
	for b.head != nil {
		frame := p.frame[:0]
		for ev := b.head; ev != nil; {
			nx := ev.next
			ev.next, ev.prev = nil, nil
			ev.index = idxFrame
			frame = append(frame, ev)
			ev = nx
		}
		b.head, b.tail = nil, nil
		e.occ[bi>>6] &^= 1 << uint(bi&63)
		e.wheelCount -= len(frame)
		p.frame = frame

		k := 0
		for k < len(frame) {
			ev := frame[k]
			if ev.index == idxCancelled {
				e.release(ev)
				k++
				continue
			}
			if e.halt != nil {
				e.requeue(frame[k:])
				return
			}
			if ev.dom == DomainSerial {
				k++
				ev.index = idxFired
				e.fired++
				e.waves.note(DomainSerial, e.now)
				if r := ev.run; r != nil {
					r.Run()
				} else {
					ev.fn()
				}
				ev.fn = nil
				ev.run = nil
				e.release(ev)
				continue
			}
			j := k + 1
			for j < len(frame) && frame[j].dom != DomainSerial {
				j++
			}
			if h := e.runBatch(frame, k, j); h >= 0 {
				e.requeue(frame[h:])
				return
			}
			k = j
		}
	}
}

// runBatch executes frame[k:j] (all non-serial). Segments with a single
// distinct domain or below parMinBatch live events run inline in frame
// order — bit-identical trivially and free of pool overhead. Larger
// segments dispatch to the pool and merge. Returns the frame index of
// the first unfired event if a halt interrupted the inline path, else
// -1.
func (e *Engine) runBatch(frame []*Event, k, j int) int {
	p := e.par
	live := 0
	for idx := k; idx < j; idx++ {
		ev := frame[idx]
		if ev.index == idxCancelled {
			continue
		}
		ds := &p.doms[ev.dom]
		if len(ds.events) == 0 {
			p.groups = append(p.groups, ev.dom)
		}
		ds.events = append(ds.events, frameEvt{ev: ev, fi: int32(idx)})
		e.waves.note(ev.dom, e.now)
		live++
	}
	if len(p.groups) <= 1 || live < parMinBatch {
		for _, g := range p.groups {
			ds := &p.doms[g]
			ds.events = ds.events[:0]
		}
		p.groups = p.groups[:0]
		for idx := k; idx < j; idx++ {
			ev := frame[idx]
			if ev.index == idxCancelled {
				e.release(ev)
				continue
			}
			if e.halt != nil {
				return idx
			}
			ev.index = idxFired
			e.fired++
			if r := ev.run; r != nil {
				r.Run()
			} else {
				ev.fn()
			}
			ev.fn = nil
			ev.run = nil
			e.release(ev)
		}
		return -1
	}

	// Rebalance event reuse across domains before dispatch. Routing
	// deliveries into destination domains makes some domains net
	// producers of free events (a bank fires a request and an unblock
	// but stages only the response) and others net consumers (a core
	// fires one response and stages the next request plus its unblock),
	// so the private free lists alone would drain on the consumer side
	// and allocate every staged event. The coordinator is the only
	// context that may touch the global list; top each group up to its
	// expected staging demand here, and let the per-domain refill
	// overflow drain back to the global list after the merge.
	for _, g := range p.groups {
		ds := &p.doms[g]
		want := 2 * len(ds.events)
		if want > domFreeCap {
			want = domFreeCap
		}
		for len(ds.free) < want && len(e.free) > 0 {
			n := len(e.free) - 1
			ds.free = append(ds.free, e.free[n])
			e.free[n] = nil
			e.free = e.free[:n]
		}
	}

	// Pool dispatch. Opening the batch is a handful of atomics: reset
	// the claim cursor, bump the epoch to odd (the store publishes the
	// groups laid out above), unpark workers if the throttle allows, and
	// participate. The coordinator never waits for a worker to *arrive*:
	// on a host with no spare cores it claims every group itself and the
	// close below is immediate. The close (epoch back to even, joined
	// drained to zero) is the barrier: after it no worker can touch the
	// per-domain state, and everything workers wrote is visible here.
	p.inBatch = true
	p.cursor.Store(0)
	p.groupsDone.Store(0)
	p.selfClaims = 0
	p.epoch.Add(1) // odd: batch open
	p.wakeParked()
	p.batchNo++
	p.coordWork()
	for p.groupsDone.Load() != int32(len(p.groups)) {
		runtime.Gosched() // a worker owns the remaining groups; let it run
	}
	p.epoch.Add(1) // even: batch closed
	for p.joined.Load() != 0 {
		runtime.Gosched() // drain late joiners before touching shared state
	}
	p.inBatch = false
	if v := p.panicked.Swap(nil); v != nil {
		panic(*v)
	}
	if p.selfClaims == len(p.groups) {
		p.workerIdle++
	} else {
		p.workerIdle = 0
	}

	// Deferred cancels first, so the queues are consistent before the
	// staged inserts below.
	for _, g := range p.groups {
		ds := &p.doms[g]
		e.fired += ds.executed
		ds.executed = 0
		for ci := range ds.cancels {
			c := ds.cancels[ci]
			ds.cancels[ci] = stagedCancel{}
			if c.far {
				for fi := range e.far {
					if e.far[fi] == c.ev {
						heap.Remove(&e.far, fi)
						break
					}
				}
				c.ev.index = idxCancelled
			} else {
				e.wheelRemove(c.ev)
			}
			e.release(c.ev)
		}
		ds.cancels = ds.cancels[:0]
	}

	// Merge: walk the batch's frame indices in order; each executing
	// domain's staging list is (parent, birth)-sorted, so popping by
	// parent index reproduces the serial engine's creation order and the
	// seq assignment below is exactly what the serial engine would have
	// produced.
	for idx := k; idx < j; idx++ {
		ev := frame[idx]
		if ev.index == idxCancelled {
			continue // never ran, has no children
		}
		ds := &p.doms[ev.dom]
		for ds.mc < len(ds.staged) && ds.staged[ds.mc].seq == uint64(idx) {
			sev := ds.staged[ds.mc]
			ds.staged[ds.mc] = nil
			ds.mc++
			sev.seq = e.seq
			e.seq++
			if sev.index == idxCancelled {
				e.release(sev)
				continue
			}
			if sev.cycle-e.now < wheelSize {
				e.wheelAdd(sev)
			} else {
				heap.Push(&e.far, sev)
			}
		}
	}

	// Recycle the frame slice of this batch and reset the groups. Fired
	// events refill their own domain's free list so staging stays
	// allocation-free in steady state.
	for idx := k; idx < j; idx++ {
		ev := frame[idx]
		ev.fn = nil
		ev.run = nil
		ds := &p.doms[ev.dom]
		if len(ds.free) < domFreeCap {
			ds.free = append(ds.free, ev)
		} else {
			e.release(ev)
		}
	}
	for _, g := range p.groups {
		ds := &p.doms[g]
		if ds.mc != len(ds.staged) {
			panic("sim: staged events left unmerged (event scheduled outside its executing domain?)")
		}
		ds.events = ds.events[:0]
		ds.staged = ds.staged[:0]
		ds.mc = 0
	}
	p.groups = p.groups[:0]
	return -1
}

// requeue pushes not-yet-fired frame events back onto the front of the
// current bucket (halt path), ahead of any delay-0 children appended by
// earlier segments of this wave — which all carry larger seqs — so the
// bucket stays seq-sorted and Pending() matches the serial engine.
func (e *Engine) requeue(evs []*Event) {
	bi := int(uint(e.now) & wheelMask)
	b := &e.buckets[bi]
	for k := len(evs) - 1; k >= 0; k-- {
		ev := evs[k]
		if ev.index == idxCancelled {
			e.release(ev)
			continue
		}
		ev.prev = nil
		ev.next = b.head
		if b.head != nil {
			b.head.prev = ev
		} else {
			b.tail = ev
		}
		b.head = ev
		ev.index = idxWheel
		e.wheelCount++
	}
	if b.head != nil {
		e.occ[bi>>6] |= 1 << uint(bi&63)
	}
}
