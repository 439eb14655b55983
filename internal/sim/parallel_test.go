package sim

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// The synthetic workload below mimics the machine's event shapes: per
// node a stream of self-rescheduling events (delay 0..3), requests into
// the serial hub which answers back into the node's domain, occasional
// far delays past the wheel horizon, and an armed-then-cancelled timer.
// Every observable — each node's private log, the hub's order-sensitive
// log, Fired(), Now() — must be bit-identical at any worker count.

type phub struct {
	sched Sched
	log   []uint64
}

type preq struct {
	hub   *phub
	node  *pnode
	delay uint64
}

func (r *preq) Run() {
	h := r.hub
	// The hub log captures the global firing order of serial events: a
	// merge-order bug between domains shows up here immediately.
	h.log = append(h.log, h.sched.Now()<<8|uint64(r.node.id))
	h.sched.ScheduleRunnerIn(r.node.sched.Domain(), r.delay, &presp{node: r.node})
}

type presp struct{ node *pnode }

func (r *presp) Run() { r.node.fire(2) }

type pnode struct {
	sched Sched
	hub   *phub
	id    int
	rng   uint64
	ops   int
	log   []uint64
	timer *Event
	tick  ptick
	self  pself
}

type ptick struct{ node *pnode }

func (t *ptick) Run() {
	n := t.node
	n.timer = nil
	n.log = append(n.log, n.sched.Now()<<8|7)
}

type pself struct{ node *pnode }

func (s *pself) Run() { s.node.fire(1) }

func (n *pnode) next() uint64 {
	n.rng = n.rng*6364136223846793005 + 1442695040888963407
	return n.rng >> 33
}

func (n *pnode) fire(kind uint64) {
	n.log = append(n.log, n.sched.Now()<<8|kind)
	if n.timer != nil {
		n.sched.Cancel(n.timer)
		n.timer = nil
	}
	if n.ops <= 0 {
		return
	}
	n.ops--
	switch n.next() % 5 {
	case 0, 1:
		n.sched.ScheduleRunner(n.next()%4, &n.self)
	case 2:
		n.sched.ScheduleRunnerIn(DomainSerial, 1+n.next()%3,
			&preq{hub: n.hub, node: n, delay: 1 + n.next()%4})
	case 3:
		// Arm a timer, then keep going; a later fire cancels it while it
		// sits in the wheel (or, with delay 0, in the current frame).
		n.timer = n.sched.ScheduleRunner(n.next()%8, &n.tick)
		n.sched.ScheduleRunner(1, &n.self)
	case 4:
		n.sched.ScheduleRunner(wheelSize+n.next()%70, &n.self)
	}
}

type pworld struct {
	eng   *Engine
	hub   *phub
	nodes []*pnode
}

func buildWorld(nodes, ops int, workers int) *pworld {
	w := &pworld{eng: &Engine{}}
	w.eng.SetWorkers(workers)
	w.hub = &phub{sched: w.eng.NewSched(DomainSerial)}
	for i := 0; i < nodes; i++ {
		n := &pnode{
			sched: w.eng.NewSched(Domain(1 + i)),
			hub:   w.hub,
			id:    i,
			rng:   uint64(i)*977 + 13,
			ops:   ops,
		}
		n.tick.node = n
		n.self.node = n
		w.nodes = append(w.nodes, n)
		w.eng.ScheduleRunner(uint64(i%3), &pself{node: n})
	}
	return w
}

func runWorld(t *testing.T, nodes, ops, workers int) (*pworld, uint64) {
	t.Helper()
	w := buildWorld(nodes, ops, workers)
	fired, err := w.eng.Run(0)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return w, fired
}

func TestParallelMatchesSerial(t *testing.T) {
	const nodes, ops = 16, 400
	ref, refFired := runWorld(t, nodes, ops, 1)
	for _, workers := range []int{2, 4, 8} {
		got, gotFired := runWorld(t, nodes, ops, workers)
		if gotFired != refFired {
			t.Errorf("workers=%d: fired %d, want %d", workers, gotFired, refFired)
		}
		if got.eng.Now() != ref.eng.Now() {
			t.Errorf("workers=%d: final cycle %d, want %d", workers, got.eng.Now(), ref.eng.Now())
		}
		if fmt.Sprint(got.hub.log) != fmt.Sprint(ref.hub.log) {
			t.Errorf("workers=%d: hub log diverged", workers)
		}
		for i := range got.nodes {
			if fmt.Sprint(got.nodes[i].log) != fmt.Sprint(ref.nodes[i].log) {
				t.Errorf("workers=%d: node %d log diverged", workers, i)
			}
		}
	}
}

// TestParallelSerialCancelsFrameEvent pins the idxFrame path: a serial
// event cancels a same-cycle event that is already drained into the
// frame but not yet fired.
func TestParallelSerialCancelsFrameEvent(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var e Engine
		e.SetWorkers(workers)
		nd := e.NewSched(1)
		ran := false
		// Order at cycle 0: serial canceller (seq 0) fires first, then
		// the node event must be gone.
		var victim *Event
		e.Schedule(0, func() { e.Cancel(victim) })
		victim = nd.ScheduleRunner(0, runnerFunc(func() { ran = true }))
		if _, err := e.Run(0); err != nil {
			t.Fatal(err)
		}
		if ran {
			t.Errorf("workers=%d: cancelled frame event ran", workers)
		}
		if !victim.Cancelled() {
			t.Errorf("workers=%d: victim not marked cancelled", workers)
		}
	}
}

type runnerFunc func()

func (f runnerFunc) Run() { f() }

// TestParallelHaltRequeues checks that a halt raised by a serial event
// mid-cycle leaves the same Pending() count as the serial engine.
func TestParallelHaltRequeues(t *testing.T) {
	count := func(workers int) (int, uint64) {
		var e Engine
		e.SetWorkers(workers)
		nd := e.NewSched(1)
		nop := runnerFunc(func() {})
		for i := 0; i < 6; i++ {
			nd.ScheduleRunner(2, nop)
		}
		e.Schedule(2, func() { e.Halt(fmt.Errorf("stop")) })
		for i := 0; i < 6; i++ {
			nd.ScheduleRunner(2, nop)
		}
		nd.ScheduleRunner(9, nop)
		if _, err := e.Run(0); err == nil {
			t.Fatalf("workers=%d: expected halt error", workers)
		}
		return e.Pending(), e.Fired()
	}
	wantPending, wantFired := count(1)
	gotPending, gotFired := count(4)
	if gotPending != wantPending || gotFired != wantFired {
		t.Errorf("halt state: got pending=%d fired=%d, want pending=%d fired=%d",
			gotPending, gotFired, wantPending, wantFired)
	}
}

// TestParallelDirectScheduleDuringBatchPanics pins the migration guard:
// raw Engine scheduling from worker context is a bug, not a race.
func TestParallelDirectScheduleDuringBatchPanics(t *testing.T) {
	var e Engine
	e.SetWorkers(4)
	sd := make([]Sched, 8)
	for i := range sd {
		sd[i] = e.NewSched(Domain(1 + i))
	}
	panicked := make(chan any, 8)
	bad := runnerFunc(func() {
		defer func() { panicked <- recover() }()
		e.Schedule(1, func() {})
	})
	for i := range sd {
		sd[i].ScheduleRunner(0, bad)
	}
	e.Run(0)
	close(panicked)
	saw := false
	for v := range panicked {
		if v != nil {
			saw = true
		}
	}
	if !saw {
		t.Error("direct Engine.Schedule during a batch did not panic")
	}
}

// TestSerialModeStartsNoGoroutines pins the workers=1 guard: the serial
// engine must not spawn anything.
func TestSerialModeStartsNoGoroutines(t *testing.T) {
	var e Engine
	e.SetWorkers(1)
	if e.par != nil {
		t.Fatal("workers=1 left parallel state armed")
	}
	n := 0
	e.Schedule(1, func() { n++ })
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatal("event did not run")
	}
}

// ---------- delivery-merge oracle ----------
//
// The barrier-free delivery refactor routes directory→core and
// core→directory messages into their destination's domain, so the
// staged-merge discipline now carries deliveries, not just node-local
// work. The tests below pin the two shapes that matter: same-cycle
// deliveries from several source domains converging on one destination
// domain, and counterflowing hops (core→bank and bank→core) fired from
// the same wave.

// dmDelivery is one staged cross-domain message: it appends its tag to
// the destination's log when it runs there.
type dmDelivery struct {
	log *[]uint64
	now func() uint64
	tag uint64
}

func (d *dmDelivery) Run() { *d.log = append(*d.log, d.now()<<16|d.tag) }

// dmSender fires in a source domain and schedules deliveries into a
// destination domain, mimicking a dirBank answering cores (or a core
// messaging its bank).
type dmSender struct {
	sched   Sched
	dest    Domain
	log     *[]uint64
	tagBase uint64
	sends   []uint64 // delivery delays
}

func (s *dmSender) Run() {
	for i, delay := range s.sends {
		s.sched.ScheduleRunnerIn(s.dest, delay,
			&dmDelivery{log: s.log, now: s.sched.Now, tag: s.tagBase + uint64(i)})
	}
}

// runConverge schedules, for a handful of cycles, one sender in each of
// two "bank" domains targeting the same "core" domain with overlapping
// delays, and returns the core's delivery log.
func runConverge(t *testing.T, workers int) []uint64 {
	t.Helper()
	var eng Engine
	eng.SetWorkers(workers)
	core := eng.NewSched(1)
	bankA := eng.NewSched(2)
	bankB := eng.NewSched(3)
	_ = core

	var coreLog []uint64
	for c := uint64(0); c < 8; c++ {
		// Same cycle, both banks, colliding delivery delays: the merge
		// must order the staged deliveries by (parent frame position,
		// per-parent order), never by worker timing.
		bankA.ScheduleRunnerIn(bankA.Domain(), c, &dmSender{
			sched: bankA, dest: 1, log: &coreLog,
			tagBase: 100 * (c + 1), sends: []uint64{2, 1, 2},
		})
		bankB.ScheduleRunnerIn(bankB.Domain(), c, &dmSender{
			sched: bankB, dest: 1, log: &coreLog,
			tagBase: 100*(c+1) + 50, sends: []uint64{1, 2, 1},
		})
	}
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	return coreLog
}

// TestParallelDeliveryConvergeDeterministic pins the first shape:
// same-cycle deliveries from two bank domains into one core domain
// arrive in an order that is bit-identical at any worker count.
func TestParallelDeliveryConvergeDeterministic(t *testing.T) {
	ref := runConverge(t, 1)
	if len(ref) == 0 {
		t.Fatal("no deliveries recorded")
	}
	for _, workers := range []int{2, 4, 8} {
		got := runConverge(t, workers)
		if fmt.Sprint(got) != fmt.Sprint(ref) {
			t.Errorf("workers=%d: delivery order diverged\nserial:   %v\nparallel: %v",
				workers, ref, got)
		}
	}
}

// runCounterflow fires a core-domain sender and a bank-domain sender in
// the same cycle — the same wave under the parallel engine — each
// delivering into the other's domain, and returns both logs plus the
// engine's wave accounting.
func runCounterflow(t *testing.T, workers int) (coreLog, bankLog []uint64, events, waves, serial uint64) {
	t.Helper()
	var eng Engine
	eng.SetWorkers(workers)
	core := eng.NewSched(1)
	bank := eng.NewSched(2)

	for c := uint64(0); c < 6; c++ {
		core.ScheduleRunnerIn(core.Domain(), c, &dmSender{
			sched: core, dest: bank.Domain(), log: &bankLog,
			tagBase: 10 * (c + 1), sends: []uint64{1, 3},
		})
		bank.ScheduleRunnerIn(bank.Domain(), c, &dmSender{
			sched: bank, dest: core.Domain(), log: &coreLog,
			tagBase: 10*(c+1) + 5, sends: []uint64{3, 1},
		})
	}
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	events, waves, serial = eng.WaveStats()
	return
}

// TestParallelDeliveryCounterflowSameWave pins the second shape:
// core→bank and bank→core hops issued from the same wave land
// deterministically on both sides, none of it needs a serial frame, and
// the wave accounting shows the two domains actually batched together.
func TestParallelDeliveryCounterflowSameWave(t *testing.T) {
	refCore, refBank, refEvents, refWaves, refSerial := runCounterflow(t, 1)
	if len(refCore) == 0 || len(refBank) == 0 {
		t.Fatal("no deliveries recorded")
	}
	if refSerial != 0 {
		t.Fatalf("counterflow traffic recorded %d serial events, want 0", refSerial)
	}
	if refWaves >= refEvents {
		t.Fatalf("events=%d waves=%d: same-cycle cross-domain work never batched", refEvents, refWaves)
	}
	for _, workers := range []int{2, 8} {
		core, bank, events, waves, serial := runCounterflow(t, workers)
		if fmt.Sprint(core) != fmt.Sprint(refCore) || fmt.Sprint(bank) != fmt.Sprint(refBank) {
			t.Errorf("workers=%d: logs diverged from serial", workers)
		}
		if events != refEvents || waves != refWaves || serial != refSerial {
			t.Errorf("workers=%d: WaveStats (%d,%d,%d), want (%d,%d,%d)",
				workers, events, waves, serial, refEvents, refWaves, refSerial)
		}
	}
}

// TestParallelWorkerPanicReachesRun pins panic propagation: an event
// panicking on a worker goroutine must surface from Run on the caller's
// goroutine, not crash the process. The two panicking events rendezvous
// first, so one of them runs on a worker whatever the claim order.
func TestParallelWorkerPanicReachesRun(t *testing.T) {
	var e Engine
	e.SetWorkers(2)
	var started atomic.Int32
	boom := runnerFunc(func() {
		started.Add(1)
		for started.Load() < 2 {
			runtime.Gosched()
		}
		panic("boom")
	})
	for d := Domain(1); d <= 4; d++ {
		r := Runner(runnerFunc(func() {}))
		if d <= 2 {
			r = boom
		}
		e.NewSched(d).ScheduleRunner(0, r)
	}
	defer func() {
		if rec := recover(); rec != "boom" {
			t.Fatalf("Run panicked with %v, want boom", rec)
		}
	}()
	e.Run(0)
	t.Fatal("Run returned normally")
}
