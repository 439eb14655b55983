//go:build go1.23

// The build constraint raises this file's language version to go1.23
// for iter.Pull while go.mod stays at go 1.22, the version modules that
// replace-require this one still declare.

package machine

import (
	"fmt"
	"iter"
	"strings"
	"sync/atomic"

	"chats/internal/htm"
	"chats/internal/mem"
	"chats/internal/sim"
)

// Ctx is the API a workload thread programs against. All memory methods
// act on simulated memory and advance simulated time; Atomic runs its
// body as a hardware transaction with the configured retry and fallback
// behavior.
type Ctx interface {
	// TID is this thread's id (0-based).
	TID() int
	// Threads is the number of threads in the run.
	Threads() int
	// Rand is this thread's deterministic PRNG.
	Rand() *sim.Rand
	// Atomic executes body atomically: as a hardware transaction with
	// retries, escalating to the power token or the global fallback lock
	// per the system's configuration. The body may run multiple times and
	// must keep mutable state in simulated memory or in per-attempt
	// locals.
	Atomic(body func(tx Tx))
	// Load reads a word non-transactionally.
	Load(a mem.Addr) uint64
	// Store writes a word non-transactionally.
	Store(a mem.Addr, v uint64)
	// Work consumes n cycles of computation.
	Work(n uint64)
}

// Tx is the handle the Atomic body uses. Inside a hardware transaction
// the accesses are speculative; on the fallback path they are plain
// accesses protected by the global lock.
type Tx interface {
	Load(a mem.Addr) uint64
	Store(a mem.Addr, v uint64)
	Work(n uint64)
	TID() int
	Rand() *sim.Rand
	// Fallback reports whether this execution runs on the software
	// fallback path rather than speculatively.
	Fallback() bool
}

// txAbort unwinds the Atomic body when the transaction dies.
type txAbort struct{}

// killedSignal unwinds a thread when the simulation is torn down.
type killedSignal struct{}

type opKind uint8

const (
	opLoad opKind = iota
	opStore
	opCAS
	opWork
	opBegin
	opCommit
	opAbortAck
	opEnterFallback
	opExitFallback
	opAcquirePower
	opReleasePower
	opFallbackBodyStart
	opAcquireLock
)

// opNames names the ops in error messages.
var opNames = [...]string{
	opLoad:              "load",
	opStore:             "store",
	opCAS:               "cas",
	opWork:              "work",
	opBegin:             "begin",
	opCommit:            "commit",
	opAbortAck:          "abort-ack",
	opEnterFallback:     "enter-fallback",
	opExitFallback:      "exit-fallback",
	opAcquirePower:      "acquire-power",
	opReleasePower:      "release-power",
	opFallbackBodyStart: "fallback-body-start",
	opAcquireLock:       "acquire-lock",
}

func (k opKind) String() string { return opNames[k] }

type opReq struct {
	kind    opKind
	addr    mem.Addr
	val     uint64
	val2    uint64
	inTx    bool
	power   bool
	attempt int
}

type opReply struct {
	val     uint64
	aborted bool
	ok      bool
	swapped bool
	cause   htm.AbortCause
}

// tctxTimer is the payload for the thread ops that are pure delays
// (work, abort ack, fallback transitions, power handoff). One per
// thread: a suspended thread has at most one op pending.
type tctxTimer struct {
	t     *tctx
	op    opKind
	ok    bool
	cause htm.AbortCause
	ev    *sim.Event // the pending delay, valid until it fires; tests cancel it to lose a wakeup
}

// Run completes the delayed op and wakes the thread.
func (tt *tctxTimer) Run() {
	t := tt.t
	switch tt.op {
	case opWork:
		// A transaction may have died while the work was in progress;
		// report it at completion, like the original deferred check.
		t.finish(opReply{aborted: t.req.inTx && !t.node.tx.InTx()})
	case opAbortAck:
		t.finish(opReply{cause: tt.cause})
	default:
		t.finish(opReply{ok: tt.ok})
	}
}

// lockAcq runs opAcquireLock, the global fallback lock's test-and-
// test-and-set acquire, on the engine side: load until the lock reads
// free, CAS 0 -> 1, and after a busy load or a lost CAS back off
// 64+rand(64) cycles from the thread's PRNG. Each op starts exactly
// where the thread would have issued it, and emits the same op records,
// so the run is the one the thread-side loop gave; only the winning CAS
// resumes the thread. One per thread, like tctxTimer.
type lockAcq struct{ t *tctx }

// Run ends a backoff wait: test the lock again.
func (a *lockAcq) Run() { a.t.node.Load(a.t.req.addr, false, a) }

func (a *lockAcq) onLoadDone(v uint64, aborted bool) {
	t := a.t
	t.r.m.emitOp(t.node.id, OpLoad, false, t.req.addr, v, 0, true)
	if v != 0 {
		a.backoff()
		return
	}
	t.node.CAS(t.req.addr, 0, 1, a)
}

func (a *lockAcq) onCASDone(prev uint64, swapped bool) {
	t := a.t
	t.r.m.emitOp(t.node.id, OpCAS, false, t.req.addr, prev, 1, swapped)
	if !swapped {
		a.backoff()
		return
	}
	t.finish(opReply{swapped: true})
}

func (a *lockAcq) backoff() {
	t := a.t
	t.node.sched.ScheduleRunner(64+t.rng.Uint64n(64), a)
}

// tctx is one simulated thread, run as an iter.Pull coroutine: the
// engine side resumes it with next, and the thread runs until it yields
// its next op, so exactly one of {engine, some thread} runs at any
// instant and the simulation stays deterministic. A resume is a direct
// goroutine switch, with no trip through the scheduler.
type tctx struct {
	r    *runner
	node *Node
	tid  int
	rng  *sim.Rand

	// next resumes the thread up to its next op; stop unwinds a thread
	// still suspended when the run ends. Both are engine-side. yield is
	// the thread side's half of the coroutine, rep the reply to the op
	// it last yielded.
	next  func() (opReq, bool)
	stop  func()
	yield func(opReq) bool
	rep   opReply

	// engine-side bookkeeping
	pendingOp bool
	done      bool
	req       opReq // the op in flight (valid while pendingOp)
	timer     tctxTimer
	acq       lockAcq

	// Fallback-path state (thread-side): the reusable STM descriptor
	// (lazily built on first software fallback) and the elide path's
	// remaining retry budget.
	stm   *stmTx
	elide int

	// The Tx handles the body sees on the speculative, global-lock and
	// STM paths, built once so passing one to a body does not allocate.
	spec, lock txHandle
	stmH       stmHandle
}

// finish completes the pending op: store the reply and resume the
// thread up to its next request.
func (t *tctx) finish(rep opReply) {
	t.pendingOp = false
	t.rep = rep
	t.r.pump(t)
}

// Run starts the thread: it is the payload of the thread's first event.
func (t *tctx) Run() { t.r.pump(t) }

// sleep completes the pending op with the timer payload after delay
// cycles.
func (t *tctx) sleep(delay uint64, op opKind) {
	t.timer.op = op
	t.timer.ev = t.node.sched.ScheduleRunner(delay, &t.timer)
}

// Completion handlers for the node's asynchronous operations; they
// mirror the per-op closures dispatch used to allocate.

func (t *tctx) onLoadDone(v uint64, aborted bool) {
	if !aborted {
		t.r.m.emitOp(t.node.id, OpLoad, t.req.inTx, t.req.addr, v, 0, true)
	}
	t.finish(opReply{val: v, aborted: aborted})
}

func (t *tctx) onStoreDone(aborted bool) {
	if !aborted {
		t.r.m.emitOp(t.node.id, OpStore, t.req.inTx, t.req.addr, t.req.val, 0, true)
	}
	t.finish(opReply{aborted: aborted})
}

func (t *tctx) onCASDone(prev uint64, swapped bool) {
	t.r.m.emitOp(t.node.id, OpCAS, false, t.req.addr, prev, t.req.val2, swapped)
	t.finish(opReply{val: prev, swapped: swapped})
}

func (t *tctx) onBeginDone(ok bool) { t.finish(opReply{ok: ok}) }

func (t *tctx) onCommitDone(committed bool) {
	if committed {
		t.finish(opReply{ok: true})
	} else {
		t.finish(opReply{aborted: true, cause: t.node.FinishAbort()})
	}
}

// wdTick is the livelock watchdog's event payload.
type wdTick struct{ r *runner }

// Run checks for progress since the last tick.
func (w *wdTick) Run() {
	r := w.r
	r.wd = nil
	if r.active.Load() == 0 {
		return
	}
	progress := r.m.progress()
	if progress == r.wdLast {
		r.m.eng.Halt(r.m.livelockError(r.m.cfg.WatchdogCycles))
		return
	}
	r.wdLast = progress
	r.armWatchdog()
}

type runner struct {
	m       *Machine
	threads []*tctx
	// active is decremented from pump, which under intra-run parallelism
	// runs inside node-domain events — hence the atomic.
	active atomic.Int32

	// Livelock watchdog (armed when cfg.WatchdogCycles > 0): wd is the
	// pending tick event, wdLast the Commits+Fallbacks count at the last
	// tick. A tick observing no progress since the previous one halts the
	// run with a diagnostic dump.
	wd     *sim.Event
	wdLast uint64
	tick   wdTick
}

func newRunner(m *Machine) *runner {
	r := &runner{m: m}
	r.tick.r = r
	return r
}

// armWatchdog schedules the next progress check.
func (r *runner) armWatchdog() {
	r.wd = r.m.eng.ScheduleRunner(r.m.cfg.WatchdogCycles, &r.tick)
}

func (r *runner) run(w Workload) error {
	// Build the full thread list before starting any thread: threads
	// call Ctx.Threads() (len(r.threads)) as soon as they start.
	for i := range r.m.nodes {
		t := &tctx{
			r:    r,
			node: r.m.nodes[i],
			tid:  i,
			rng:  sim.NewRand(r.m.cfg.Seed*7919 + uint64(i) + 101),
		}
		t.timer.t = t
		t.acq.t = t
		t.spec = txHandle{t: t}
		t.lock = txHandle{t: t, fallback: true}
		t.stmH = stmHandle{t: t}
		if r.m.cfg.Fallback.Kind == FallbackElide {
			t.elide = r.m.cfg.Fallback.elideBudget()
		}
		t.next, t.stop = iter.Pull(func(yield func(opReq) bool) {
			defer func() {
				if rec := recover(); rec != nil {
					if _, ok := rec.(killedSignal); !ok {
						panic(rec) // next re-panics it on the engine side
					}
				}
			}()
			t.yield = yield
			w.Thread(t, t.tid)
		})
		r.threads = append(r.threads, t)
	}
	// Unwind the threads still suspended when the run ends: on an engine
	// error, a stuck thread, or a panic out of the engine.
	defer func() {
		for _, t := range r.threads {
			t.stop()
		}
	}()
	r.active.Store(int32(len(r.threads)))
	for _, t := range r.threads {
		t.node.sched.ScheduleRunner(0, t)
	}
	if r.m.cfg.WatchdogCycles > 0 {
		r.wdLast = r.m.progress()
		r.armWatchdog()
	}
	if _, err := r.m.eng.Run(r.m.cfg.CycleLimit); err != nil {
		return err
	}
	return r.stuckError()
}

// stuckError reports the threads that never finished although the event
// queue drained: each waits on a reply no pending event will deliver (a
// lost wakeup), so stats taken now would describe a truncated run.
func (r *runner) stuckError() error {
	var stuck []string
	for _, t := range r.threads {
		if !t.done {
			stuck = append(stuck, fmt.Sprintf("tid %d on %s", t.tid, t.req.kind))
		}
	}
	if stuck == nil {
		return nil
	}
	return fmt.Errorf("event queue drained at cycle %d with %d thread(s) blocked: %s",
		r.m.eng.Now(), len(stuck), strings.Join(stuck, ", "))
}

// pump resumes the thread until it issues its next operation (or
// finishes) and dispatches it. It runs inside engine events, under
// intra-run parallelism inside the thread's node-domain events on
// engine workers; iter.Pull only forbids concurrent resumes, and one
// domain runs on one worker at a time.
func (r *runner) pump(t *tctx) {
	req, ok := t.next()
	if !ok {
		t.done = true
		if r.active.Add(-1) == 0 && r.wd != nil {
			// Keeping the tick pending would hold the event queue open and
			// inflate the Cycles stat past the last real event.
			r.m.eng.Cancel(r.wd)
			r.wd = nil
		}
		return
	}
	r.dispatch(t, req)
}

func (r *runner) dispatch(t *tctx, req opReq) {
	m := r.m
	n := t.node
	t.pendingOp = true
	t.req = req
	switch req.kind {
	case opLoad:
		n.Load(req.addr, req.inTx, t)
	case opStore:
		n.Store(req.addr, req.val, req.inTx, t)
	case opCAS:
		n.CAS(req.addr, req.val, req.val2, t)
	case opWork:
		cycles := req.val
		if cycles == 0 {
			cycles = 1
		}
		t.sleep(cycles, opWork)
	case opBegin:
		if m.cfg.MaxAttempts > 0 && req.attempt > m.cfg.MaxAttempts {
			// Starvation budget exceeded: halt the engine with the dump.
			// No reply is sent (pendingOp stays set); run unwinds this
			// thread once Run returns the error.
			m.eng.Halt(m.starvationError(n.id, req.attempt))
			return
		}
		n.BeginTx(req.attempt, req.power, t)
	case opCommit:
		n.Commit(t)
	case opAbortAck:
		t.timer.cause = n.FinishAbort()
		t.sleep(m.cfg.AbortLatency, opAbortAck)
	case opEnterFallback:
		n.EnterFallback()
		if !n.fbTiming {
			n.fbTiming = true
			n.fbStart = m.eng.Now()
		}
		delay := uint64(1)
		if m.inj != nil && m.lockBurstArmed() {
			if d := m.inj.LockBurstDelay(); d > 0 {
				// Contention burst: the lock holder stalls inside the
				// critical section, stressing subscribed transactions.
				m.countFault(n.id, "lockburst")
				delay += d
			}
		}
		t.timer.ok = true
		t.sleep(delay, opEnterFallback)
	case opExitFallback:
		n.ExitFallback()
		if n.fbTiming {
			n.stats.FallbackBodyCycles += m.eng.Now() - n.fbStart
			n.fbTiming = false
		}
		t.timer.ok = true
		t.sleep(1, opExitFallback)
	case opFallbackBodyStart:
		// The STM path opens its occupancy window at body start, so
		// overlapping software fallbacks measure as concurrency; the
		// lock path opens it at opEnterFallback instead.
		if !n.fbTiming {
			n.fbTiming = true
			n.fbStart = m.eng.Now()
		}
		t.timer.ok = true
		t.sleep(1, opFallbackBodyStart)
	case opAcquirePower:
		t.timer.ok = m.tryAcquirePower(n.id)
		t.sleep(1, opAcquirePower)
	case opReleasePower:
		m.releasePower(n.id)
		t.timer.ok = true
		t.sleep(1, opReleasePower)
	case opAcquireLock:
		n.Load(req.addr, false, &t.acq)
	default:
		panic("machine: unknown op")
	}
}

// ---------- thread-side API ----------

// do hands req to the engine and suspends the thread until the reply.
// yield returns false once the run is over and stop unwinds the thread.
func (t *tctx) do(req opReq) opReply {
	if !t.yield(req) {
		panic(killedSignal{})
	}
	return t.rep
}

func (t *tctx) TID() int        { return t.tid }
func (t *tctx) Threads() int    { return len(t.r.threads) }
func (t *tctx) Rand() *sim.Rand { return t.rng }

func (t *tctx) Load(a mem.Addr) uint64 {
	return t.do(opReq{kind: opLoad, addr: a}).val
}

func (t *tctx) Store(a mem.Addr, v uint64) {
	t.do(opReq{kind: opStore, addr: a, val: v})
}

func (t *tctx) Work(n uint64) {
	t.do(opReq{kind: opWork, val: n})
}

// maxBackoffDelay caps one backoff wait. Without the cap a huge
// BackoffBase (or base == MaxUint64, where base+1 wraps to zero) would
// overflow the shift/add below into a tiny or bogus delay.
const maxBackoffDelay = 1 << 32

// backoff computes the randomized retry delay after the given number of
// aborts, per the configured backoff variant. Every variant draws
// exactly once from the thread PRNG so the random stream — and with it
// run determinism — is independent of both the clamping and the
// variant. The default (exponential, Cap 0) is bit-identical to the
// historical formula.
func (t *tctx) backoff(aborts int) uint64 {
	shift := aborts
	if shift > 5 {
		shift = 5
	}
	base := t.r.m.cfg.BackoffBase
	if base > maxBackoffDelay {
		base = maxBackoffDelay
	}
	bc := t.r.m.cfg.Backoff
	cap := bc.Cap
	if cap == 0 || cap > maxBackoffDelay {
		cap = maxBackoffDelay
	}
	switch bc.Kind {
	case BackoffLinear:
		n := uint64(aborts)
		if n > 64 {
			n = 64
		}
		d := base * n
		if d > cap {
			d = cap
		}
		return d + t.rng.Uint64n(base+1)
	case BackoffJitter:
		d := base << uint(shift)
		if d > cap {
			d = cap
		}
		return t.rng.Uint64n(d + 1)
	default:
		d := base << uint(shift)
		if d > cap {
			d = cap
		}
		return d + t.rng.Uint64n(base+1)
	}
}

// Atomic implements the retry / power-token / fallback state machine
// of Section VI-D around the hardware transaction. The fixed
// contention manager reproduces the paper's loop exactly (wait with
// randomized backoff after every abort, fall back past the policy's
// retry budget); the adaptive manager replaces the fixed retry budget
// with its online speculate/wait/fallback verdict. Which software path
// the fallback takes — global lock, STM, or elision — is the machine's
// Fallback config.
func (t *tctx) Atomic(body func(tx Tx)) {
	traits := t.node.policy.Traits()
	m := t.r.m
	totalAborts := 0
	contentionAborts := 0
	powerMode := false
	powerAttempts := 0
	attempt := 0
	earlyFallback := false
	for {
		if traits.UsesPower && !powerMode &&
			(contentionAborts >= traits.PowerAfterAborts || totalAborts >= traits.Retries) {
			// Elevate if the token is free; otherwise keep executing
			// normally and try again after the next abort.
			powerMode = t.do(opReq{kind: opAcquirePower}).ok
		}
		useLock := earlyFallback
		if !useLock {
			if powerMode {
				useLock = powerAttempts >= m.cfg.PowerAttemptLimit
			} else if !traits.UsesPower && m.cm == nil {
				useLock = totalAborts > traits.Retries
			}
			if useLock && t.elideExtend() {
				useLock = false // spent elide budget on one more attempt
			}
		}
		if useLock {
			t.runFallback(body)
			if powerMode {
				t.do(opReq{kind: opReleasePower})
			}
			return
		}
		attempt++
		if !t.do(opReq{kind: opBegin, attempt: attempt, power: powerMode}).ok {
			continue // raced with a lock acquisition; just re-begin
		}
		if powerMode {
			powerAttempts++
		}
		committed, cause := t.runSpec(body)
		if committed {
			t.noteCommitBudget()
			return // a power commit released the token engine-side
		}
		if cause != htm.CauseLock {
			totalAborts++
			switch cause {
			case htm.CauseConflict, htm.CauseValidation, htm.CauseCycle, htm.CauseStall:
				contentionAborts++
			}
			act := htm.CMWait
			if m.cm != nil {
				act = m.cm.Decide(t.tid)
			}
			m.emitCMDecision(t.node.id, act)
			switch act {
			case htm.CMSpeculate:
				t.node.stats.CMSpecs++
			case htm.CMFallback:
				t.node.stats.CMFallbacks++
				earlyFallback = true
			default:
				t.node.stats.CMWaits++
				d := t.backoff(totalAborts)
				if m.cm != nil {
					// The adaptive wait draws from the manager's
					// dedicated stream, not the thread PRNG.
					d = m.cm.WaitDelay(t.tid)
				}
				t.do(opReq{kind: opWork, val: d})
			}
		}
	}
}

// runSpec executes the body speculatively once, converting the abort
// panic back into a (committed=false, cause) result.
func (t *tctx) runSpec(body func(Tx)) (committed bool, cause htm.AbortCause) {
	defer func() {
		if rec := recover(); rec != nil {
			if _, ok := rec.(txAbort); !ok {
				panic(rec)
			}
			rep := t.do(opReq{kind: opAbortAck})
			committed = false
			cause = rep.cause
		}
	}()
	body(&t.spec)
	rep := t.do(opReq{kind: opCommit})
	if rep.aborted {
		return false, rep.cause
	}
	return true, htm.CauseNone
}

// fallbackLock serializes through the global lock: test-test-and-set
// acquire (one engine-side op, see lockAcq), non-speculative body,
// release. Running transactions abort via their eager lock subscription
// when the CAS takes the line.
func (t *tctx) fallbackLock(body func(Tx)) {
	la := t.r.m.lockAddr
	t.do(opReq{kind: opAcquireLock, addr: la})
	t.do(opReq{kind: opEnterFallback})
	body(&t.lock)
	t.do(opReq{kind: opExitFallback})
	t.do(opReq{kind: opStore, addr: la, val: 0})
}

// txHandle implements Tx. With fallback unset the operations are
// transactional and panic on abort; on the fallback path they are plain.
type txHandle struct {
	t        *tctx
	fallback bool
}

func (h *txHandle) TID() int        { return h.t.tid }
func (h *txHandle) Rand() *sim.Rand { return h.t.rng }
func (h *txHandle) Fallback() bool  { return h.fallback }

func (h *txHandle) Load(a mem.Addr) uint64 {
	rep := h.t.do(opReq{kind: opLoad, addr: a, inTx: !h.fallback})
	if rep.aborted {
		panic(txAbort{})
	}
	return rep.val
}

func (h *txHandle) Store(a mem.Addr, v uint64) {
	rep := h.t.do(opReq{kind: opStore, addr: a, val: v, inTx: !h.fallback})
	if rep.aborted {
		panic(txAbort{})
	}
}

func (h *txHandle) Work(n uint64) {
	rep := h.t.do(opReq{kind: opWork, val: n, inTx: !h.fallback})
	if rep.aborted {
		panic(txAbort{})
	}
}
