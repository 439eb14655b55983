package machine

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"chats/internal/core"
	"chats/internal/faults"
	"chats/internal/htm"
	"chats/internal/mem"
	"chats/internal/sim"
)

// fallbackProbeWL forces thread 0's transaction to exhaust its retries
// (a non-transactional writer keeps killing it) so the atomic block must
// complete on the fallback path exactly once, with Fallback() == true.
type fallbackProbeWL struct {
	target   mem.Addr
	sawSpec  int
	sawFall  int
	fellback bool
}

func (w *fallbackProbeWL) Name() string { return "fallback-probe" }
func (w *fallbackProbeWL) Setup(wd *World, threads int) {
	w.target = wd.Alloc.LineAligned(1)
}
func (w *fallbackProbeWL) Thread(ctx Ctx, tid int) {
	switch tid {
	case 0:
		ctx.Atomic(func(tx Tx) {
			if tx.Fallback() {
				w.sawFall++
			} else {
				w.sawSpec++
			}
			v := tx.Load(w.target)
			tx.Work(400) // wide window for the killer
			tx.Store(w.target, v+1)
		})
		w.fellback = true
	case 1: // killer: repeated non-transactional writes
		for i := 0; i < 40; i++ {
			ctx.Store(w.target, 0)
			ctx.Work(150)
		}
	}
}
func (w *fallbackProbeWL) Check(wd *World) error {
	if w.sawFall != 1 {
		return fmt.Errorf("fallback body ran %d times, want 1", w.sawFall)
	}
	if w.sawSpec == 0 {
		return fmt.Errorf("speculative attempts never ran")
	}
	return nil
}

func TestFallbackBodyRunsOnce(t *testing.T) {
	// Single retry so the fallback path engages quickly.
	policy := core.NewBaselineWith(htm.Traits{Retries: 1})
	m, err := New(testCfg(), policy)
	if err != nil {
		t.Fatal(err)
	}
	w := &fallbackProbeWL{}
	stats, err := m.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Fallbacks != 1 {
		t.Fatalf("fallbacks = %d, want 1", stats.Fallbacks)
	}
	if stats.ByCause[htm.CauseConflict] == 0 {
		t.Fatal("no conflict aborts recorded before fallback")
	}
}

// emptyTxWL commits transactions that touch nothing.
type emptyTxWL struct{ ran [16]bool }

func (w *emptyTxWL) Name() string          { return "empty-tx" }
func (w *emptyTxWL) Setup(*World, int)     {}
func (w *emptyTxWL) Thread(ctx Ctx, t int) { ctx.Atomic(func(Tx) {}); w.ran[t] = true }
func (w *emptyTxWL) Check(wd *World) error {
	for i, r := range w.ran {
		if !r {
			return fmt.Errorf("thread %d never ran", i)
		}
	}
	return nil
}

func TestEmptyTransactionCommits(t *testing.T) {
	stats := runWL(t, core.KindCHATS, &emptyTxWL{}, testCfg())
	if stats.Commits != 16 || stats.Aborts != 0 {
		t.Fatalf("commits=%d aborts=%d", stats.Commits, stats.Aborts)
	}
}

// nestedUseWL ensures values written earlier in a transaction are
// visible to its own later reads (read-own-writes).
type nestedUseWL struct {
	a    mem.Addr
	fail bool
}

func (w *nestedUseWL) Name() string { return "read-own-writes" }
func (w *nestedUseWL) Setup(wd *World, threads int) {
	w.a = wd.Alloc.LineAligned(2)
}
func (w *nestedUseWL) Thread(ctx Ctx, tid int) {
	if tid != 0 {
		return
	}
	ctx.Atomic(func(tx Tx) {
		tx.Store(w.a, 41)
		if tx.Load(w.a) != 41 {
			w.fail = true
		}
		tx.Store(w.a, tx.Load(w.a)+1)
		tx.Store(w.a.Plus(1), tx.Load(w.a)*2)
	})
}
func (w *nestedUseWL) Check(wd *World) error {
	if w.fail {
		return fmt.Errorf("read-own-writes violated")
	}
	if wd.Mem.ReadWord(w.a) != 42 || wd.Mem.ReadWord(w.a.Plus(1)) != 84 {
		return fmt.Errorf("final state %d/%d, want 42/84",
			wd.Mem.ReadWord(w.a), wd.Mem.ReadWord(w.a.Plus(1)))
	}
	return nil
}

func TestReadOwnWrites(t *testing.T) {
	for _, kind := range []core.Kind{core.KindBaseline, core.KindCHATS} {
		runWL(t, kind, &nestedUseWL{}, testCfg())
	}
}

// firstDrawWL records each thread's first Ctx.Rand() draw.
type firstDrawWL struct{ draws []uint64 }

func (w *firstDrawWL) Name() string                 { return "first-draw" }
func (w *firstDrawWL) Setup(wd *World, threads int) { w.draws = make([]uint64, threads) }
func (w *firstDrawWL) Thread(ctx Ctx, tid int)      { w.draws[tid] = ctx.Rand().Uint64() }
func (w *firstDrawWL) Check(*World) error           { return nil }

// Every thread must get its own PRNG stream.
func TestThreadRandsDiffer(t *testing.T) {
	w := &firstDrawWL{}
	runWL(t, core.KindBaseline, w, testCfg())
	seen := map[uint64]int{}
	for tid, d := range w.draws {
		if prev, dup := seen[d]; dup {
			t.Fatalf("threads %d and %d drew the same first value %#x", prev, tid, d)
		}
		seen[d] = tid
	}
	if len(seen) != testCfg().Cores {
		t.Fatalf("%d draws recorded, want %d", len(seen), testCfg().Cores)
	}
}

// The backoff clamp must keep pathological BackoffBase values sane (a
// MaxUint64 base once wrapped base+1 to zero and shifted into garbage)
// while staying bit-identical to the plain formula for the default base.
func TestBackoffClampsOverflow(t *testing.T) {
	mk := func(base uint64) *tctx {
		return &tctx{r: &runner{m: &Machine{cfg: Config{BackoffBase: base}}}, rng: sim.NewRand(7)}
	}

	tc := mk(math.MaxUint64)
	for _, aborts := range []int{1, 2, 5, 6, 40} {
		d := tc.backoff(aborts)
		if d < maxBackoffDelay || d > 2*maxBackoffDelay {
			t.Fatalf("base=MaxUint64 aborts=%d: delay %d outside [%d, %d]",
				aborts, d, uint64(maxBackoffDelay), uint64(2*maxBackoffDelay))
		}
	}

	// A base below the cap whose shifted value overflows the cap.
	tc = mk(maxBackoffDelay - 1)
	if d := tc.backoff(40); d < maxBackoffDelay || d > 2*maxBackoffDelay {
		t.Fatalf("base=cap-1 aborts=40: delay %d outside [%d, %d]",
			d, uint64(maxBackoffDelay), uint64(2*maxBackoffDelay))
	}

	// Default base: clamp is a no-op, including the PRNG stream.
	base := DefaultConfig().BackoffBase
	tc = mk(base)
	ref := sim.NewRand(7)
	for aborts := 1; aborts <= 8; aborts++ {
		shift := aborts
		if shift > 5 {
			shift = 5
		}
		want := base<<uint(shift) + ref.Uint64n(base+1)
		if got := tc.backoff(aborts); got != want {
			t.Fatalf("aborts=%d: backoff %d, want unclamped %d", aborts, got, want)
		}
	}
}

// lostWakeupWL parks thread 0 in a long Work and has thread 1 cancel
// that op's timer event, so thread 0 waits on a reply that never comes.
type lostWakeupWL struct{}

func (w *lostWakeupWL) Name() string      { return "lost-wakeup" }
func (w *lostWakeupWL) Setup(*World, int) {}
func (w *lostWakeupWL) Thread(ctx Ctx, tid int) {
	switch tid {
	case 0:
		ctx.Work(1000)
	case 1:
		ctx.Work(10)
		r := ctx.(*tctx).r
		r.m.eng.Cancel(r.threads[0].timer.ev)
	}
}
func (w *lostWakeupWL) Check(*World) error { return nil }

// A thread still waiting when the event queue drains must fail the run
// with its tid and pending op, not be dropped silently.
func TestStuckThreadErrors(t *testing.T) {
	cfg := testCfg()
	cfg.Cores = 2
	policy, _ := core.New(core.KindBaseline)
	m, err := New(cfg, policy)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run(&lostWakeupWL{})
	if err == nil || !strings.Contains(err.Error(), "1 thread(s) blocked: tid 0 on work") {
		t.Fatalf("err = %v, want thread 0 reported blocked on work", err)
	}
}

// runGoroutineFrames mark the goroutines a run starts: a thread
// coroutine (the body run wraps in iter.Pull, or one created but not yet
// resumed) and an intra-run engine worker.
var runGoroutineFrames = [][]byte{
	[]byte("chats/internal/machine.(*runner).run.func"),
	[]byte("created by iter.Pull["),
	[]byte("chats/internal/sim.(*parState).workerLoop"),
}

// runGoroutines counts the live goroutines whose stacks show one of
// runGoroutineFrames. Unlike runtime.NumGoroutine it ignores goroutines
// that other code starts or ends during the run.
func runGoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		for _, f := range runGoroutineFrames {
			if bytes.Contains(g, f) {
				count++
				break
			}
		}
	}
	return count
}

// assertNoLeak fails if thread coroutines or engine workers started by
// a run outlive it; before is runGoroutines() taken before the run.
func assertNoLeak(t *testing.T, before int) {
	t.Helper()
	if after := runGoroutines(); after != before {
		t.Fatalf("%d thread coroutines or engine workers after the run, %d before", after, before)
	}
}

// Every run that ends early must return its error and unwind all of its
// thread coroutines and engine workers.
func TestFailedRunsUnwindThreads(t *testing.T) {
	neverFallBack := core.NewBaselineWith(htm.Traits{Retries: 1 << 30})
	chats, _ := core.New(core.KindCHATS)
	cases := []struct {
		name   string
		policy htm.Policy
		w      Workload
		cfg    func(*Config)
	}{
		{"cycle-limit", chats, &counterWL{iters: 100}, func(c *Config) { c.CycleLimit = 2000 }},
		{"cycle-limit-intra", chats, &counterWL{iters: 100}, func(c *Config) {
			c.CycleLimit = 2000
			c.IntraWorkers = 4
		}},
		{"watchdog", neverFallBack, &counterWL{iters: 10}, func(c *Config) {
			c.Cores = 4
			c.WatchdogCycles = 300_000
			c.Faults = &faults.Plan{Nack: 1}
		}},
		{"max-attempts", neverFallBack, &starveWL{}, func(c *Config) {
			c.Cores = 2
			c.MaxAttempts = 15
		}},
		{"stuck", chats, &lostWakeupWL{}, func(c *Config) { c.Cores = 2 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testCfg()
			tc.cfg(&cfg)
			m, err := New(cfg, tc.policy)
			if err != nil {
				t.Fatal(err)
			}
			before := runGoroutines()
			if _, err := m.Run(tc.w); err == nil {
				t.Fatal("run succeeded, want an error")
			}
			assertNoLeak(t, before)
		})
	}
}

// panicWL has thread 3 panic with its own value as it starts, inside
// the first cycle's batch of thread starts.
type panicWL struct{ counterWL }

type threadPanic struct{ tid int }

func (w *panicWL) Thread(ctx Ctx, tid int) {
	if tid == 3 {
		panic(threadPanic{tid})
	}
	w.counterWL.Thread(ctx, tid)
}

// A workload panic must surface from Machine.Run on the caller's
// goroutine, serial or with engine workers, and leave no goroutine
// behind.
func TestThreadPanicReachesRun(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cfg := testCfg()
		cfg.IntraWorkers = workers
		policy, _ := core.New(core.KindCHATS)
		m, err := New(cfg, policy)
		if err != nil {
			t.Fatal(err)
		}
		before := runGoroutines()
		func() {
			defer func() {
				if rec := recover(); rec != (threadPanic{3}) {
					t.Fatalf("workers=%d: Run panicked with %v, want threadPanic{3}", workers, rec)
				}
			}()
			m.Run(&panicWL{counterWL{iters: 20}})
			t.Fatalf("workers=%d: Run returned normally", workers)
		}()
		assertNoLeak(t, before)
	}
}
