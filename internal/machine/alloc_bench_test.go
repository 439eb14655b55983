package machine

import (
	"runtime"
	"testing"

	"chats/internal/core"
	"chats/internal/mem"
)

// Whole-machine allocation benchmarks: the event path from thread op
// through network, directory and back must be allocation-free in steady
// state (pooled message structs + the engine's event free list), so
// allocs per simulated cycle is the end-to-end regression signal for
// the dispatch layer. Run as:
//
//	go test -bench WholeMachine -benchmem ./internal/machine
func benchMachine(b *testing.B, kind core.Kind) {
	b.Helper()
	policy, err := core.New(kind)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.CycleLimit = 50_000_000
	b.ReportAllocs()
	var cycles, mallocs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, err := New(cfg, policy)
		if err != nil {
			b.Fatal(err)
		}
		w := &counterWL{iters: 50}
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		b.StartTimer()
		stats, err := m.Run(w)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&ms1)
		cycles += stats.Cycles
		mallocs += ms1.Mallocs - ms0.Mallocs
		b.StartTimer()
	}
	b.ReportMetric(float64(mallocs)/float64(cycles), "allocs/simcycle")
	b.ReportMetric(float64(cycles)/float64(b.N), "simcycles/run")
}

// BenchmarkWholeMachineCHATS runs the contended-counter workload on the
// CHATS system: forwarding, validation and chain bookkeeping all active.
func BenchmarkWholeMachineCHATS(b *testing.B) { benchMachine(b, core.KindCHATS) }

// BenchmarkWholeMachineBaseline runs the same workload on the baseline
// requester-wins system.
func BenchmarkWholeMachineBaseline(b *testing.B) { benchMachine(b, core.KindBaseline) }

// loadLoopWL has thread 0 issue n non-transactional loads of one
// private line: after the first miss every load hits in L1, so each
// op costs one engine event plus one engine/thread handoff.
type loadLoopWL struct {
	n    int
	addr mem.Addr
}

func (w *loadLoopWL) Name() string { return "load-loop" }
func (w *loadLoopWL) Setup(wd *World, threads int) {
	w.addr = wd.Alloc.LineAligned(1)
}
func (w *loadLoopWL) Thread(ctx Ctx, tid int) {
	for i := 0; i < w.n; i++ {
		ctx.Load(w.addr)
	}
}
func (w *loadLoopWL) Check(*World) error { return nil }

// BenchmarkThreadOpRoundTrip measures one workload-op round trip: a
// single core doing conflict-free L1-hit loads, so ns/op and allocs/op
// are per simulated op and dominated by the engine/thread handoff.
func BenchmarkThreadOpRoundTrip(b *testing.B) {
	policy, err := core.New(core.KindBaseline)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Cores = 1
	m, err := New(cfg, policy)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := m.Run(&loadLoopWL{n: b.N}); err != nil {
		b.Fatal(err)
	}
}

// txLoopWL has thread 0 run n transactions that increment one private
// word: after the first miss each attempt is a begin, an L1-hit load, a
// store to an already-owned line and a commit, with no conflicts.
type txLoopWL struct {
	n    int
	addr mem.Addr
}

func (w *txLoopWL) Name() string { return "tx-loop" }
func (w *txLoopWL) Setup(wd *World, threads int) {
	w.addr = wd.Alloc.LineAligned(1)
}
func (w *txLoopWL) Thread(ctx Ctx, tid int) {
	body := func(tx Tx) { tx.Store(w.addr, tx.Load(w.addr)+1) }
	for i := 0; i < w.n; i++ {
		ctx.Atomic(body)
	}
}
func (w *txLoopWL) Check(*World) error { return nil }

// TestTxAttemptZeroAllocs pins the steady-state begin/commit path at
// zero allocations per attempt: a run of n+extra transactions allocates
// exactly as much as a run of n, so every allocation is per-run set-up.
func TestTxAttemptZeroAllocs(t *testing.T) {
	policy, err := core.New(core.KindBaseline)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testCfg()
	cfg.Cores = 1
	runAllocs := func(n int) float64 {
		return testing.AllocsPerRun(5, func() {
			m, err := New(cfg, policy)
			if err != nil {
				t.Fatal(err)
			}
			w := &txLoopWL{n: n}
			st, err := m.Run(w)
			if err != nil {
				t.Fatal(err)
			}
			if st.Commits != uint64(n) {
				t.Fatalf("%d commits, want %d", st.Commits, n)
			}
		})
	}
	const n, extra = 100, 1000
	base, more := runAllocs(n), runAllocs(n+extra)
	if per := (more - base) / extra; per != 0 {
		t.Fatalf("%.3f allocations per transaction attempt (%.0f for %d txs, %.0f for %d), want 0",
			per, base, n, more, n+extra)
	}
}
