package main

import (
	"fmt"
	"time"

	"chats"
	"chats/internal/cache"
	"chats/internal/coherence"
	"chats/internal/htm"
	"chats/internal/machine"
	"chats/internal/mem"
	"chats/internal/network"
	"chats/internal/sim"
	"chats/internal/telemetry"
)

// The layer probes time a loop of calls into one layer's public
// functions, apart from any simulation, so a per-layer change shows up
// in its own probe even when the grid's total time hides it. Each probe
// runs probeReps times and reports the median.
const probeReps = 3

// probeTime runs fn probeReps times and returns the median of
// elapsed/ops in nanoseconds.
func probeTime(ops int, fn func()) float64 {
	var ns []float64
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		fn()
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/float64(ops))
	}
	return median(ns)
}

type countRunner struct{ n uint64 }

func (r *countRunner) Run() { r.n++ }

// probeSim times ScheduleRunner + Step with a standing queue of one
// event per core, the engine's occupancy in a run.
func probeSim(cores int) float64 {
	const n = 1 << 20
	var e sim.Engine
	r := &countRunner{}
	for i := 0; i < cores; i++ {
		e.ScheduleRunner(uint64(1+i%7), r)
	}
	return probeTime(n, func() {
		for i := 0; i < n; i++ {
			e.ScheduleRunner(uint64(1+i%7), r)
			e.Step()
		}
	})
}

// probeCache times Lookup and Insert on an L1 of the Table I geometry.
// Lookups cycle over 4/3 of the capacity (a mix of hits and misses);
// inserts cycle over twice the capacity, so most displace a victim.
func probeCache() (lookupNS, insertNS float64) {
	cfg := machine.DefaultConfig()
	c := cache.New(cfg.L1Size, cfg.L1Ways)
	lines := cfg.L1Size / mem.LineSize
	for i := 0; i < lines; i++ {
		c.Insert(mem.Addr(i*mem.LineSize), cache.Shared, mem.Line{})
	}
	const n = 1 << 20
	span := lines * 4 / 3
	lookupNS = probeTime(n, func() {
		for i := 0; i < n; i++ {
			c.Lookup(mem.Addr((i % span) * mem.LineSize))
		}
	})
	span = 2 * lines
	insertNS = probeTime(n, func() {
		for i := 0; i < n; i++ {
			c.Insert(mem.Addr((i%span)*mem.LineSize), cache.Shared, mem.Line{})
		}
	})
	return lookupNS, insertNS
}

// probeHTM times the read/write-set calls a transactional access makes
// (AddRead, AddWrite, Reads) over 32-line transactions, including the
// per-transaction clear in Begin/Finish; the result is per call.
func probeHTM() float64 {
	const txLines, txs = 32, 1 << 14
	t := htm.NewTxState(4)
	return probeTime(3*txLines*txs, func() {
		for i := 0; i < txs; i++ {
			t.Begin(1, 0)
			for j := 0; j < txLines; j++ {
				a := mem.Addr((i*7 + j) * mem.LineSize)
				t.AddRead(a)
				t.AddWrite(a)
				t.Reads(a)
			}
			t.Finish()
		}
	})
}

// probeNetwork times one control-message send and its delivery.
func probeNetwork() float64 {
	const n = 1 << 20
	var e sim.Engine
	net := network.New(&e, 1)
	r := &countRunner{}
	return probeTime(n, func() {
		for i := 0; i < n; i++ {
			net.SendControlMsg(r)
			e.Step()
		}
	})
}

// stubCore answers every directory probe with data at once, like an L1
// that holds the line and is not in a transaction.
type stubCore struct{}

func (stubCore) HandleProbe(p coherence.Probe) { p.ReplyData(mem.Line{}) }

// unblocker sends the requester's Unblock when a data response arrives.
type unblocker struct {
	dir  *coherence.Directory
	line mem.Addr
	got  int
}

func (u *unblocker) HandleResp(r coherence.Resp) {
	u.got++
	if r.Kind == coherence.RespData {
		u.dir.SendUnblock(u.line)
	}
}

// probeCoherence times GetS and GetX flows run to completion against
// cores stub L1s. Each round every core reads one line, so the sharer
// set grows to all cores, and then one core writes it, which
// invalidates every other sharer: at 256 cores this is the wide
// invalidation of the dir256 grid.
func probeCoherence(cores int) (getsNS, getxNS float64, err error) {
	const lines = 64
	rounds := max(64, 1<<16/cores)
	var e sim.Engine
	net := network.New(&e, 1)
	dir := coherence.NewDirectory(&e, net, mem.NewMemory(), coherence.Config{LLCLatency: 24, DRAMLatency: 120})
	cs := make([]coherence.Core, cores)
	for i := range cs {
		cs[i] = stubCore{}
	}
	dir.AttachCores(cs)
	u := &unblocker{dir: dir}
	var gets, getx []float64
	for rep := 0; rep < probeReps; rep++ {
		var ts, tx time.Duration
		for r := 0; r < rounds; r++ {
			u.line = mem.Addr((r % lines) * mem.LineSize)
			t0 := time.Now()
			for c := 0; c < cores; c++ {
				dir.GetS(u.line, coherence.ReqInfo{ID: c}, u)
				if _, err := e.Run(0); err != nil {
					return 0, 0, err
				}
			}
			t1 := time.Now()
			dir.GetX(u.line, coherence.ReqInfo{ID: r % cores}, u)
			if _, err := e.Run(0); err != nil {
				return 0, 0, err
			}
			ts += t1.Sub(t0)
			tx += time.Since(t1)
		}
		gets = append(gets, float64(ts.Nanoseconds())/float64(rounds*cores))
		getx = append(getx, float64(tx.Nanoseconds())/float64(rounds))
	}
	if want := probeReps * rounds * (cores + 1); u.got != want {
		return 0, 0, fmt.Errorf("coherence probe: %d responses, want %d", u.got, want)
	}
	return median(gets), median(getx), nil
}

// privateLines is a conflict-free workload: every thread increments a
// counter on its own cache line inside a transaction, so each operation
// is one pass through the workload-thread handoff and the HTM begin,
// access and commit path, and never aborts.
type privateLines struct {
	iters   int
	threads int
	base    mem.Addr
}

func (p *privateLines) Name() string { return "private-lines" }

func (p *privateLines) Setup(w *chats.World, threads int) {
	p.threads = threads
	p.base = w.Alloc.Lines(threads)
}

func (p *privateLines) Thread(ctx chats.Ctx, tid int) {
	a := p.base + mem.Addr(tid*mem.LineSize)
	for i := 0; i < p.iters; i++ {
		ctx.Atomic(func(tx chats.Tx) { tx.Store(a, tx.Load(a)+1) })
	}
}

func (p *privateLines) Check(w *chats.World) error {
	for t := 0; t < p.threads; t++ {
		a := p.base + mem.Addr(t*mem.LineSize)
		if got := w.Mem.ReadWord(a); got != uint64(p.iters) {
			return fmt.Errorf("private line %#x = %d, want %d", a, got, p.iters)
		}
	}
	return nil
}

// probeMachine runs the private-line cell at the grid's core count with
// and without a telemetry collector attached. opNS is host time per
// simulated memory access (the handoff round trip plus everything a
// hit costs); eventNS is the collector's added host time per event it
// received, from the median of paired differences.
func probeMachine(cores int) (opNS, eventNS float64, err error) {
	cfg := chats.DefaultConfig()
	cfg.Machine.Cores = cores
	iters := max(16, 1<<16/cores)
	var plain, added []float64
	var ops, events uint64
	for rep := 0; rep < probeReps; rep++ {
		t0 := time.Now()
		st, err := chats.Run(cfg, &privateLines{iters: iters})
		if err != nil {
			return 0, 0, err
		}
		p := time.Since(t0)
		ops = st.L1Hits + st.L1Misses

		col := telemetry.New(cores, telemetry.Options{})
		t0 = time.Now()
		if _, err := chats.RunWithTracer(cfg, &privateLines{iters: iters}, col); err != nil {
			return 0, 0, err
		}
		t := time.Since(t0)
		events = uint64(len(col.Events)) + col.Dropped
		plain = append(plain, float64(p.Nanoseconds()))
		added = append(added, float64((t - p).Nanoseconds()))
	}
	if ops == 0 || events == 0 {
		return 0, 0, fmt.Errorf("machine probe: %d accesses, %d telemetry events", ops, events)
	}
	return median(plain) / float64(ops), median(added) / float64(events), nil
}

// probes runs every layer probe and returns its metrics.
func probes(cores int) (metrics, error) {
	m := metrics{}
	m.set("sim.probe_ns_per_event", probeSim(cores), "ns")
	lookup, insert := probeCache()
	m.set("cache.probe_ns_per_lookup", lookup, "ns")
	m.set("cache.probe_ns_per_insert", insert, "ns")
	m.set("htm.probe_ns_per_add", probeHTM(), "ns")
	m.set("network.probe_ns_per_send", probeNetwork(), "ns")
	gets, getx, err := probeCoherence(cores)
	if err != nil {
		return nil, err
	}
	m.set("coherence.probe_ns_per_gets", gets, "ns")
	m.set("coherence.probe_ns_per_getx", getx, "ns")
	op, ev, err := probeMachine(cores)
	if err != nil {
		return nil, err
	}
	m.set("machine.probe_ns_per_op", op, "ns")
	m.set("telemetry.probe_ns_per_event", ev, "ns")
	return m, nil
}
