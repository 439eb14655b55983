package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"time"

	"chats"
	"chats/internal/coherence"
	"chats/internal/core"
	"chats/internal/machine"
	"chats/internal/workloads"
)

// grid is one benchmark workload: a (system × benchmark) batch of
// simulation cells at a fixed core count and input size. Cells run one
// after another on the serial engine with one directory bank, so host
// time is the simulator's and nothing else's.
type grid struct {
	name    string
	cores   int
	size    workloads.Size
	systems []chats.SystemKind
	benches []string
}

// grids are the benchmark's workloads; README.md gives the reason for
// each choice and the layer it stresses.
var grids = []grid{
	{
		name:    "paper16",
		cores:   16,
		size:    workloads.Medium,
		systems: []chats.SystemKind{chats.Baseline, chats.NaiveRS, chats.CHATS, chats.Power, chats.PCHATS},
		benches: workloads.STAMPNames(),
	},
	{
		name:    "llb16",
		cores:   16,
		size:    workloads.Small,
		systems: []chats.SystemKind{chats.Baseline, chats.CHATS},
		benches: []string{"llb-l", "llb-h"},
	},
	{
		name:    "dir256",
		cores:   coherence.MaxCores,
		size:    workloads.Small,
		systems: []chats.SystemKind{chats.Baseline, chats.CHATS},
		benches: []string{"kmeans-h", "cadd"},
	},
}

func findGrid(name string) (grid, error) {
	var names []string
	for _, g := range grids {
		if g.name == name {
			return g, nil
		}
		names = append(names, g.name)
	}
	return grid{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// cell is one simulation of a grid.
type cell struct {
	bench string
	cfg   chats.Config
}

func (c cell) key() string { return string(c.cfg.System) + "/" + c.bench }

func (g grid) cells(seed uint64) []cell {
	var out []cell
	for _, k := range g.systems {
		cfg := chats.DefaultConfig()
		cfg.System = k
		cfg.Machine.Cores = g.cores
		cfg.Machine.Seed = seed
		for _, b := range g.benches {
			out = append(out, cell{bench: b, cfg: cfg})
		}
	}
	return out
}

// pinKey names a grid's pinned digests: the size is part of the key so
// the tiny smoke runs never match the real grids' pins.
func (g grid) pinKey() string { return g.name + "@" + g.size.String() }

// pins holds the RunStats digest of every cell, per grid and seed
// (regenerate with `perfbench pin`).
//
//go:embed pins.json
var pinsJSON []byte

type pinTable map[string]map[string]map[string]string // grid@size → seed → cell → digest

func loadPins() (pinTable, error) {
	var p pinTable
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return p, nil
}

// pinned returns the pinned digests of g at seed, or nil.
func (p pinTable) pinned(g grid, seed uint64) map[string]string {
	return p[g.pinKey()][strconv.FormatUint(seed, 10)]
}

// digest is a short, stable fingerprint of a cell's full RunStats.
func digest(st chats.Stats) string {
	b, err := json.Marshal(st)
	if err != nil {
		panic(err) // RunStats is plain data: marshalling cannot fail
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// cellRun is the outcome of one simulated cell.
type cellRun struct {
	stats  chats.Stats
	events uint64        // engine events fired
	cpu    time.Duration // process CPU time of the simulation
	wall   time.Duration // wall time of the simulation
	allocs uint64        // heap allocations (Mallocs delta)
	err    error
}

// runCell simulates one cell through the public library entry point.
func runCell(c cell, size workloads.Size) cellRun {
	w, err := workloads.New(c.bench, size)
	if err != nil {
		return cellRun{err: err}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	var wv chats.WaveInfo
	c0, w0 := cpuTime(), time.Now()
	st, err := chats.RunObserved(c.cfg, w, nil, &wv)
	cpu, wall := cpuTime()-c0, time.Since(w0)
	runtime.ReadMemStats(&ms)
	return cellRun{stats: st, events: wv.Events, cpu: cpu, wall: wall, allocs: ms.Mallocs - before, err: err}
}

// runPass simulates every cell of a grid once, checking each outcome.
// The heap is collected first, so every pass starts from the same state.
// before, if not nil, runs ahead of each cell, outside its timing.
func runPass(cells []cell, size workloads.Size, chk *checker, before func()) ([]cellRun, gridTotals) {
	runtime.GC()
	runs := make([]cellRun, len(cells))
	for i, c := range cells {
		if before != nil {
			before()
		}
		runs[i] = runCell(c, size)
		chk.check(c, runs[i])
	}
	return runs, totals(runs)
}

// setupPass constructs every cell's workload and machine the way
// chats.RunObserved does, without running them, and returns the process
// CPU time each cell spent in those calls. The heap is collected before
// each cell, outside its timing, so the garbage of the machines already
// discarded is never collected on a later cell's clock.
func setupPass(cells []cell, size workloads.Size) ([]time.Duration, error) {
	out := make([]time.Duration, len(cells))
	for i, c := range cells {
		runtime.GC()
		c0 := cpuTime()
		if _, err := workloads.New(c.bench, size); err != nil {
			return nil, err
		}
		p, err := core.New(c.cfg.System)
		if err != nil {
			return nil, err
		}
		if _, err := machine.New(c.cfg.Machine, p); err != nil {
			return nil, err
		}
		out[i] = cpuTime() - c0
	}
	return out, nil
}

// checker validates every cell outcome of a run: no error (which
// includes Workload.Check on the final memory image), the same RunStats
// on every pass through the grid, and the pinned digest where the seed
// has one.
type checker struct {
	pins      map[string]string
	first     map[string]chats.Stats
	attempted int
	failed    int
	problems  []string
}

func newChecker(pins map[string]string) *checker {
	return &checker{pins: pins, first: make(map[string]chats.Stats)}
}

func (k *checker) check(c cell, r cellRun) {
	k.attempted++
	if msg := k.problem(c, r); msg != "" {
		k.failed++
		k.problems = append(k.problems, c.key()+": "+msg)
	}
}

func (k *checker) problem(c cell, r cellRun) string {
	if r.err != nil {
		return r.err.Error()
	}
	if first, ok := k.first[c.key()]; !ok {
		k.first[c.key()] = r.stats
	} else if first != r.stats {
		return "RunStats differ between passes of the same seed"
	}
	if want, ok := k.pins[c.key()]; ok {
		if got := digest(r.stats); got != want {
			return fmt.Sprintf("RunStats digest %s, pinned %s", got, want)
		}
	} else if k.pins != nil {
		return "no pinned digest for this cell"
	}
	return ""
}

// pin runs every grid once per seed and returns the digest table.
func pin(seeds []uint64) (pinTable, error) {
	out := pinTable{}
	for _, g := range grids {
		bySeed := map[string]map[string]string{}
		for _, seed := range seeds {
			cells := map[string]string{}
			for _, c := range g.cells(seed) {
				r := runCell(c, g.size)
				if r.err != nil {
					return nil, fmt.Errorf("%s seed %d %s: %w", g.name, seed, c.key(), r.err)
				}
				cells[c.key()] = digest(r.stats)
			}
			bySeed[strconv.FormatUint(seed, 10)] = cells
		}
		out[g.pinKey()] = bySeed
	}
	return out, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
