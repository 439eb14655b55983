// Command perfbench is the simulator's performance benchmark: the host
// cost of simulating three fixed grids of cells, end to end and split by
// layer. See README.md for the workloads, the metrics and why each was
// chosen. Run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload paper16 --seed 1 --seconds 35 --trace 0
//	bash perfbench/run.sh --workload dir256 --trace 1 --out dir256.json
//	bash perfbench/run.sh compare base.json head.json
//	bash perfbench/run.sh pin --seeds 1-10 > pins.new && mv pins.new perfbench/pins.json
//
// The last line of a measuring run is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"chats"
	"chats/internal/workloads"
)

func main() {
	var err error
	switch {
	case len(os.Args) > 1 && os.Args[1] == "compare":
		err = compareMain(os.Args[2:], os.Stdout)
	case len(os.Args) > 1 && os.Args[1] == "pin":
		err = pinMain(os.Args[2:], os.Stdout)
	default:
		err = benchMain(os.Args[1:], os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// exactUnits are the units of metrics computed only from simulated
// statistics: they repeat bit for bit on any host. Every other metric
// is a host measurement.
var exactUnits = map[string]bool{"count": true, "ratio": true}

// record is a full result: what the last output line carries plus the
// host fingerprint and the run's parameters, as written by --out and
// read by compare.
type record struct {
	Workload  string      `json:"workload"`
	Seed      uint64      `json:"seed"`
	Trace     int         `json:"trace"`
	Host      fingerprint `json:"host"`
	Correct   bool        `json:"correct"`
	Attempted int         `json:"attempted"`
	Failed    int         `json:"failed"`
	Metrics   metrics     `json:"metrics"`
	// Extra holds figures that are not in the result line and carry no
	// bound, such as the wall time of the passes --trace 0 times in CPU
	// seconds.
	Extra metrics `json:"extra,omitempty"`
}

// result is the last line of a measuring run.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func benchMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: paper16, llb16 or dir256")
	seed := fs.Uint64("seed", 1, "simulation seed")
	seconds := fs.Int("seconds", 35, "measuring budget: the grid repeats while another pass fits in it")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: profiled run, per-layer metrics")
	out := fs.String("out", "", "also write the full result, with the host fingerprint, to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := findGrid(*workload)
	if err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	pins, err := loadPins()
	if err != nil {
		return err
	}
	host := hostFingerprint(".")
	budget := time.Duration(*seconds) * time.Second

	pinned := pins.pinned(g, *seed)
	var m, extra metrics
	var chk *checker
	if *trace == 0 {
		m, extra, chk, err = endToEnd(g, *seed, budget, pinned)
	} else {
		m, chk, err = perLayer(g, *seed, budget, pinned)
	}
	if err != nil {
		return err
	}
	rec := record{
		Workload: g.name, Seed: *seed, Trace: *trace, Host: host,
		Correct: chk.failed == 0, Attempted: chk.attempted, Failed: chk.failed, Metrics: m, Extra: extra,
	}
	writeReport(stdout, rec, chk, pinned != nil)
	if *out != "" {
		b, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	line, err := json.Marshal(result{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: m})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

// writeReport prints the human-readable part of a run: fingerprint,
// every metric by name and unit, and the output check.
func writeReport(w io.Writer, rec record, chk *checker, pinned bool) {
	host, _ := json.Marshal(rec.Host)
	fmt.Fprintf(w, "workload %s  seed %d  trace %d\nhost %s\n", rec.Workload, rec.Seed, rec.Trace, host)
	for _, n := range sortedNames(rec.Metrics) {
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", n, rec.Metrics[n].Value, rec.Metrics[n].Unit)
	}
	for _, n := range sortedNames(rec.Extra) {
		fmt.Fprintf(w, "  %-34s %16.6g %s (not in the result line)\n", n, rec.Extra[n].Value, rec.Extra[n].Unit)
	}
	check := "RunStats repeat across passes"
	if pinned {
		check += " and match the pinned digests"
	} else {
		check += " (no pinned digests for this seed)"
	}
	fmt.Fprintf(w, "  %-34s %16d of %d cells; %s\n", "failed_cells", rec.Failed, rec.Attempted, check)
	for _, p := range chk.problems {
		fmt.Fprintln(w, "  FAILED", p)
	}
}

func sortedNames(m metrics) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// endToEnd measures the grid with profiling off: the whole grid again
// and again while another pass fits in the budget (at least one), then
// the set-up passes. A cell's cost is its median over the passes, so a
// burst of host noise during one pass is filtered out. Each cell starts
// on a collected heap, so the peak RSS is the largest cell's own.
//
// Costs are process CPU time (user + system), not wall time: on a
// shared host the wall clock also counts the time the hypervisor gives
// the CPUs to other tenants, and it spread more across runs (README.md
// gives the measurements). The wall time of the same cells, summed the
// same way, is returned among the extra figures.
func endToEnd(g grid, seed uint64, budget time.Duration, pins map[string]string) (m, extra metrics, chk *checker, err error) {
	cells := g.cells(seed)
	chk = newChecker(pins)
	cpus := make([][]float64, len(cells))
	walls := make([][]float64, len(cells))
	allocs := make([][]float64, len(cells))
	var tot gridTotals
	var lastPass time.Duration
	for start := time.Now(); time.Since(start)+lastPass < budget || len(cpus[0]) == 0; {
		passStart := time.Now()
		var runs []cellRun
		runs, tot = runPass(cells, g.size, chk, runtime.GC)
		lastPass = time.Since(passStart)
		for i, r := range runs {
			cpus[i] = append(cpus[i], r.cpu.Seconds())
			walls[i] = append(walls[i], r.wall.Seconds())
			allocs[i] = append(allocs[i], float64(r.allocs))
		}
	}
	cpu, wall, alloc := sumMedians(cpus), sumMedians(walls), sumMedians(allocs)
	// Read before the set-up passes, whose discarded machines are not
	// the workload's memory.
	rss := peakRSSMB()

	// At least 15 set-up passes and two seconds of them: a pass of the
	// 16-core grids takes milliseconds. Each cell's set-up time is its
	// median over the passes, like the simulation costs above.
	const minSetupPasses, minSetupTime = 15, 2 * time.Second
	setups := make([][]float64, len(cells))
	for t0 := time.Now(); len(setups[0]) < minSetupPasses || time.Since(t0) < minSetupTime; {
		ds, err := setupPass(cells, g.size)
		if err != nil {
			return nil, nil, nil, err
		}
		for i, d := range ds {
			setups[i] = append(setups[i], d.Seconds())
		}
	}
	m = metrics{}
	m.set("cpu_s", cpu, "s")
	m.set("sim_ops_per_s", float64(tot.ops())/cpu, "1/s")
	m.set("ns_per_simcycle", cpu*1e9/float64(max(tot.stats.Cycles, 1)), "ns")
	m.set("allocs_per_simop", alloc/float64(max(tot.ops(), 1)), "allocs/op")
	m.set("peak_rss_mb", rss, "MiB")
	m.set("setup_s", sumMedians(setups), "s")
	extra = metrics{}
	extra.set("wall_s", wall, "s")
	return m, extra, chk, nil
}

// sumMedians sums, over cells, each cell's median over the passes.
func sumMedians(perCell [][]float64) float64 {
	var sum float64
	for _, xs := range perCell {
		sum += median(xs)
	}
	return sum
}

// perLayer runs the layer probes, then the profiled pairs of passes
// (see profilePairs) while another pair fits in the budget. Layer times
// are per grid pass, so they do not grow with the budget: a faster
// layer shows as a smaller self_s however many pairs the budget fits.
// The counts come from the simulated statistics, identical in every
// pass.
func perLayer(g grid, seed uint64, budget time.Duration, pins map[string]string) (metrics, *checker, error) {
	start := time.Now()
	m, err := probes(g.cores)
	if err != nil {
		return nil, nil, err
	}
	cells := g.cells(seed)
	chk := newChecker(pins)
	p, err := profilePairs(cells, g.size, chk, start.Add(budget))
	if err != nil {
		return nil, nil, err
	}
	p.setLayerMetrics(m)
	tot := p.tot
	st := tot.stats
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	m.set("sim.events", float64(tot.events), "count")
	m.set("sim.ns_per_event", median(p.plainCPU)*1e9/float64(max(tot.events, 1)), "ns")
	m.set("coherence.dir_fwds", float64(st.DirFwds), "count")
	m.set("coherence.dir_invs", float64(st.DirInvs), "count")
	m.set("coherence.nack_retries", float64(st.NackRetries), "count")
	m.set("cache.l1_hits", float64(st.L1Hits), "count")
	m.set("cache.l1_misses", float64(st.L1Misses), "count")
	m.set("cache.l1_hit_ratio", ratio(st.L1Hits, st.L1Hits+st.L1Misses), "ratio")
	m.set("htm.commits", float64(st.Commits), "count")
	m.set("htm.aborts", float64(st.Aborts), "count")
	m.set("htm.commit_ratio", ratio(st.Commits, st.Commits+st.Aborts), "ratio")
	m.set("core.spec_forwards", float64(st.SpecRespsSent), "count")
	m.set("core.spec_consume_ratio", ratio(st.SpecRespsConsumed, st.SpecRespsSent), "ratio")
	m.set("core.spec_drops", float64(st.SpecDropStale+st.SpecDropVSB+st.SpecDropReject), "count")
	m.set("core.validations", float64(st.Validations), "count")
	m.set("core.validation_ok_ratio", ratio(st.ValidationsOK, st.Validations), "ratio")
	m.set("machine.tx_attempts", float64(st.Commits+st.Aborts), "count")
	m.set("machine.fallbacks", float64(st.Fallbacks), "count")
	m.set("network.messages", float64(st.Messages), "count")
	m.set("network.flits", float64(st.Flits), "count")
	return m, chk, nil
}

// profiled is what the profiled pairs of a per-layer run measured, one
// entry per pass: the unprofiled passes' CPU and wall times, and the
// profiled passes' CPU times (around the whole pass and summed over
// cells) and samples charged to each layer.
type profiled struct {
	plainCPU, plainWall []float64
	profCPU, profCells  []float64
	samples             []map[string]int64
	tot                 gridTotals
}

// profilePairs alternates an unprofiled and a profiled pass over the
// grid while another pair fits before the deadline, at least one pair.
// Unlike endToEnd, cells do not start on a collected heap: the profile
// should see the collections a pass makes on its own.
func profilePairs(cells []cell, size workloads.Size, chk *checker, deadline time.Time) (profiled, error) {
	var p profiled
	var lastPair time.Duration
	for len(p.plainCPU) == 0 || time.Now().Add(lastPair).Before(deadline) {
		pairStart := time.Now()
		_, p.tot = runPass(cells, size, chk, nil)
		p.plainCPU = append(p.plainCPU, p.tot.cpu.Seconds())
		p.plainWall = append(p.plainWall, p.tot.wall.Seconds())
		var prof gridTotals
		s, c, err := profileRun(func() { _, prof = runPass(cells, size, chk, nil) })
		if err != nil {
			return p, err
		}
		p.profCPU = append(p.profCPU, c.Seconds())
		p.profCells = append(p.profCells, prof.cpu.Seconds())
		p.samples = append(p.samples, s)
		lastPair = time.Since(pairStart)
	}
	return p, nil
}

// setLayerMetrics sets the layer split and the pass times. A layer's
// share pools the samples of every profiled pass; its self_s is that
// share of the median profiled pass's CPU time, and profile.samples is
// the mean sample count of one pass. pass.cpu_s and pass.wall_s are the
// median unprofiled pass, so a claim made on CPU time can be checked
// against the host time a user waits.
func (p profiled) setLayerMetrics(m metrics) {
	pooled := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		for l, n := range s {
			pooled[l] += n
			total += n
		}
	}
	passCPU := median(p.profCPU)
	for _, l := range layers {
		share := float64(pooled[l]) / float64(max(total, 1))
		m.set(l+".self_s", share*passCPU, "s")
		m.set(l+".share", share, "frac")
	}
	m.set("profile.samples", float64(total)/float64(len(p.samples)), "samples")
	m.set("profile.cpu_s", passCPU, "s")
	m.set("pass.cpu_s", median(p.plainCPU), "s")
	m.set("pass.wall_s", median(p.plainWall), "s")
	m.set("trace.overhead_frac", median(p.profCells)/median(p.plainCPU)-1, "frac")
}

// gridTotals sums one pass over a grid.
type gridTotals struct {
	stats  chats.Stats // only the counters the metrics read are summed
	events uint64
	cpu    time.Duration
	wall   time.Duration
}

func (t gridTotals) ops() uint64 { return t.stats.L1Hits + t.stats.L1Misses }

func totals(runs []cellRun) gridTotals {
	var t gridTotals
	for _, r := range runs {
		s, st := &t.stats, r.stats
		s.Cycles += st.Cycles
		s.Commits += st.Commits
		s.Aborts += st.Aborts
		s.Fallbacks += st.Fallbacks
		s.SpecRespsSent += st.SpecRespsSent
		s.SpecRespsConsumed += st.SpecRespsConsumed
		s.SpecDropStale += st.SpecDropStale
		s.SpecDropVSB += st.SpecDropVSB
		s.SpecDropReject += st.SpecDropReject
		s.Validations += st.Validations
		s.ValidationsOK += st.ValidationsOK
		s.Flits += st.Flits
		s.Messages += st.Messages
		s.L1Hits += st.L1Hits
		s.L1Misses += st.L1Misses
		s.DirFwds += st.DirFwds
		s.DirInvs += st.DirInvs
		s.NackRetries += st.NackRetries
		t.events += r.events
		t.cpu += r.cpu
		t.wall += r.wall
	}
	return t
}

// pinMain regenerates pins.json for a seed range such as "1-10".
func pinMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench pin", flag.ContinueOnError)
	seedRange := fs.String("seeds", "1", "seed or inclusive seed range, e.g. 1-10")
	if err := fs.Parse(args); err != nil {
		return err
	}
	lo, hi, found := strings.Cut(*seedRange, "-")
	if !found {
		hi = lo
	}
	a, err1 := strconv.ParseUint(lo, 10, 64)
	b, err2 := strconv.ParseUint(hi, 10, 64)
	if err := errors.Join(err1, err2); err != nil || a > b {
		return fmt.Errorf("bad --seeds %q", *seedRange)
	}
	var seeds []uint64
	for s := a; s <= b; s++ {
		seeds = append(seeds, s)
	}
	p, err := pin(seeds)
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(p, "", " ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(out))
	return err
}
