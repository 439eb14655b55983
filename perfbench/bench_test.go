package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"chats/internal/workloads"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// declared reads the metric names BENCHMARK.json declares in one section.
func declared(t *testing.T, section string) map[string]string {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(spec[section], &ms); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

// checkMetrics compares an emitted metric set with a BENCHMARK.json
// section: the same names with the same units, every name well formed
// and every value finite.
func checkMetrics(t *testing.T, got metrics, want map[string]string) {
	t.Helper()
	for n, m := range got {
		if !metricName.MatchString(n) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", n)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s = %v", n, m.Value)
		}
		if u, ok := want[n]; !ok {
			t.Errorf("metric %s is emitted but not declared", n)
		} else if u != m.Unit {
			t.Errorf("metric %s has unit %q, declared %q", n, m.Unit, u)
		}
	}
	for n := range want {
		if _, ok := got[n]; !ok {
			t.Errorf("metric %s is declared but not emitted", n)
		}
	}
}

func tiny(g grid) grid {
	g.size = workloads.Tiny
	return g
}

// A tiny-size run of every workload, end to end and profiled, fails no
// cell and emits exactly the declared metrics.
func TestSmokeTinyWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every grid and the layer probes")
	}
	e2e, perLayerWant := declared(t, "end_to_end"), declared(t, "per_layer")
	for _, g := range grids {
		g := tiny(g)
		t.Run(g.name, func(t *testing.T) {
			m, extra, chk, err := endToEnd(g, 1, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if w := extra["wall_s"]; w.Value <= 0 || w.Unit != "s" {
				t.Errorf("extra wall_s = %+v, want positive seconds", w)
			}
			if chk.failed != 0 || chk.attempted != len(g.cells(1)) {
				t.Fatalf("end to end: %d of %d cells failed: %v", chk.failed, chk.attempted, chk.problems)
			}
			checkMetrics(t, m, e2e)
			for n, v := range m {
				if v.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must be positive", n, v.Value)
				}
			}

			m, chk, err = perLayer(g, 1, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if chk.failed != 0 || chk.attempted != 2*len(g.cells(1)) {
				t.Fatalf("per layer: %d of %d cells failed: %v", chk.failed, chk.attempted, chk.problems)
			}
			checkMetrics(t, m, perLayerWant)
			var shares float64
			for n, v := range m {
				if strings.HasSuffix(n, ".share") {
					shares += v.Value
				}
			}
			if math.Abs(shares-1) > 1e-9 {
				t.Errorf("layer shares sum to %v, want 1", shares)
			}
		})
	}
}

// Layer times are per grid pass: a budget that fits several profiled
// pairs gives about the same self_s as a budget that fits one, instead
// of a multiple of it.
func TestLayerTimesArePerPass(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles a grid several times")
	}
	g := tiny(grids[1])
	cells := g.cells(1)
	run := func(deadline time.Time) (profiled, metrics) {
		t.Helper()
		chk := newChecker(nil)
		p, err := profilePairs(cells, g.size, chk, deadline)
		if err != nil {
			t.Fatal(err)
		}
		if chk.failed != 0 {
			t.Fatalf("%d cells failed: %v", chk.failed, chk.problems)
		}
		m := metrics{}
		p.setLayerMetrics(m)
		return p, m
	}
	t0 := time.Now()
	one, m1 := run(t0)
	pair := time.Since(t0)
	many, mN := run(time.Now().Add(5 * pair))
	if len(one.profCPU) != 1 || len(many.profCPU) < 3 {
		t.Fatalf("pairs: %d and %d, want 1 and at least 3", len(one.profCPU), len(many.profCPU))
	}
	for _, n := range []string{"profile.cpu_s", "pass.cpu_s"} {
		if r := mN[n].Value / m1[n].Value; r < 0.5 || r > 2 {
			t.Errorf("%s: %d pairs give %.3g × the one-pair value, want about 1",
				n, len(many.profCPU), r)
		}
	}
	var self1, selfN float64
	for _, l := range layers {
		self1 += m1[l+".self_s"].Value
		selfN += mN[l+".self_s"].Value
	}
	if math.Abs(self1-m1["profile.cpu_s"].Value) > 1e-9 || math.Abs(selfN-mN["profile.cpu_s"].Value) > 1e-9 {
		t.Errorf("self_s sums %v and %v differ from profile.cpu_s %v and %v",
			self1, selfN, m1["profile.cpu_s"].Value, mN["profile.cpu_s"].Value)
	}
}

// The checker fails a cell whose RunStats drift between passes or miss
// the pinned digest.
func TestCheckerCatchesDrift(t *testing.T) {
	g := tiny(grids[1])
	c := g.cells(1)[0]
	r := runCell(c, g.size)
	if r.err != nil {
		t.Fatal(r.err)
	}

	chk := newChecker(map[string]string{c.key(): digest(r.stats)})
	chk.check(c, r)
	if chk.failed != 0 {
		t.Fatalf("pinned digest rejected: %v", chk.problems)
	}
	drifted := r
	drifted.stats.Cycles++
	chk.check(c, drifted)
	if chk.failed != 1 {
		t.Fatalf("drift between passes not caught: %v", chk.problems)
	}

	chk = newChecker(map[string]string{c.key(): "0000000000000000"})
	chk.check(c, r)
	if chk.failed != 1 {
		t.Fatal("digest mismatch not caught")
	}
}

// The embedded pins cover every cell of every grid at the default seed.
func TestPinsCoverDefaultSeed(t *testing.T) {
	p, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range grids {
		pins := p.pinned(g, 1)
		var missing []string
		for _, c := range g.cells(1) {
			if _, ok := pins[c.key()]; !ok {
				missing = append(missing, c.key())
			}
		}
		sort.Strings(missing)
		if len(missing) > 0 {
			t.Errorf("%s seed 1: no pin for %v", g.name, missing)
		}
	}
}

func TestCompareRefusesHostTimeAcrossHosts(t *testing.T) {
	host := fingerprint{CPU: "cpu A", NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", Commit: "a"}
	base := record{Workload: "llb16", Seed: 1, Host: host, Metrics: metrics{
		"cpu_s":      {Value: 4, Unit: "s"},
		"sim.events": {Value: 100, Unit: "count"},
	}}
	head := base
	head.Host.Commit = "b"
	head.Metrics = metrics{
		"cpu_s":      {Value: 3, Unit: "s"},
		"sim.events": {Value: 100, Unit: "count"},
	}

	var out strings.Builder
	if err := compare(base, head, &out); err != nil {
		t.Fatalf("same host, same counts: %v", err)
	}
	if !strings.Contains(out.String(), "-25.00%") {
		t.Errorf("same-host time not compared:\n%s", out.String())
	}

	head.Host.CPU = "cpu B"
	out.Reset()
	if err := compare(base, head, &out); err != nil {
		t.Fatalf("different host, same counts: %v", err)
	}
	if !strings.Contains(out.String(), "refused") || strings.Contains(out.String(), "-25.00%") {
		t.Errorf("host time compared across hosts:\n%s", out.String())
	}

	head.Metrics["sim.events"] = metric{Value: 101, Unit: "count"}
	if err := compare(base, head, &out); err == nil {
		t.Error("changed exact count accepted across hosts")
	}
}
