package main

import (
	"bytes"
	"compress/gzip"
	"testing"
)

// Stacks are leaf first, as pprof records them.
func TestLayerOf(t *testing.T) {
	cases := []struct {
		name  string
		stack []string
		want  string
	}{
		{"chan op under tctx.do", []string{
			"runtime.futex", "runtime.lock2", "runtime.chansend", "runtime.chansend1",
			"chats/internal/machine.(*tctx).do", "chats/internal/machine.(*tctx).Load",
			"chats/internal/stamp.(*KMeans).Thread",
		}, "runtime.sched"},
		{"park under chanrecv", []string{
			"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm",
			"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall",
		}, "runtime.sched"},
		{"mapassign under htm", []string{
			"runtime.memhash64", "runtime.mapassign_fast64", "chats/internal/htm.(*TxState).AddRead",
			"chats/internal/machine.(*Node).access",
		}, "htm"},
		{"mallocgc", []string{
			"runtime.nextFreeFast", "runtime.mallocgcSmallNoscan", "runtime.mallocgc",
			"runtime.newobject", "chats/internal/coherence.(*dirBank).line",
		}, "runtime.gc"},
		{"background mark worker", []string{
			"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2",
			"runtime.systemstack", "runtime.gcBgMarkWorker",
		}, "runtime.gc"},
		{"stamp", []string{"chats/internal/stamp.(*Genome).Thread"}, "workload"},
		{"micro", []string{"runtime.memmove", "chats/internal/micro.(*LLB).Thread.func1"}, "workload"},
		{"structures", []string{"chats/internal/structures.(*List).Find"}, "workload"},
		{"engine", []string{"chats/internal/sim.(*Engine).step", "chats/internal/sim.(*Engine).Run"}, "sim"},
		{"generic instance", []string{"chats/internal/cache.lookup[...]"}, "cache"},
		{"unlisted chats package", []string{"chats/internal/stats.(*Histogram).Observe"}, "other"},
		{"benchmark's own code", []string{"runtime.memmove", "main.runCell", "main.main"}, "other"},
		{"empty stack", nil, "other"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("%s: layerOf = %q, want %q", c.name, got, c.want)
		}
	}
}

// Every layer layerOf can return is reported, so the layer shares add
// up to the whole profile.
func TestLayersCoverAttribution(t *testing.T) {
	known := setOf(layers...)
	for _, l := range pkgLayer {
		if !known[l] {
			t.Errorf("package layer %q is not in layers", l)
		}
	}
	for _, l := range []string{"runtime.sched", "runtime.gc", "other"} {
		if !known[l] {
			t.Errorf("layer %q is not in layers", l)
		}
	}
}

// A real CPU profile parses and every sample is charged to exactly one
// layer.
func TestProfileRunChargesEverySample(t *testing.T) {
	var sink uint64
	layerSamples, cpu, err := profileRun(func() {
		for i := uint64(0); i < 300_000_000; i++ {
			sink += i * i
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if cpu <= 0 {
		t.Fatalf("cpu time %v", cpu)
	}
	var total int64
	for l, n := range layerSamples {
		if !setOf(layers...)[l] {
			t.Errorf("samples charged to unknown layer %q", l)
		}
		total += n
	}
	if total == 0 {
		t.Fatal("no samples in a CPU-bound profile")
	}
	_ = sink
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not gzip")); err == nil {
		t.Error("non-gzip input parsed")
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte{0x12, 0x05, 0x01}) // sample field claiming 5 bytes, holding 1
	zw.Close()
	if _, err := parseProfile(buf.Bytes()); err == nil {
		t.Error("truncated protobuf parsed")
	}
}
