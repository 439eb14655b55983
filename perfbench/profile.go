package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// profileHz is the CPU sampling rate of the profiled pass. The pprof
// default of 100 Hz leaves the smaller layers with a handful of samples
// on a short grid. Kernels deliver the profiling signal on their
// scheduler tick, so at this rate some samples can be lost; layer times
// are therefore the layer's share of the samples times the process CPU
// time of the pass, never samples divided by the rate.
const profileHz = 250

// layers are the buckets a CPU sample can be charged to, in report
// order. Every sample lands in exactly one, so the buckets sum to the
// profile total.
var layers = []string{
	"runtime.sched", "runtime.gc",
	"sim", "coherence", "cache", "htm", "mem", "core", "machine", "network", "workload",
	"other",
}

// pkgLayer maps a chats/internal package to its layer. The workload
// programs and the data structures they build on form one layer; any
// package not listed (stats, telemetry, ...) is "other".
var pkgLayer = map[string]string{
	"sim": "sim", "coherence": "coherence", "cache": "cache", "htm": "htm",
	"mem": "mem", "core": "core", "machine": "machine", "network": "network",
	"stamp": "workload", "micro": "workload", "structures": "workload",
	"randprog": "workload", "workloads": "workload",
}

// Runtime frames that mark a sample as goroutine handoff (channel
// operations and the scheduler) or as allocation and garbage
// collection. Names match exactly or, for the prefix lists, by prefix.
var (
	schedFrames = setOf(
		"runtime.chansend", "runtime.chansend1", "runtime.chanrecv", "runtime.chanrecv1",
		"runtime.chanrecv2", "runtime.closechan", "runtime.selectgo", "runtime.park_m",
		"runtime.schedule", "runtime.findRunnable", "runtime.gopark", "runtime.goready",
		"runtime.ready", "runtime.mcall", "runtime.stopm", "runtime.startm", "runtime.wakep",
		"runtime.handoffp", "runtime.execute", "runtime.goschedImpl", "runtime.gosched_m",
		"runtime.Gosched", "runtime.goexit0", "runtime.newproc", "runtime.sysmon",
	)
	gcPrefixes = []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.gc", "runtime.bgsweep",
		"runtime.bgscavenge", "runtime.sweepone", "runtime.scanobject", "runtime.markroot",
		"runtime.wbBuf", "runtime._GC",
	}
)

func setOf(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

// layerOf charges one sample, given its stack from the leaf outwards,
// to a layer: the first frame that belongs to a chats/internal package,
// to the scheduler or to the allocator/GC decides. Other runtime
// helpers (mapassign, memmove, ...) are skipped, so their cost goes to
// the chats package that called them.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, "chats/internal/"); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			if l, ok := pkgLayer[pkg]; ok {
				return l
			}
			return "other"
		}
		if schedFrames[fn] {
			return "runtime.sched"
		}
		for _, p := range gcPrefixes {
			if strings.HasPrefix(fn, p) {
				return "runtime.gc"
			}
		}
	}
	return "other"
}

// cpuProfile is the part of a pprof CPU profile the attribution needs:
// each sample's stack (leaf first) and its sample count.
type cpuProfile struct {
	stacks [][]string
	counts []int64
}

// profileRun runs fn under the CPU profiler and returns the samples
// charged to each layer and the process CPU time fn took.
func profileRun(fn func()) (map[string]int64, time.Duration, error) {
	var buf bytes.Buffer
	// Raising the rate before StartCPUProfile is the documented way to
	// sample faster; the runtime prints a harmless warning when
	// StartCPUProfile then asks for its default rate.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, 0, fmt.Errorf("start CPU profile: %w", err)
	}
	cpu0 := cpuTime()
	fn()
	cpu := cpuTime() - cpu0
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		return nil, 0, err
	}
	out := make(map[string]int64, len(layers))
	for i, st := range p.stacks {
		out[layerOf(st)] += p.counts[i]
	}
	return out, cpu, nil
}

// parseProfile decodes the gzipped protobuf runtime/pprof writes
// (github.com/google/pprof/proto/profile.proto), keeping only sample
// stacks and counts.
func parseProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id → function ids, innermost inline first
		fnName  = map[uint64]uint64{}   // function id → string index
		strs    []string
	)
	err = pbFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := pbFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = pbAppendUints(s.locs, v, b)
				case 2:
					s.values = pbAppendUints(s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return pbFields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := pbFields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if len(s.values) == 0 {
			return nil, errors.New("profile: sample without values")
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i < uint64(len(strs)) {
					stack = append(stack, strs[i])
				}
			}
		}
		p.stacks = append(p.stacks, stack)
		p.counts = append(p.counts, int64(s.values[0]))
	}
	return p, nil
}

// pbFields walks the fields of one protobuf message, calling fn with the
// field number and either the varint value or the length-delimited
// bytes. Fixed-width fields are skipped.
func pbFields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errors.New("truncated field key")
		}
		b = b[n:]
		num := int(key >> 3)
		var v uint64
		var body []byte
		switch key & 7 {
		case 0:
			v, n = pbVarint(b)
			if n == 0 {
				return errors.New("truncated varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("truncated fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errors.New("truncated bytes")
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// pbAppendUints appends a repeated varint field given either as one
// value (b == nil) or packed into b.
func pbAppendUints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := pbVarint(b)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// pbVarint decodes a base-128 varint, returning the bytes consumed
// (0 on truncation).
func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
