package machine_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chats/internal/coherence"
	"chats/internal/core"
	"chats/internal/faults"
	"chats/internal/htm"
	"chats/internal/machine"
	"chats/internal/mem"
	"chats/internal/testutil"
	"chats/internal/workloads"
)

// opHasher is a Tracer that folds every OpTracer record into a sha256
// and counts the global lock's reads and its won and lost CASes.
type opHasher struct {
	lock                    mem.Addr
	h                       hash.Hash
	buf                     [8 * 6]byte
	ops                     uint64
	lockLoads, locked, lost uint64
}

func (o *opHasher) TxBegin(uint64, int, int, bool)                    {}
func (o *opHasher) TxCommit(uint64, int, int)                         {}
func (o *opHasher) TxAbort(uint64, int, htm.AbortCause)               {}
func (o *opHasher) Forward(uint64, int, int, mem.Addr, coherence.PiC) {}
func (o *opHasher) Consume(uint64, int, mem.Addr, coherence.PiC)      {}
func (o *opHasher) Validate(uint64, int, mem.Addr, bool)              {}
func (o *opHasher) Fallback(uint64, int)                              {}
func (o *opHasher) Op(cycle uint64, c int, op machine.OpKind, inTx bool, a mem.Addr, val, val2 uint64, ok bool) {
	o.ops++
	if a == o.lock && !inTx {
		switch {
		case op == machine.OpLoad:
			o.lockLoads++
		case op == machine.OpCAS && ok:
			o.locked++
		case op == machine.OpCAS:
			o.lost++
		}
	}
	var flags uint64
	if inTx {
		flags |= 1
	}
	if ok {
		flags |= 2
	}
	b := o.buf[:]
	binary.LittleEndian.PutUint64(b[0:], cycle)
	binary.LittleEndian.PutUint64(b[8:], uint64(c)<<8|uint64(op))
	binary.LittleEndian.PutUint64(b[16:], flags)
	binary.LittleEndian.PutUint64(b[24:], uint64(a))
	binary.LittleEndian.PutUint64(b[32:], val)
	binary.LittleEndian.PutUint64(b[40:], val2)
	o.h.Write(b)
}

// TestLockAcquireOpStreamGolden pins the complete op stream and RunStats
// of lock-heavy runs against testdata/lock_acquire_ops.txt: the global
// lock's test-and-test-and-set acquire must issue every load, CAS and
// backoff exactly where it always has. Each config queues on the lock
// (more lock reads than fallbacks and than acquisitions), so the spin is
// exercised; some config loses a CAS race, so the lost-CAS backoff is.
func TestLockAcquireOpStreamGolden(t *testing.T) {
	configs := []struct {
		name, bench string
		kind        core.Kind
		fallback    string
		faults      string
	}{
		{"cadd/baseline/lock", "cadd", core.KindBaseline, "lock", ""},
		{"cadd/chats/lock", "cadd", core.KindCHATS, "lock", ""},
		{"kmeans-h/baseline/lock", "kmeans-h", core.KindBaseline, "lock", ""},
		{"kmeans-h/chats/lock", "kmeans-h", core.KindCHATS, "lock", ""},
		{"kmeans-h/baseline/stm", "kmeans-h", core.KindBaseline, "stm", ""},
		{"cadd/chats/stm/lockburst", "cadd", core.KindCHATS, "stm", "lockburst:p=0.5,cycles=300"},
		{"kmeans-h/baseline/elide", "kmeans-h", core.KindBaseline, "elide", ""},
		{"cadd/baseline/lock/lockburst", "cadd", core.KindBaseline, "lock", "lockburst:p=0.5,cycles=300"},
	}
	var got strings.Builder
	var lost uint64
	for _, c := range configs {
		cfg := testutil.Config()
		cfg.Cores = 64 // enough threads to queue on the lock
		var err error
		if cfg.Fallback, err = machine.ParseFallback(c.fallback); err != nil {
			t.Fatal(err)
		}
		if c.faults != "" {
			p, err := faults.Parse(c.faults)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Faults = &p
		}
		w, err := workloads.New(c.bench, workloads.Tiny)
		if err != nil {
			t.Fatal(err)
		}
		m := testutil.Machine(t, cfg, testutil.Policy(t, c.kind))
		tr := &opHasher{lock: machine.LockAddr(m), h: sha256.New()}
		m.SetTracer(tr)
		st, err := m.Run(w)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if tr.locked == 0 || st.Fallbacks == 0 {
			t.Errorf("%s: lock taken %d times, %d fallbacks; the config no longer takes the lock",
				c.name, tr.locked, st.Fallbacks)
		}
		if tr.lockLoads <= st.Fallbacks || tr.lockLoads <= tr.locked {
			t.Errorf("%s: %d lock reads for %d fallbacks and %d acquisitions; the config no longer spins on the lock",
				c.name, tr.lockLoads, st.Fallbacks, tr.locked)
		}
		lost += tr.lost
		fmt.Fprintf(&got, "%s ops=%d lock_loads=%d lock_cas_won=%d lock_cas_lost=%d fallbacks=%d cycles=%d ops_sha256=%x stats_sha256=%x\n",
			c.name, tr.ops, tr.lockLoads, tr.locked, tr.lost, st.Fallbacks, st.Cycles,
			tr.h.Sum(nil), sha256.Sum256([]byte(fmt.Sprintf("%+v", st))))
	}
	if lost == 0 {
		t.Error("no config lost a CAS on the lock; the lost-CAS backoff is not exercised")
	}
	path := filepath.Join("testdata", "lock_acquire_ops.txt")
	if machine.UpdateGolden() {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got.String() != string(want) {
		t.Errorf("op stream drifted from %s:\ngot:\n%swant:\n%s", path, got.String(), want)
	}
}
