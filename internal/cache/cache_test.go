package cache

import (
	"testing"
	"testing/quick"

	"chats/internal/mem"
)

func lineAddr(i int) mem.Addr { return mem.Addr(i * mem.LineSize) }

func TestNewGeometry(t *testing.T) {
	c := New(48*1024, 12) // paper L1D: 48KiB 12-way -> 64 sets
	if c.Sets() != 64 || c.Ways() != 12 {
		t.Fatalf("geometry = %d sets x %d ways", c.Sets(), c.Ways())
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(48*1024, 10) // 76.8 sets: invalid
}

func TestInsertLookup(t *testing.T) {
	c := New(4*1024, 4)
	d := mem.Line{1, 2, 3}
	if _, _, ok := c.Insert(lineAddr(1), Shared, d); !ok {
		t.Fatal("insert failed")
	}
	e := c.Lookup(lineAddr(1))
	if e == nil || e.State != Shared || e.Data != d {
		t.Fatalf("lookup = %+v", e)
	}
	if c.Lookup(lineAddr(2)) != nil {
		t.Fatal("phantom hit")
	}
	if c.Stats.Hits != 1 || c.Stats.Misses != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

func TestInsertUpdatesInPlace(t *testing.T) {
	c := New(4*1024, 4)
	c.Insert(lineAddr(1), Shared, mem.Line{1})
	c.Insert(lineAddr(1), Modified, mem.Line{2})
	e := c.Peek(lineAddr(1))
	if e.State != Modified || e.Data[0] != 2 {
		t.Fatalf("update in place failed: %+v", e)
	}
	n := 0
	c.ForEach(func(*Entry) { n++ })
	if n != 1 {
		t.Fatalf("duplicate entries: %d", n)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2*mem.LineSize*2, 2) // 2 sets, 2 ways
	// Lines 0, 2, 4 all map to set 0.
	c.Insert(lineAddr(0), Shared, mem.Line{})
	c.Insert(lineAddr(2), Shared, mem.Line{})
	c.Lookup(lineAddr(0)) // make line 0 most recent
	v, evicted, ok := c.Insert(lineAddr(4), Shared, mem.Line{})
	if !ok || !evicted || v.Tag != lineAddr(2) {
		t.Fatalf("victim = %+v, want line 2", v)
	}
	if c.Peek(lineAddr(0)) == nil || c.Peek(lineAddr(4)) == nil {
		t.Fatal("survivors wrong")
	}
}

func TestSMLinesResistEviction(t *testing.T) {
	c := New(2*mem.LineSize*2, 2)
	c.Insert(lineAddr(0), Modified, mem.Line{})
	c.MarkSM(lineAddr(0))
	c.Insert(lineAddr(2), Shared, mem.Line{})
	// Line 0 is older but SM: line 2 must be the victim.
	v, evicted, ok := c.Insert(lineAddr(4), Shared, mem.Line{})
	if !ok || !evicted || v.Tag != lineAddr(2) {
		t.Fatalf("victim = %+v, want line 2", v)
	}
}

func TestAllSMOverflow(t *testing.T) {
	c := New(2*mem.LineSize*2, 2)
	c.Insert(lineAddr(0), Modified, mem.Line{})
	c.MarkSM(lineAddr(0))
	c.Insert(lineAddr(2), Modified, mem.Line{})
	c.MarkSM(lineAddr(2))
	_, _, ok := c.Insert(lineAddr(4), Shared, mem.Line{})
	if ok {
		t.Fatal("expected overflow when set full of SM lines")
	}
	if c.Stats.SMEvictTries != 1 {
		t.Fatalf("SMEvictTries = %d", c.Stats.SMEvictTries)
	}
}

func TestInvalidate(t *testing.T) {
	c := New(4*1024, 4)
	c.Insert(lineAddr(3), Modified, mem.Line{7})
	old, ok := c.Invalidate(lineAddr(3))
	if !ok || old.Data[0] != 7 {
		t.Fatalf("invalidate = %+v, %v", old, ok)
	}
	if _, ok := c.Invalidate(lineAddr(3)); ok {
		t.Fatal("double invalidate succeeded")
	}
	if c.Peek(lineAddr(3)) != nil {
		t.Fatal("line still present")
	}
}

func TestGangInvalidateSM(t *testing.T) {
	c := New(4*1024, 4)
	for i := 0; i < 6; i++ {
		c.Insert(lineAddr(i), Modified, mem.Line{})
		if i%2 == 0 {
			c.MarkSM(lineAddr(i))
		}
	}
	if n := c.GangInvalidateSM(); n != 3 {
		t.Fatalf("gang invalidated %d, want 3", n)
	}
	for i := 0; i < 6; i++ {
		present := c.Peek(lineAddr(i)) != nil
		if present != (i%2 == 1) {
			t.Fatalf("line %d presence = %v", i, present)
		}
	}
	if c.CountSM() != 0 {
		t.Fatal("SM lines remain")
	}
}

func TestCommitSM(t *testing.T) {
	c := New(4*1024, 4)
	c.Insert(lineAddr(0), Exclusive, mem.Line{42})
	e := c.MarkSM(lineAddr(0))
	e.Spec = true
	committed := map[mem.Addr]mem.Line{}
	n := c.CommitSM(func(l mem.Addr, d mem.Line) { committed[l] = d })
	if n != 1 {
		t.Fatalf("committed %d lines", n)
	}
	if d, ok := committed[lineAddr(0)]; !ok || d[0] != 42 {
		t.Fatal("commit callback missing or wrong data")
	}
	e = c.Peek(lineAddr(0))
	if e.SM() || e.Spec || e.State != Modified || !e.Dirty {
		t.Fatalf("post-commit entry = %+v", e)
	}
}

func TestVictimCarriesFullState(t *testing.T) {
	c := New(mem.LineSize*1, 1) // 1 set, 1 way
	c.Insert(lineAddr(0), Modified, mem.Line{9})
	e := c.Peek(lineAddr(0))
	e.Dirty = true
	v, evicted, ok := c.Insert(lineAddr(1), Shared, mem.Line{})
	if !ok || !evicted {
		t.Fatal("no eviction")
	}
	if v.Tag != lineAddr(0) || !v.Dirty || v.State != Modified || v.Data[0] != 9 {
		t.Fatalf("victim = %+v", v)
	}
}

// Property: the cache never holds two entries for the same tag, and never
// holds more valid entries than its capacity.
func TestCacheInvariants(t *testing.T) {
	f := func(ops []uint16) bool {
		c := New(8*mem.LineSize*2, 2) // 8 sets, 2 ways
		for _, op := range ops {
			line := lineAddr(int(op % 64))
			switch op % 3 {
			case 0:
				c.Insert(line, Shared, mem.Line{uint64(op)})
			case 1:
				c.Lookup(line)
			case 2:
				c.Invalidate(line)
			}
			seen := map[mem.Addr]int{}
			count := 0
			c.ForEach(func(e *Entry) {
				seen[e.Tag]++
				count++
			})
			for _, n := range seen {
				if n > 1 {
					return false
				}
			}
			if count > c.Sets()*c.Ways() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStateString(t *testing.T) {
	if Invalid.String() != "I" || Shared.String() != "S" || Exclusive.String() != "E" || Modified.String() != "M" {
		t.Fatal("state strings wrong")
	}
	if State(9).String() == "" {
		t.Fatal("unknown state should still print")
	}
}

func TestMarkSMPanicsOnNonResident(t *testing.T) {
	c := New(4*1024, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.MarkSM(lineAddr(5))
}

// refWalk is the full-walk commit or abort the SM index replaces: it
// visits every way of lines and returns the count and the committed
// (commit) or dropped (abort) lines.
func refWalk(lines []Entry, commit bool) (int, map[mem.Addr]mem.Line) {
	got := map[mem.Addr]mem.Line{}
	for i := range lines {
		e := &lines[i]
		if e.State == Invalid || !e.sm {
			continue
		}
		got[e.Tag] = e.Data
		if commit {
			e.sm, e.Spec, e.State, e.Dirty = false, false, Modified, true
		} else {
			*e = Entry{}
		}
	}
	return len(got), got
}

// Property: over random Insert/Lookup/Invalidate/MarkSM/ClearSM
// sequences (lines evicted, ways reused by other lines and re-marked),
// the indexed CommitSM and GangInvalidateSM leave the same cache and
// report the same lines and count as a walk over every way.
func TestSMIndexMatchesFullWalk(t *testing.T) {
	f := func(ops []uint16) bool {
		c := New(2*mem.LineSize*2, 2) // 2 sets, 2 ways
		check := func(commit bool) bool {
			ref := append([]Entry(nil), c.lines...)
			wantN, want := refWalk(ref, commit)
			got := map[mem.Addr]mem.Line{}
			var n int
			if commit {
				n = c.CommitSM(func(l mem.Addr, d mem.Line) { got[l] = d })
			} else {
				for i := range c.lines {
					if e := &c.lines[i]; e.State != Invalid && e.sm {
						got[e.Tag] = e.Data
					}
				}
				n = c.GangInvalidateSM()
			}
			if n != wantN || len(got) != len(want) || len(c.smIdx) != 0 {
				return false
			}
			for l, d := range want {
				if got[l] != d {
					return false
				}
			}
			for i := range ref {
				if ref[i] != c.lines[i] {
					return false
				}
			}
			return true
		}
		for _, op := range ops {
			line := lineAddr(int(op/7) % 8)
			switch op % 7 {
			case 0:
				c.Insert(line, Exclusive, mem.Line{uint64(op)})
			case 1:
				c.Lookup(line)
			case 2:
				c.Invalidate(line)
			case 3:
				if c.Peek(line) != nil {
					c.MarkSM(line).Data[0]++
				}
			case 4:
				if e := c.Peek(line); e != nil {
					e.ClearSM()
				}
			case 5, 6:
				if !check(op%7 == 6) {
					return false
				}
			}
		}
		return check(len(ops)%2 == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

var sinkEntry *Entry
var sinkN int

// l1WithWriteSet returns a full L1 of the Table I geometry (48 KiB,
// 12-way) and a 4-line write set spread over distinct sets.
func l1WithWriteSet() (*Cache, []mem.Addr) {
	c := New(48*1024, 12)
	lines := c.Sets() * c.Ways()
	for i := 0; i < lines; i++ {
		c.Insert(lineAddr(i), Exclusive, mem.Line{})
	}
	return c, []mem.Addr{lineAddr(3), lineAddr(17), lineAddr(200), lineAddr(501)}
}

// BenchmarkCacheLookup times an L1 hit.
func BenchmarkCacheLookup(b *testing.B) {
	c, _ := l1WithWriteSet()
	lines := c.Sets() * c.Ways()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkEntry = c.Lookup(lineAddr(i % lines))
	}
}

// BenchmarkCommitSM times marking a 4-line write set and committing it.
func BenchmarkCommitSM(b *testing.B) {
	c, ws := l1WithWriteSet()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range ws {
			c.MarkSM(l)
		}
		sinkN = c.CommitSM(nil)
	}
}

// BenchmarkGangInvalidateSM times reinstalling and marking a 4-line
// write set and dropping it as an abort does.
func BenchmarkGangInvalidateSM(b *testing.B) {
	c, ws := l1WithWriteSet()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range ws {
			c.Insert(l, Exclusive, mem.Line{})
			c.MarkSM(l)
		}
		sinkN = c.GangInvalidateSM()
	}
}
