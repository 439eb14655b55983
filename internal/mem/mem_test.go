package mem

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestAddrLineMath(t *testing.T) {
	cases := []struct {
		a    Addr
		line Addr
		idx  int
	}{
		{0, 0, 0},
		{8, 0, 1},
		{56, 0, 7},
		{64, 64, 0},
		{72, 64, 1},
		{127, 64, 7},
		{0x1000, 0x1000, 0},
	}
	for _, c := range cases {
		if c.a.Line() != c.line {
			t.Errorf("%v.Line() = %v, want %v", c.a, c.a.Line(), c.line)
		}
		if c.a.WordIndex() != c.idx {
			t.Errorf("%v.WordIndex() = %d, want %d", c.a, c.a.WordIndex(), c.idx)
		}
	}
}

func TestAddrPlus(t *testing.T) {
	a := Addr(0x100)
	if a.Plus(3) != 0x118 {
		t.Fatalf("Plus(3) = %v", a.Plus(3))
	}
}

// Property: for any address, Line() is line-aligned, contains the
// address, and word index is within the line.
func TestAddrProperty(t *testing.T) {
	f := func(raw uint64) bool {
		a := Addr(raw &^ 7) // word aligned
		l := a.Line()
		return uint64(l)%LineSize == 0 &&
			l <= a && a < l+LineSize &&
			a.WordIndex() >= 0 && a.WordIndex() < WordsPerLine &&
			l.Plus(a.WordIndex()) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryReadWriteWord(t *testing.T) {
	m := NewMemory()
	if m.ReadWord(0x40) != 0 {
		t.Fatal("fresh memory not zero")
	}
	m.WriteWord(0x40, 99)
	m.WriteWord(0x48, 100)
	if m.ReadWord(0x40) != 99 || m.ReadWord(0x48) != 100 {
		t.Fatal("readback mismatch")
	}
	// Same line.
	l := m.ReadLine(0x44) // any addr in the line
	if l[0] != 99 || l[1] != 100 {
		t.Fatalf("line = %v", l)
	}
}

func TestMemoryLineRoundTrip(t *testing.T) {
	m := NewMemory()
	var l Line
	for i := range l {
		l[i] = uint64(i * 7)
	}
	m.WriteLine(0x80, l)
	got := m.ReadLine(0x80)
	if got != l {
		t.Fatalf("got %v want %v", got, l)
	}
	// WriteLine with non-aligned addr targets the containing line.
	m.WriteLine(0x88, Line{1})
	if m.ReadWord(0x80) != 1 {
		t.Fatal("WriteLine did not normalize to line base")
	}
}

// Property: word writes are independent; writing one word never changes
// another word.
func TestMemoryWordIsolation(t *testing.T) {
	f := func(addrs []uint16, vals []uint64) bool {
		m := NewMemory()
		model := make(map[Addr]uint64)
		n := len(addrs)
		if len(vals) < n {
			n = len(vals)
		}
		for i := 0; i < n; i++ {
			a := Addr(addrs[i]) &^ 7
			m.WriteWord(a, vals[i])
			model[a] = vals[i]
		}
		for a, v := range model {
			if m.ReadWord(a) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAllocatorAlignment(t *testing.T) {
	al := NewAllocator(0)
	a := al.Words(3)
	if a == 0 {
		t.Fatal("allocator handed out nil address")
	}
	if uint64(a)%WordSize != 0 {
		t.Fatal("not word aligned")
	}
	b := al.Words(1)
	if b != a.Plus(3) {
		t.Fatalf("bump allocation not contiguous: %v then %v", a, b)
	}
	c := al.Lines(2)
	if uint64(c)%LineSize != 0 {
		t.Fatal("Lines not line aligned")
	}
	d := al.LineAligned(5)
	if uint64(d)%LineSize != 0 {
		t.Fatal("LineAligned not line aligned")
	}
	if d < c+2*LineSize {
		t.Fatal("allocations overlap")
	}
}

func TestAllocatorNoOverlap(t *testing.T) {
	al := NewAllocator(0x1000)
	type span struct{ lo, hi Addr }
	var spans []span
	r := []int{1, 8, 3, 16, 2}
	for i, n := range r {
		var a Addr
		switch i % 3 {
		case 0:
			a = al.Words(n)
			spans = append(spans, span{a, a + Addr(n*WordSize)})
		case 1:
			a = al.Lines(n)
			spans = append(spans, span{a, a + Addr(n*LineSize)})
		case 2:
			a = al.LineAligned(n)
			spans = append(spans, span{a, a + Addr(n*WordSize)})
		}
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			t.Fatalf("overlap between %v and %v", spans[i-1], spans[i])
		}
	}
}

func TestAllocatorPanics(t *testing.T) {
	al := NewAllocator(0)
	for _, fn := range []func(){
		func() { al.Words(0) },
		func() { al.Lines(-1) },
		func() { al.LineAligned(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestTouched(t *testing.T) {
	m := NewMemory()
	m.WriteWord(0, 1)
	m.WriteWord(8, 2)        // same line
	m.WriteWord(64, 3)       // new line
	m.WriteLine(128, Line{}) // new line even if zero
	if got := m.Touched(); got != 3 {
		t.Fatalf("Touched = %d, want 3", got)
	}
}

// memOp is one step of a random Memory access sequence.
type memOp struct {
	kind int // 0 WriteWord, 1 WriteLine, 2 ReadWord, 3 ReadLine
	a    Addr
	l    Line // WriteLine value; l[0] is WriteWord's
}

type memOps []memOp

// Generate builds sequences whose writes span every shard and cross its
// growth boundaries (slots up to 255, in any order), a quarter of them
// with all-zero values, half of all steps revisiting an earlier line, and
// some reads probing far above anything written, past MaxAddr.
func (memOps) Generate(r *rand.Rand, size int) reflect.Value {
	ops := make(memOps, r.Intn(8*size+1))
	for i := range ops {
		op := &ops[i]
		op.kind = r.Intn(4)
		line := uint64(r.Intn(256 << shardShift))
		switch {
		case i > 0 && r.Intn(2) == 0: // revisit an earlier line
			if prev := ops[r.Intn(i)].a; op.kind >= 2 || prev < MaxAddr {
				line = uint64(prev >> LineShift)
			}
		case op.kind >= 2 && r.Intn(4) == 0:
			line = r.Uint64() >> LineShift
		}
		op.a = Addr(line<<LineShift) + Addr(r.Intn(WordsPerLine)*WordSize)
		if r.Intn(4) != 0 {
			for w := range op.l {
				op.l[w] = r.Uint64()
			}
		}
	}
	return reflect.ValueOf(ops)
}

// Property: Memory agrees with a map reference model on every read, on
// Touched, and on the set of lines ForEachLine visits.
func TestMemoryMatchesMapModel(t *testing.T) {
	f := func(ops memOps) bool {
		m := NewMemory()
		model := make(map[Addr]Line)
		for _, op := range ops {
			la := op.a.Line()
			switch op.kind {
			case 0:
				m.WriteWord(op.a, op.l[0])
				l := model[la]
				l[op.a.WordIndex()] = op.l[0]
				model[la] = l
			case 1:
				m.WriteLine(op.a, op.l)
				model[la] = op.l
			case 2:
				if got := m.ReadWord(op.a); got != model[la][op.a.WordIndex()] {
					t.Logf("ReadWord(%v) = %d, model %d", op.a, got, model[la][op.a.WordIndex()])
					return false
				}
			case 3:
				if got := m.ReadLine(op.a); got != model[la] {
					t.Logf("ReadLine(%v) = %v, model %v", op.a, got, model[la])
					return false
				}
			}
		}
		if m.Touched() != len(model) {
			t.Logf("Touched = %d, model has %d lines", m.Touched(), len(model))
			return false
		}
		seen := make(map[Addr]bool)
		ok := true
		m.ForEachLine(func(a Addr, l Line) {
			want, in := model[a]
			if !in || seen[a] || l != want {
				t.Logf("ForEachLine visited %v (in model %v, again %v): %v, want %v", a, in, seen[a], l, want)
				ok = false
			}
			seen[a] = true
		})
		return ok && len(seen) == len(model)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// mustPanic runs fn and returns its panic message, failing if it does
// not panic.
func mustPanic(t *testing.T, fn func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic")
		}
		msg, _ = r.(string)
	}()
	fn()
	return ""
}

func TestWriteAtMaxAddrPanics(t *testing.T) {
	m := NewMemory()
	m.WriteWord(MaxAddr-WordSize, 7) // the last word is writable
	if m.ReadWord(MaxAddr-WordSize) != 7 {
		t.Fatal("last word below MaxAddr lost")
	}
	if msg := mustPanic(t, func() { m.WriteWord(MaxAddr, 1) }); !strings.Contains(msg, MaxAddr.String()) {
		t.Errorf("WriteWord panic %q does not name the address", msg)
	}
	far := MaxAddr + 5*LineSize
	if msg := mustPanic(t, func() { m.WriteLine(far, Line{1}) }); !strings.Contains(msg, far.String()) {
		t.Errorf("WriteLine panic %q does not name the address", msg)
	}
	slots := func() (n int) {
		for i := range m.shards {
			n += len(m.shards[i].lines)
		}
		return n
	}
	before := slots()
	if m.ReadWord(MaxAddr) != 0 || m.ReadLine(far) != (Line{}) || m.ReadWord(MaxAddr/2) != 0 {
		t.Fatal("lines never written must read as zero")
	}
	if m.Touched() != 1 || slots() != before {
		t.Fatalf("reads wrote: Touched = %d, slots %d -> %d", m.Touched(), before, slots())
	}
}

func TestAllocatorStopsAtMaxAddr(t *testing.T) {
	al := NewAllocator(MaxAddr - 2*LineSize)
	if a := al.Lines(2); a+2*LineSize != MaxAddr {
		t.Fatalf("Lines(2) = %v, want the last two lines below MaxAddr", a)
	}
	mustPanic(t, func() { al.Words(1) })

	al = NewAllocator(MaxAddr - LineSize)
	al.Words(7)
	if msg := mustPanic(t, func() { al.LineAligned(WordsPerLine + 1) }); !strings.Contains(msg, "MaxAddr") {
		t.Errorf("panic %q does not name MaxAddr", msg)
	}
	mustPanic(t, func() { NewAllocator(LineSize).Lines(int(MaxAddr / LineSize)) })
}

// benchLines is the benchmark footprint: 32k lines (2 MiB), the size of
// vacation's, laid out from the bump allocator's first line.
const benchLines = 32 << 10

// benchAddr scatters the i-th access over the footprint.
func benchAddr(i int) Addr {
	return LineSize + Addr((i*7919)&(benchLines-1))*LineSize + Addr(i&(WordsPerLine-1))*WordSize
}

func benchMemory() *Memory {
	m := NewMemory()
	for i := 0; i < benchLines; i++ {
		m.WriteLine(LineSize+Addr(i)*LineSize, Line{uint64(i)})
	}
	return m
}

var benchSink uint64

func BenchmarkMemoryReadWord(b *testing.B) {
	m := benchMemory()
	var sum uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum += m.ReadWord(benchAddr(i))
	}
	benchSink = sum
}

func BenchmarkMemoryWriteLine(b *testing.B) {
	m := benchMemory()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.WriteLine(benchAddr(i), Line{uint64(i)})
	}
}
