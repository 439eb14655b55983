// Package mem models the simulated physical address space: 64-byte cache
// lines of eight 64-bit words, a backing store holding the committed
// (architectural) value of every line, and a bump allocator for building
// workload data structures in simulated memory.
//
// The backing store is 256 shards of dense line-indexed arrays: slot i
// of shard s holds line index i*256 + s, and a shard at least doubles
// when a write lands past its end. The address space is bounded by
// MaxAddr (4 GiB): writes at or above it panic, the Allocator panics
// rather than hand out an address past it, and reads above it return
// zero, so one shard never exceeds 16 MiB.
package mem

import (
	"fmt"
	"math/bits"
)

const (
	// LineSize is the cache line size in bytes (Table I: 64-byte lines).
	LineSize = 64
	// WordSize is the machine word size in bytes.
	WordSize = 8
	// WordsPerLine is the number of words in a cache line.
	WordsPerLine = LineSize / WordSize
	// LineShift is log2(LineSize).
	LineShift = 6
)

// Addr is a simulated physical byte address. Workload code always uses
// word-aligned addresses.
type Addr uint64

// Line returns the address of the cache line containing a.
func (a Addr) Line() Addr { return a &^ (LineSize - 1) }

// WordIndex returns the index of a's word within its cache line.
func (a Addr) WordIndex() int { return int(a>>3) & (WordsPerLine - 1) }

// Plus returns the address offset by n words.
func (a Addr) Plus(n int) Addr { return a + Addr(n*WordSize) }

func (a Addr) String() string { return fmt.Sprintf("0x%x", uint64(a)) }

// Line is the value of one cache line: eight 64-bit words.
type Line [WordsPerLine]uint64

// numShards is the fixed internal shard count of a Memory. It is the
// upper bound on the coherence directory's bank count: because every
// power-of-two bank count <= numShards selects banks from the same low
// line-index bits LineShard uses, two lines owned by different directory
// banks always live in different memory shards, so concurrently
// executing banks never touch the same shard's arrays.
const (
	numShards  = 256
	shardShift = 8 // log2(numShards)
	// slotShift turns an address into its slot within its shard.
	slotShift = LineShift + shardShift
)

// MaxAddr bounds the simulated address space: writes at or above it
// panic, the Allocator never hands out an address reaching past it, and
// reads above it return zero like any line never written. It caps one
// shard's dense array at MaxAddr/LineSize/numShards lines (16 MiB).
const MaxAddr Addr = 1 << 32

// LineShard returns the shard index in [0, shards) of the line
// containing a. shards must be a power of two. This is the one address
// hash shared by the memory's internal sharding and the directory's
// bank selection (coherence.BankOf): consecutive cache lines round-robin
// across shards, so regular strides spread load over all banks.
func LineShard(a Addr, shards int) int {
	return int((uint64(a) >> LineShift) & uint64(shards-1))
}

// shard holds the lines whose index is congruent to its position modulo
// numShards, densely: slot i is line index i*numShards + shard.
type shard struct {
	lines   []Line
	written []uint64 // bit i set once slot i has been written
}

// grow extends the shard to hold slot i, at least doubling its length.
func (s *shard) grow(i int) {
	n := max(2*len(s.lines), i+1)
	s.lines = append(s.lines, make([]Line, n-len(s.lines))...)
	if w := (n + 63) / 64; w > len(s.written) {
		s.written = append(s.written, make([]uint64, w-len(s.written))...)
	}
}

// Memory is the simulated backing store. It always holds the latest
// committed value of every line (the simulator maintains the invariant
// that any speculatively modified cache copy has its committed version
// here, so silent invalidation of speculative lines is always safe).
//
// The store is internally sharded by LineShard so that directory banks
// executing in distinct parallel domains (which by construction touch
// lines of distinct shards) never race on one shard. Each shard is a
// dense array indexed by line number, so no line is allocated on its
// own.
type Memory struct {
	shards [numShards]shard
}

// NewMemory returns an empty simulated memory. Untouched lines read as
// zero.
func NewMemory() *Memory { return new(Memory) }

// line returns the committed line containing a, or nil past the end of
// its shard. Either way a line never written reads as zero.
func (m *Memory) line(a Addr) *Line {
	s := &m.shards[LineShard(a, numShards)]
	if i := uint64(a) >> slotShift; i < uint64(len(s.lines)) {
		return &s.lines[i]
	}
	return nil
}

// writable returns the line containing a for writing, growing its shard
// and marking the line written. It panics at or above MaxAddr.
func (m *Memory) writable(a Addr) *Line {
	if a >= MaxAddr {
		panic(fmt.Sprintf("mem: write at %v, at or above MaxAddr %v", a, MaxAddr))
	}
	s := &m.shards[LineShard(a, numShards)]
	i := int(a >> slotShift)
	if i >= len(s.lines) {
		s.grow(i)
	}
	s.written[i/64] |= 1 << (i % 64)
	return &s.lines[i]
}

// ReadLine returns a copy of the line containing a.
func (m *Memory) ReadLine(a Addr) Line {
	if l := m.line(a); l != nil {
		return *l
	}
	return Line{}
}

// WriteLine replaces the line containing a with l.
func (m *Memory) WriteLine(a Addr, l Line) { *m.writable(a) = l }

// ReadWord returns the committed word at a (a must be word aligned).
func (m *Memory) ReadWord(a Addr) uint64 {
	if l := m.line(a); l != nil {
		return l[a.WordIndex()]
	}
	return 0
}

// WriteWord sets the committed word at a.
func (m *Memory) WriteWord(a Addr, v uint64) { m.writable(a)[a.WordIndex()] = v }

// Touched returns the number of distinct lines ever written.
func (m *Memory) Touched() int {
	n := 0
	for i := range m.shards {
		for _, w := range m.shards[i].written {
			n += bits.OnesCount64(w)
		}
	}
	return n
}

// ForEachLine calls fn with a copy of every line ever written, shard by
// shard. The order is fixed but is not address order: callers needing
// addresses sorted must sort them themselves (the invariant checker's
// shadow memory does).
func (m *Memory) ForEachLine(fn func(a Addr, l Line)) {
	for sh := range m.shards {
		s := &m.shards[sh]
		for w, word := range s.written {
			for ; word != 0; word &= word - 1 {
				i := w*64 + bits.TrailingZeros64(word)
				fn(Addr(i<<slotShift|sh<<LineShift), s.lines[i])
			}
		}
	}
}

// Allocator is a bump allocator over the simulated address space, used
// by workloads to lay out their data structures. It never reuses
// addresses; simulated runs are short enough that this is fine and it
// keeps allocation deterministic.
type Allocator struct {
	next Addr
}

// NewAllocator returns an allocator starting at base (rounded up to a
// line boundary, and never handing out address 0, which workloads treat
// as nil).
func NewAllocator(base Addr) *Allocator {
	if base == 0 {
		base = LineSize
	}
	return &Allocator{next: (base + LineSize - 1).Line()}
}

// Words allocates n words, word-aligned, and returns the base address.
func (al *Allocator) Words(n int) Addr {
	return al.bump("Words", al.next, n, WordSize)
}

// Lines allocates n whole cache lines, line-aligned.
func (al *Allocator) Lines(n int) Addr {
	return al.bump("Lines", (al.next + LineSize - 1).Line(), n, LineSize)
}

// LineAligned allocates n words starting at a fresh line boundary. Use it
// for records that must not share a line with unrelated data (avoids
// false sharing in workloads that want isolation).
func (al *Allocator) LineAligned(nWords int) Addr {
	return al.bump("LineAligned", (al.next + LineSize - 1).Line(), nWords, WordSize)
}

// bump hands out n units of size bytes starting at a. It panics if n is
// not positive or the span would reach past MaxAddr.
func (al *Allocator) bump(what string, a Addr, n, size int) Addr {
	if n <= 0 {
		panic(fmt.Sprintf("mem: %s called with n <= 0", what))
	}
	if a > MaxAddr || uint64(n) > uint64(MaxAddr-a)/uint64(size) {
		panic(fmt.Sprintf("mem: %s(%d) at %v reaches past MaxAddr %v", what, n, a, MaxAddr))
	}
	al.next = a + Addr(n*size)
	return a
}

// Next returns the next address that would be allocated.
func (al *Allocator) Next() Addr { return al.next }
