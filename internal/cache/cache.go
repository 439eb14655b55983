// Package cache models a private set-associative L1 data cache with the
// hardware transactional memory extensions the paper's baseline assumes:
// a speculatively-modified (SM) bit per line for lazy versioning, a
// spec-received bit marking lines obtained through a SpecResp, gang
// invalidation of SM lines on abort, and a replacement policy that
// deprioritizes write-set blocks (Section V-A: "the replacement algorithm
// favors write-set blocks").
//
// The hardware clears SM bits at commit and drops SM lines at abort in
// one step. The model keeps an index of the ways marked SM since the
// last commit or abort, so CommitSM and GangInvalidateSM visit only the
// write set, not every way of the cache. MarkSM is the only way to set
// the bit, which keeps the index complete.
package cache

import (
	"fmt"

	"chats/internal/mem"
)

// State is a MESI coherence state as seen by the local cache.
type State uint8

const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Entry is one cache line's worth of state.
type Entry struct {
	Tag   mem.Addr // line address; meaningful only when State != Invalid
	State State
	Dirty bool // holds data newer than the LLC image (non-speculative)
	sm    bool // speculatively modified: set only through Cache.MarkSM
	Spec  bool // received via SpecResp; ownership is a fiction until validated
	Data  mem.Line
	lru   uint64
}

// SM reports whether the line is speculatively modified: part of the
// transaction write set.
func (e *Entry) SM() bool { return e.sm }

// ClearSM takes the line out of the write set without committing it.
func (e *Entry) ClearSM() { e.sm = false }

// Stats counts cache events.
type Stats struct {
	Hits         uint64
	Misses       uint64
	Evictions    uint64
	SMEvictTries uint64 // times the victim search had only SM candidates
}

// Cache is a private set-associative cache.
type Cache struct {
	lines   []Entry   // every way of every set, set by set
	sets    [][]Entry // per-set views of lines
	setMask uint64
	tick    uint64
	// smIdx holds the positions in lines marked SM since the last
	// CommitSM or GangInvalidateSM. Every SM entry is listed; a listed
	// entry may since have lost its bit or its line, or be listed twice.
	smIdx []int32
	Stats Stats
}

// New builds a cache of sizeBytes capacity and the given associativity.
// The number of sets must come out a power of two.
func New(sizeBytes, ways int) *Cache {
	if sizeBytes <= 0 || ways <= 0 {
		panic("cache: size and ways must be positive")
	}
	nSets := sizeBytes / (ways * mem.LineSize)
	if nSets == 0 || nSets&(nSets-1) != 0 {
		panic(fmt.Sprintf("cache: %d sets is not a power of two (size %d, ways %d)", nSets, sizeBytes, ways))
	}
	c := &Cache{
		lines:   make([]Entry, nSets*ways),
		sets:    make([][]Entry, nSets),
		setMask: uint64(nSets - 1),
		smIdx:   make([]int32, 0, nSets*ways),
	}
	for i := range c.sets {
		c.sets[i] = c.lines[i*ways : (i+1)*ways : (i+1)*ways]
	}
	return c
}

// Ways returns the associativity.
func (c *Cache) Ways() int { return len(c.sets[0]) }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return len(c.sets) }

func (c *Cache) setIndex(line mem.Addr) int {
	return int((uint64(line) >> mem.LineShift) & c.setMask)
}

func (c *Cache) set(line mem.Addr) []Entry { return c.sets[c.setIndex(line)] }

// Lookup returns the entry holding line, or nil. It counts a hit or miss
// and refreshes LRU state on hit.
func (c *Cache) Lookup(line mem.Addr) *Entry {
	line = line.Line()
	set := c.set(line)
	for i := range set {
		e := &set[i]
		if e.State != Invalid && e.Tag == line {
			c.tick++
			e.lru = c.tick
			c.Stats.Hits++
			return e
		}
	}
	c.Stats.Misses++
	return nil
}

// Peek returns the entry holding line without touching LRU or stats.
func (c *Cache) Peek(line mem.Addr) *Entry {
	line = line.Line()
	set := c.set(line)
	for i := range set {
		e := &set[i]
		if e.State != Invalid && e.Tag == line {
			return e
		}
	}
	return nil
}

// Victim describes a line pushed out by Insert.
type Victim struct {
	Tag   mem.Addr
	State State
	Dirty bool
	SM    bool
	Spec  bool
	Data  mem.Line
}

// Insert places line into the cache in the given state, returning the
// evicted victim if a valid line had to be displaced, and ok=false if the
// set is entirely occupied by SM (write-set) lines — which forces a
// capacity abort in a running transaction, matching hardware behavior.
// Victim preference: invalid way, then least-recently-used non-SM line,
// then least-recently-used SM line (only taken when the caller permits it
// by not being in a transaction; the caller decides what an SM eviction
// means).
func (c *Cache) Insert(line mem.Addr, st State, data mem.Line) (victim *Victim, evicted bool, ok bool) {
	line = line.Line()
	set := c.set(line)
	c.tick++
	// Already present: update in place.
	for i := range set {
		e := &set[i]
		if e.State != Invalid && e.Tag == line {
			e.State = st
			e.Data = data
			e.lru = c.tick
			return nil, false, true
		}
	}
	// Invalid way.
	for i := range set {
		if set[i].State == Invalid {
			set[i] = Entry{Tag: line, State: st, Data: data, lru: c.tick}
			return nil, false, true
		}
	}
	// LRU among non-SM lines.
	best := -1
	for i := range set {
		if set[i].sm {
			continue
		}
		if best == -1 || set[i].lru < set[best].lru {
			best = i
		}
	}
	if best == -1 {
		// Every way holds a write-set line: transactional overflow.
		c.Stats.SMEvictTries++
		return nil, false, false
	}
	v := &Victim{Tag: set[best].Tag, State: set[best].State, Dirty: set[best].Dirty,
		SM: set[best].sm, Spec: set[best].Spec, Data: set[best].Data}
	set[best] = Entry{Tag: line, State: st, Data: data, lru: c.tick}
	c.Stats.Evictions++
	return v, true, true
}

// Invalidate removes line from the cache, returning the entry it held.
func (c *Cache) Invalidate(line mem.Addr) (Entry, bool) {
	line = line.Line()
	set := c.set(line)
	for i := range set {
		e := &set[i]
		if e.State != Invalid && e.Tag == line {
			old := *e
			*e = Entry{}
			return old, true
		}
	}
	return Entry{}, false
}

// MarkSM sets the SM bit of the resident line, records its way in the
// SM index, and returns its entry. It panics if the line is not
// resident.
func (c *Cache) MarkSM(line mem.Addr) *Entry {
	line = line.Line()
	si := c.setIndex(line)
	set := c.sets[si]
	for i := range set {
		e := &set[i]
		if e.State != Invalid && e.Tag == line {
			if !e.sm {
				e.sm = true
				c.smIdx = append(c.smIdx, int32(si*len(set)+i))
			}
			return e
		}
	}
	panic(fmt.Sprintf("cache: MarkSM of non-resident line %#x", uint64(line)))
}

// GangInvalidateSM drops every SM line in one shot (the conditional gang
// invalidation an aborting best-effort transaction performs) and returns
// how many lines were dropped.
func (c *Cache) GangInvalidateSM() int {
	n := 0
	for _, p := range c.smIdx {
		e := &c.lines[p]
		if e.State != Invalid && e.sm {
			*e = Entry{}
			n++
		}
	}
	c.smIdx = c.smIdx[:0]
	return n
}

// CommitSM clears the SM and Spec bits on every write-set line at commit:
// the speculative values become the architectural ones, held dirty in M.
// It calls fn for each committed line, in the order the lines were
// marked, so the caller can propagate the committed value to the backing
// image.
func (c *Cache) CommitSM(fn func(line mem.Addr, data mem.Line)) int {
	n := 0
	for _, p := range c.smIdx {
		e := &c.lines[p]
		if e.State != Invalid && e.sm {
			e.sm = false
			e.Spec = false
			e.State = Modified
			e.Dirty = true
			n++
			if fn != nil {
				fn(e.Tag, e.Data)
			}
		}
	}
	c.smIdx = c.smIdx[:0]
	return n
}

// ForEach visits every valid entry. The callback must not insert or
// invalidate lines.
func (c *Cache) ForEach(fn func(e *Entry)) {
	for i := range c.lines {
		if c.lines[i].State != Invalid {
			fn(&c.lines[i])
		}
	}
}

// CountSM returns the number of SM lines currently held.
func (c *Cache) CountSM() int {
	n := 0
	c.ForEach(func(e *Entry) {
		if e.sm {
			n++
		}
	})
	return n
}
