// A shared int32 arena with size-classed fragments and intrusive freelists —
// the backing store for every per-set and per-element collection of the
// solver (member lists, covers, bucket contents, element→set transposes).
//
// Motivation: the solver used to keep all of those as nested
// map[int]map[int]bool, which made every element move and cover handoff a
// chain of map inserts/deletes — the dominant source of steady-state
// allocations and cache misses in the FD-RMS update path. Here each
// collection is a sorted []int32 fragment ("span") carved from one shared
// slab; fragments grow by size class and freed fragments are recycled
// through a per-class freelist threaded through the slab itself (the first
// word of a free fragment holds the offset of the next free fragment), so a
// warmed solver recycles storage instead of allocating. The slab only ever
// grows at the tail; offsets stay valid across growth.
package setcover

import (
	"math"
	"math/bits"
	"slices"
)

// slabClasses bounds the size-class ladder: class c (1-based) holds
// fragments of capacity 2<<c (4, 8, 16, ... ~2^28 values).
const slabClasses = 28

// span is one fragment of the slab: a sorted run of n int32 values starting
// at off, with capacity 2<<cls. The zero span is empty and owns no storage
// (cls == 0).
type span struct {
	off int32
	n   int32
	cls int8
}

// spanCap returns the capacity of a size class (0 for the storage-free
// class 0).
func spanCap(cls int8) int {
	if cls == 0 {
		return 0
	}
	return 2 << cls
}

// classFor returns the smallest class whose capacity holds n values.
func classFor(n int) int8 {
	if n <= 4 {
		return 1
	}
	cls := int8(bits.Len(uint(n-1)) - 1)
	if cls >= slabClasses {
		panic("setcover: collection exceeds the slab capacity ladder (2^28 values)")
	}
	return cls
}

// slab is the shared arena. data grows only at the tail (amortized, via
// slices.Grow), so span offsets remain valid forever; free[c] heads the
// intrusive freelist of class c (-1 when empty).
//
// The header is padded onto exclusive cache lines: the data slice header is
// rewritten on every fresh carve, the freelist heads on every alloc/release
// and the traffic counters beside data on both, making these the hottest
// write targets of cover maintenance.
// The slab is embedded at the head of Solver, so without the padding those
// writes share cache lines with the solver's id-translation maps — read on
// every operation, including by whatever runs concurrently with the solver
// on other cores (frozen-stats readers above, topk shard workers whose
// engine the caller lays out next to the solver). 64-byte alignment of the
// struct itself is up to the allocator, but separating the write-hot words
// from everything read-hot removes the systematic ping-pong; the three
// lines of padding cost nothing at one slab per solver.
type slab struct {
	data []int32
	// Allocation traffic (see Counters): freelist hits, fresh carves,
	// releases, and the words of currently allocated fragments.
	reuse, fresh, releases, live int
	_                            [8]byte // data and the counters alone on one cache line

	free [slabClasses]int32
	_    [16]byte // round the freelist heads up to whole cache lines
}

func (a *slab) init() {
	for i := range a.free {
		a.free[i] = -1
	}
}

// alloc hands out a fragment of the given class: recycled from the class
// freelist when possible, carved fresh from the tail otherwise.
func (a *slab) alloc(cls int8) int32 {
	if h := a.free[cls]; h >= 0 {
		a.free[cls] = a.data[h]
		a.reuse++
		a.live += spanCap(cls)
		return h
	}
	n := spanCap(cls)
	off := len(a.data)
	if off+n > math.MaxInt32 {
		// Offsets are int32; past ~2^31 total values a truncated offset
		// would silently alias another fragment. Fail loudly instead.
		panic("setcover: slab exceeds the int32 offset range")
	}
	if cap(a.data)-off < n {
		a.data = slices.Grow(a.data, n)
	}
	a.data = a.data[:off+n]
	a.fresh++
	a.live += n
	return int32(off)
}

// release threads a fragment onto its class freelist.
func (a *slab) release(off int32, cls int8) {
	a.data[off] = a.free[cls]
	a.free[cls] = off
	a.releases++
	a.live -= spanCap(cls)
}

// view returns the live values of sp. The slice aliases the slab: it stays
// value-correct across tail growth (the old backing array survives), but
// callers must not mutate sp itself while iterating.
func (a *slab) view(sp span) []int32 {
	return a.data[sp.off : sp.off+sp.n]
}

// grow moves sp into the next size class, preserving contents (class 0, the
// storage-free zero span, grows into class 1 like any other increment).
func (a *slab) grow(sp *span) {
	ncls := sp.cls + 1
	if ncls >= slabClasses {
		panic("setcover: collection exceeds the slab capacity ladder (2^28 values)")
	}
	noff := a.alloc(ncls)
	copy(a.data[noff:noff+sp.n], a.data[sp.off:sp.off+sp.n])
	if sp.cls != 0 {
		a.release(sp.off, sp.cls)
	}
	sp.off, sp.cls = noff, ncls
}

// insert adds v to the sorted fragment, reporting whether it was absent.
func (a *slab) insert(sp *span, v int32) bool {
	i, found := slices.BinarySearch(a.view(*sp), v)
	if found {
		return false
	}
	if int(sp.n) == spanCap(sp.cls) {
		a.grow(sp)
	}
	s := a.data[sp.off : sp.off+sp.n+1]
	copy(s[i+1:], s[i:])
	s[i] = v
	sp.n++
	return true
}

// remove deletes v from the sorted fragment, reporting whether it was
// present. An emptied fragment releases its storage.
func (a *slab) remove(sp *span, v int32) bool {
	s := a.view(*sp)
	i, found := slices.BinarySearch(s, v)
	if !found {
		return false
	}
	copy(s[i:], s[i+1:])
	sp.n--
	if sp.n == 0 {
		a.freeSpan(sp)
	}
	return true
}

// has reports whether v is in the fragment.
func (a *slab) has(sp span, v int32) bool {
	_, found := slices.BinarySearch(a.view(sp), v)
	return found
}

// freeSpan releases the fragment's storage and resets it to the zero span.
func (a *slab) freeSpan(sp *span) {
	if sp.cls != 0 {
		a.release(sp.off, sp.cls)
	}
	*sp = span{}
}

// allocN returns an empty span whose capacity holds at least n values —
// the bulk-load entry (LoadSet fills it unsorted, then sorts in place).
func (a *slab) allocN(n int) span {
	if n == 0 {
		return span{}
	}
	cls := classFor(n)
	return span{off: a.alloc(cls), n: 0, cls: cls}
}
