package press

import (
	"vivo/internal/osmodel"
)

// Cache is PRESS's per-node LRU file cache. For zero-copy versions
// (VIA-PRESS-5) every cached file must be pinned in physical memory; when a
// pin request fails, the cache sheds least-recently-used entries — exactly
// the adaptive behaviour the paper observes under pinnable-memory
// exhaustion (§5.4).
//
// File ids are dense (a trace draws them from 0..Files-1), so the cache
// indexes entries by id in a slice and links them by arena index: no map,
// and no allocation per cached file.
type Cache struct {
	capacityFiles int
	fileSize      int64

	// pinning is non-nil when the cache must pin pages (zero-copy).
	pinning *osmodel.OS

	// slot[f] is 1 + the arena index of file f's entry, or 0 when f is
	// not cached. It grows on demand for ids past its reserved size.
	slot []int32
	// ents is the entry arena. Cached entries form a list through
	// prev/next (arena indices, or noEntry) from head, the most recently
	// used, to tail; freed entries chain through next from free.
	ents             []lruEntry
	head, tail, free int32
	n                int

	// evicted collects files dropped during the last Insert so the
	// server can broadcast the evictions.
	evicted []int
}

type lruEntry struct {
	file       int
	prev, next int32
}

// noEntry is the null arena index.
const noEntry = -1

// NewCache builds a cache holding capacityBytes worth of fileSize files.
// If pinOS is non-nil, insertions pin file pages through it.
func NewCache(capacityBytes, fileSize int64, pinOS *osmodel.OS) *Cache {
	if fileSize <= 0 || capacityBytes <= 0 {
		panic("press: bad cache sizing")
	}
	return &Cache{
		capacityFiles: int(capacityBytes / fileSize),
		fileSize:      fileSize,
		pinning:       pinOS,
		head:          noEntry,
		tail:          noEntry,
		free:          noEntry,
	}
}

// reserve sizes the id index for files 0..files-1 and the arena for as
// many of them as fit, so filling the cache allocates nothing more.
func (c *Cache) reserve(files int) {
	if files > len(c.slot) {
		c.slot = append(c.slot, make([]int32, files-len(c.slot))...)
	}
	if want := min(files, c.capacityFiles); want > cap(c.ents) {
		ents := make([]lruEntry, len(c.ents), want)
		copy(ents, c.ents)
		c.ents = ents
	}
}

// Len returns the number of cached files.
func (c *Cache) Len() int { return c.n }

// index returns file's arena index, or noEntry.
func (c *Cache) index(file int) int32 {
	if file < 0 || file >= len(c.slot) {
		return noEntry
	}
	return c.slot[file] - 1
}

// Contains reports whether file is cached, without touching recency.
func (c *Cache) Contains(file int) bool { return c.index(file) != noEntry }

// Touch marks a hit, moving the file to the MRU position. It returns false
// on a miss.
func (c *Cache) Touch(file int) bool {
	i := c.index(file)
	if i == noEntry {
		return false
	}
	if c.head != i {
		c.unlink(i)
		c.pushFront(i)
	}
	return true
}

// Insert caches a file, evicting LRU entries as needed for capacity and —
// when pinning — for pinnable memory. It returns the list of evicted files
// (for broadcast) and whether the insert succeeded; failure means the file
// could not be pinned even with an empty cache. The list is the cache's
// own storage: it stays valid until the next call.
func (c *Cache) Insert(file int) (evicted []int, ok bool) {
	if file < 0 {
		panic("press: negative file id")
	}
	c.evicted = c.evicted[:0]
	if c.Touch(file) {
		return nil, true
	}
	for c.n >= c.capacityFiles {
		if !c.evictLRU() {
			break
		}
	}
	if c.pinning != nil {
		// Shed entries until the new file's pages pin, mirroring
		// VIA-PRESS-5 dropping files to relieve memory pressure.
		for c.pinning.Pin(c.fileSize) != nil {
			if !c.evictLRU() {
				return c.evicted, false
			}
		}
	}
	i := c.free
	if i != noEntry {
		c.free = c.ents[i].next
		c.ents[i].file = file
	} else {
		i = int32(len(c.ents))
		c.ents = append(c.ents, lruEntry{file: file})
	}
	if file >= len(c.slot) {
		c.slot = append(c.slot, make([]int32, file+1-len(c.slot))...)
	}
	c.slot[file] = i + 1
	c.pushFront(i)
	c.n++
	return c.evicted, true
}

// Drop removes a specific file (e.g. on remote authority changes); it
// unpins if pinning. Returns whether it was present.
func (c *Cache) Drop(file int) bool {
	i := c.index(file)
	if i == noEntry {
		return false
	}
	c.remove(i)
	if c.pinning != nil {
		c.pinning.Unpin(c.fileSize)
	}
	return true
}

// DropAll empties the cache, unpinning everything (process teardown).
func (c *Cache) DropAll() {
	if c.pinning != nil {
		c.pinning.Unpin(int64(c.n) * c.fileSize)
	}
	for i := c.head; i != noEntry; i = c.ents[i].next {
		c.slot[c.ents[i].file] = 0
	}
	c.ents = c.ents[:0]
	c.head, c.tail, c.free = noEntry, noEntry, noEntry
	c.n = 0
}

func (c *Cache) evictLRU() bool {
	i := c.tail
	if i == noEntry {
		return false
	}
	file := c.ents[i].file
	c.remove(i)
	if c.pinning != nil {
		c.pinning.Unpin(c.fileSize)
	}
	c.evicted = append(c.evicted, file)
	return true
}

// remove unlinks entry i, clears its id slot and frees it.
func (c *Cache) remove(i int32) {
	c.unlink(i)
	c.slot[c.ents[i].file] = 0
	c.ents[i].next = c.free
	c.free = i
	c.n--
}

func (c *Cache) pushFront(i int32) {
	e := &c.ents[i]
	e.prev = noEntry
	e.next = c.head
	if c.head != noEntry {
		c.ents[c.head].prev = i
	}
	c.head = i
	if c.tail == noEntry {
		c.tail = i
	}
}

func (c *Cache) unlink(i int32) {
	e := &c.ents[i]
	if e.prev != noEntry {
		c.ents[e.prev].next = e.next
	} else {
		c.head = e.next
	}
	if e.next != noEntry {
		c.ents[e.next].prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = noEntry, noEntry
}
