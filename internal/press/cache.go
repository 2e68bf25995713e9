package press

import (
	"vivo/internal/osmodel"
)

// Cache is PRESS's per-node LRU file cache. For zero-copy versions
// (VIA-PRESS-5) every cached file must be pinned in physical memory; when a
// pin request fails, the cache sheds least-recently-used entries — exactly
// the adaptive behaviour the paper observes under pinnable-memory
// exhaustion (§5.4).
type Cache struct {
	capacityFiles int
	fileSize      int64

	// pinning is non-nil when the cache must pin pages (zero-copy).
	pinning *osmodel.OS

	entries map[int]*lruEntry
	head    *lruEntry // most recently used
	tail    *lruEntry // least recently used

	// evicted collects files dropped during the last Insert so the
	// server can broadcast the evictions.
	evicted []int
}

type lruEntry struct {
	file       int
	prev, next *lruEntry
}

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
		entries:       make(map[int]*lruEntry),
	}
}

// Len returns the number of cached files.
func (c *Cache) Len() int { return len(c.entries) }

// Contains reports whether file is cached, without touching recency.
func (c *Cache) Contains(file int) bool {
	_, ok := c.entries[file]
	return ok
}

// Touch marks a hit, moving the file to the MRU position. It returns false
// on a miss.
func (c *Cache) Touch(file int) bool {
	e, ok := c.entries[file]
	if !ok {
		return false
	}
	c.moveToFront(e)
	return true
}

// Insert caches a file, evicting LRU entries as needed for capacity and —
// when pinning — for pinnable memory. It returns the list of evicted files
// (for broadcast) and whether the insert succeeded; failure means the file
// could not be pinned even with an empty cache.
func (c *Cache) Insert(file int) (evicted []int, ok bool) {
	c.evicted = c.evicted[:0]
	if _, dup := c.entries[file]; dup {
		c.Touch(file)
		return nil, true
	}
	for len(c.entries) >= c.capacityFiles {
		if !c.evictLRU() {
			break
		}
	}
	if c.pinning != nil {
		// Shed entries until the new file's pages pin, mirroring
		// VIA-PRESS-5 dropping files to relieve memory pressure.
		for c.pinning.Pin(c.fileSize) != nil {
			if !c.evictLRU() {
				return append([]int(nil), c.evicted...), false
			}
		}
	}
	e := &lruEntry{file: file}
	c.entries[file] = e
	c.pushFront(e)
	return append([]int(nil), c.evicted...), true
}

// Drop removes a specific file (e.g. on remote authority changes); it
// unpins if pinning. Returns whether it was present.
func (c *Cache) Drop(file int) bool {
	e, ok := c.entries[file]
	if !ok {
		return false
	}
	c.unlink(e)
	delete(c.entries, file)
	if c.pinning != nil {
		c.pinning.Unpin(c.fileSize)
	}
	return true
}

// DropAll empties the cache, unpinning everything (process teardown).
func (c *Cache) DropAll() {
	if c.pinning != nil {
		c.pinning.Unpin(int64(len(c.entries)) * c.fileSize)
	}
	c.entries = make(map[int]*lruEntry)
	c.head, c.tail = nil, nil
}

func (c *Cache) evictLRU() bool {
	if c.tail == nil {
		return false
	}
	e := c.tail
	c.unlink(e)
	delete(c.entries, e.file)
	if c.pinning != nil {
		c.pinning.Unpin(c.fileSize)
	}
	c.evicted = append(c.evicted, e.file)
	return true
}

func (c *Cache) pushFront(e *lruEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) unlink(e *lruEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Cache) moveToFront(e *lruEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}
