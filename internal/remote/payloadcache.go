package remote

import (
	"strings"
	"sync"
)

// payloadCache is a size-bounded, refcounted cache of *encoded response
// segments*: the exact net.Buffers chunks a RespOK FilePayload frame is
// scatter-sent from, built once per (path, vars) and reused verbatim until
// the underlying snapshot file changes. It is the server's only cache — a
// hit skips the file open, the SHDF directory walk, the CRC validation and
// the segment encoding entirely, so N clients (or push subscribers fanning
// out on one hot ingested file) cost one read instead of N.
//
// An entry owns a handle on the mapped snapshot file its segments alias:
// done, handed over by insert, closes it, releasing the entry's reference
// on the server reader's mapping. Every response writer using an entry's
// segments pins it (acquire / insert) and releases it once the frame has
// left the socket. A pinned entry is never evicted
// and its done never runs; the last unpin of a doomed entry runs it.
// Eviction is second-chance CLOCK over the insertion ring: a hit sets the
// entry's used bit, the hand clears it on first pass and evicts on second.
//
// Invalidation is wired into the OpIngest temp+rename path: ingest bumps
// the path's generation and dooms its live entries, and insert refuses any
// segments built against a stale generation — a fetch that read the old
// bytes can still serve its own response, but can never cache it.
//
// payloadCache.mu is a leaf in the documented lock order (DESIGN.md
// appendix): nothing blocks and no other GODIVA mutex is acquired while it
// is held — handle closes collected under the lock run after unlock.
type payloadCache struct {
	mu   sync.Mutex
	max  int64 // byte budget for cached segments; <= 0 caches nothing
	size int64
	ents map[string]*payloadEntry
	ring []*payloadEntry // CLOCK ring, insertion order
	hand int
	gens map[string]uint64 // per-path invalidation generation

	hits, misses, evicts, bytesServed int64
}

// fetchKey is the payload cache key of a (path, vars) fetch.
func fetchKey(path string, vars []string) string {
	return path + "\x00" + strings.Join(vars, "\x00")
}

// payloadEntry is one cached encoded response: the segment list of one
// file's item body (offsets relative to the body start, which every OpFetch
// response item keeps 8-byte aligned).
type payloadEntry struct {
	key  string // path + NUL + vars
	path string // request path, for invalidation
	segs [][]byte
	size int64  // total payload bytes across segs
	done func() // closes the handle on the mapping the segments borrow from

	pins   int  // response writers currently sending these segments
	used   bool // CLOCK second-chance bit
	doomed bool // invalidated while pinned; done on last release
}

func newPayloadCache(max int64) *payloadCache {
	return &payloadCache{
		max:  max,
		ents: make(map[string]*payloadEntry),
		gens: make(map[string]uint64),
	}
}

// counters snapshots the cache's operation counters.
func (pc *payloadCache) counters() (hits, misses, evicts, bytesServed int64) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.hits, pc.misses, pc.evicts, pc.bytesServed
}

// gen returns path's current invalidation generation. A fetch that misses
// captures it before reading, and insert refuses segments whose generation
// has moved — bytes read before a concurrent ingest landed must not be
// cached after it.
func (pc *payloadCache) gen(path string) uint64 {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.gens[path]
}

// acquire pins and returns the cached entry for key. The caller must
// release it once the response frame has been written. A miss is counted
// and returns nil.
func (pc *payloadCache) acquire(key string) *payloadEntry {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	e, ok := pc.ents[key]
	if !ok {
		pc.misses++
		return nil
	}
	e.pins++
	e.used = true
	pc.hits++
	pc.bytesServed += e.size
	return e
}

// insert caches freshly encoded segments and returns the entry pinned for
// the caller's own response write (pair with release). done closes the
// handle the segments borrow from; the cache owns it from here on — it
// runs when the entry is evicted or invalidated and unpinned. insert
// declines (returning nil, with done NOT consumed) when the cache cannot
// hold the entry: the path's generation moved since gen was read, an entry
// for the key already exists (a racing builder won), or the segments exceed
// the whole budget (always, for a cache with no budget). Eviction of colder
// entries makes room, CLOCK-style; when everything else is pinned the cache
// temporarily exceeds its budget.
func (pc *payloadCache) insert(key, path string, gen uint64, segs [][]byte, size int64, done func()) *payloadEntry {
	var freed []func()
	pc.mu.Lock()
	if pc.gens[path] != gen || pc.ents[key] != nil || size > pc.max {
		pc.mu.Unlock()
		return nil
	}
	e := &payloadEntry{key: key, path: path, segs: segs, size: size, done: done, pins: 1, used: true}
	pc.ents[key] = e
	pc.ring = append(pc.ring, e)
	pc.size += size
	freed = pc.evictLocked()
	pc.mu.Unlock()
	for _, f := range freed {
		f()
	}
	return e
}

// evictLocked runs the CLOCK hand until the cache fits its budget or every
// remaining entry is pinned or freshly referenced, returning the evicted
// entries' handle closes for the caller to run outside the lock.
func (pc *payloadCache) evictLocked() []func() {
	var freed []func()
	scanned := 0
	for pc.size > pc.max && len(pc.ring) > 1 && scanned < 2*len(pc.ring) {
		if pc.hand >= len(pc.ring) {
			pc.hand = 0
		}
		e := pc.ring[pc.hand]
		switch {
		case e.pins > 0:
			pc.hand++
		case e.used:
			e.used = false
			pc.hand++
		default:
			pc.removeLocked(e)
			pc.evicts++
			if e.done != nil {
				freed = append(freed, e.done)
			}
		}
		scanned++
	}
	return freed
}

// removeLocked unlinks e from the map and the ring (order-preserving, so
// the CLOCK hand keeps sweeping in insertion order).
func (pc *payloadCache) removeLocked(e *payloadEntry) {
	delete(pc.ents, e.key)
	for i, r := range pc.ring {
		if r == e {
			pc.ring = append(pc.ring[:i], pc.ring[i+1:]...)
			if pc.hand > i {
				pc.hand--
			}
			break
		}
	}
	pc.size -= e.size
}

// release unpins an entry obtained from acquire or insert. The last unpin
// of a doomed entry (invalidated mid-send) closes its handle — the old
// mapping stays referenced until every in-flight frame borrowing it has
// been written.
func (pc *payloadCache) release(e *payloadEntry) {
	var done func()
	pc.mu.Lock()
	e.pins--
	if e.doomed && e.pins == 0 {
		done = e.done
		e.done = nil
	}
	pc.mu.Unlock()
	if done != nil {
		done()
	}
}

// invalidate drops every entry serving path after its file is replaced on
// disk (the OpIngest temp+rename path), and bumps the path's generation so
// in-flight builders cannot re-cache the old bytes. Pinned entries keep
// serving their in-flight frames and are torn down on the last release.
func (pc *payloadCache) invalidate(path string) {
	var freed []func()
	pc.mu.Lock()
	pc.gens[path]++
	for _, e := range pc.ents {
		if e.path != path {
			continue
		}
		pc.removeLocked(e)
		pc.evicts++
		if e.pins > 0 {
			e.doomed = true
		} else if e.done != nil {
			freed = append(freed, e.done)
			e.done = nil
		}
	}
	pc.mu.Unlock()
	for _, f := range freed {
		f()
	}
}

// closeAll tears the cache down with the server: every entry's handle is
// closed (server shutdown has already severed the connections any pinned
// entry was serving).
func (pc *payloadCache) closeAll() {
	var freed []func()
	pc.mu.Lock()
	for _, e := range pc.ents {
		if e.done != nil {
			freed = append(freed, e.done)
			e.done = nil
		}
	}
	pc.ents = make(map[string]*payloadEntry)
	pc.ring = nil
	pc.size = 0
	pc.hand = 0
	pc.mu.Unlock()
	for _, f := range freed {
		f()
	}
}
