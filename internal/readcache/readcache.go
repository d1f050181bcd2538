// Package readcache is the NVM-resident block read cache (ROADMAP item 5):
// the paging-style complement to the oplog's logging-style extent index.
// Hot extents flushed out of the op log — and extents filled on a cold
// miss — are kept in a carved NVM region so a repeat read is served
// run-to-completion on the owning shard, zero-copy, without paying the
// backend device's read latency.
//
// Layout and policy:
//
//   - The region is divided into fixed slots of SlotBytes (default 4 KiB).
//     A cached extent is one slot-aligned block of one object, keyed by
//     (PG, object, block index). Unaligned reads resolve across adjacent
//     blocks with one scatter segment per block.
//   - Eviction is a segmented CLOCK (2Q-style): admissions enter the
//     probation level; a hit promotes to the protected level; the clock
//     hand clears reference bits and demotes protected entries before it
//     may evict them. A one-pass scan therefore flows through probation
//     without displacing the protected working set — scan resistance.
//   - Contents are deliberately volatile: cache bytes are never Persisted,
//     so NVM power loss reverts them with the bank, and a restarted OSD
//     builds a fresh (empty) index. The cache can never serve pre-crash
//     bytes.
//
// Consistency contract: a cached block must never shadow a newer staged
// write. The oplog staging lifecycle invalidates strictly — staging a
// write or delete drops every cached block of the object (Invalidate) and
// bumps the PG's fill generation; completing a flush bumps it again. An
// asynchronous fill (miss path) captures FillGen before reading the
// backend and the cache refuses the admission if the generation moved —
// so data read before a staged write or a flush can never be admitted
// after it. The bottom-half flush admission uses FlushGen, captured
// before TakeBatch, with the same rule.
package readcache

import (
	"errors"
	"sync"
	"sync/atomic"

	"rebloc/internal/metrics"
	"rebloc/internal/nvm"
	"rebloc/internal/wire"
)

// Defaults.
const (
	DefaultSlotBytes = 4096
	defaultShards    = 8

	// maxReadBlocks bounds how many blocks one Lookup composes; larger
	// reads bypass the cache (they amortise the device round trip anyway).
	maxReadBlocks = 16

	// genBuckets is the size of the per-PG generation tables. PGs hash
	// into buckets; collisions only cause spurious admission aborts,
	// never staleness.
	genBuckets = 4096
)

// Options configures a Cache.
type Options struct {
	// SlotBytes is the cache block size (default 4096). Reads spanning
	// several blocks compose one scatter segment per block.
	SlotBytes int
	// Shards is the internal lock-shard count (default 8). All blocks of
	// one object live in one shard, so invalidation is single-shard.
	Shards int
	// Verify, when non-nil, is consulted before any bytes are installed
	// into a slot (miss fills, flush admissions and patches alike): it
	// reports whether block — covering [off, off+len(block)) of the
	// object — matches the backend's integrity metadata. A false return
	// drops that admission (counted in VerifyRejects). The OSD wires the
	// store's block-checksum table here, so bytes that fail verification
	// can never be served at cache latency later.
	Verify func(pg uint32, oid wire.ObjectID, off uint64, block []byte) bool
}

// Stats counts cache activity.
type Stats struct {
	Hits          metrics.Counter
	Misses        metrics.Counter
	Admits        metrics.Counter
	Evictions     metrics.Counter
	Invalidations metrics.Counter // blocks dropped by strict invalidation
	FillAborts    metrics.Counter // admissions refused by a moved generation
	Patches       metrics.Counter // partially-covered resident blocks patched in place
	VerifyRejects metrics.Counter // admissions refused by the Verify hook
}

// Cache is the NVM-resident read cache of one OSD.
type Cache struct {
	slotBytes int
	verify    func(pg uint32, oid wire.ObjectID, off uint64, block []byte) bool
	buf       []byte // the whole region, sliced once (volatile view)
	shards    []*cshard
	stats     Stats
	occupied  atomic.Int64
	nslots    int

	// Per-PG admission generations (see package comment). fillGens moves
	// on stage-invalidate AND flush-complete; flushGens only on
	// stage-invalidate (a flush admitting its own batch must not abort
	// itself).
	fillGens  [genBuckets]atomic.Uint64
	flushGens [genBuckets]atomic.Uint64
}

// cshard is one lock shard: a set of slots plus the object index over
// them. Everything inside is guarded by mu.
type cshard struct {
	c  *Cache
	mu sync.Mutex

	ents  []*centry // by slot index; nil = free or reserved by a pinned dead entry
	free  []int
	hand  int
	base  int // first slot's global index (buf offset / SlotBytes)
	index map[uint64]*objNode
}

// objNode indexes one object's cached blocks, chained per hash bucket.
type objNode struct {
	pg     uint32
	oid    wire.ObjectID
	next   *objNode
	blocks []*centry // sorted by blk
}

// centry is one cached block occupying one slot.
type centry struct {
	obj  *objNode
	blk  uint64
	slot int    // shard-local slot index
	size uint32 // valid bytes from the block's start
	data []byte // aliases the NVM volatile view; len == size
	pins int32
	ref  bool
	prot bool // protected (2Q upper) level
	dead bool // invalidated while pinned; slot frees on last unpin
	// flushed marks a block whose bytes came from flush admission, not a
	// miss fill. Only these may be patched in place by a later flush: a
	// fill racing the drain's store-apply window can slip pre-flush bytes
	// in with a passing generation check, so fill-admitted blocks are
	// strictly dropped on overlap instead (see FlushAdmit).
	flushed bool
}

// centry structs are pooled; objNodes are not — invalidation walks a
// node's block list while dropping entries, and pooling the node would
// let another shard reuse it mid-walk. Nodes are small and admission-path
// garbage is acceptable (only the hit path must not allocate).
var centryPool = sync.Pool{New: func() any { return new(centry) }}

// ErrTooSmall reports a region that cannot hold even one slot per shard.
var ErrTooSmall = errors.New("readcache: region too small")

// New builds a cache over region. The region's contents are treated as
// garbage: the index starts empty, which is what makes a post-crash or
// post-restart cache trivially cold.
func New(region *nvm.Region, opts Options) (*Cache, error) {
	slot := opts.SlotBytes
	if slot <= 0 {
		slot = DefaultSlotBytes
	}
	nsh := opts.Shards
	if nsh <= 0 {
		nsh = defaultShards
	}
	nslots := int(region.Size()) / slot
	if nslots < nsh {
		return nil, ErrTooSmall
	}
	buf, err := region.Slice(0, nslots*slot)
	if err != nil {
		return nil, err
	}
	c := &Cache{slotBytes: slot, buf: buf, nslots: nslots, verify: opts.Verify}
	per := nslots / nsh
	for i := 0; i < nsh; i++ {
		n := per
		if i == nsh-1 {
			n = nslots - per*(nsh-1)
		}
		sh := &cshard{
			c:     c,
			ents:  make([]*centry, n),
			base:  per * i,
			index: make(map[uint64]*objNode),
		}
		sh.free = make([]int, 0, n)
		for s := n - 1; s >= 0; s-- {
			sh.free = append(sh.free, s)
		}
		c.shards = append(c.shards, sh)
	}
	return c, nil
}

// Stats exposes the cache counters.
func (c *Cache) Stats() *Stats { return &c.stats }

// Occupancy returns the number of occupied slots.
func (c *Cache) Occupancy() int64 { return c.occupied.Load() }

// Slots returns the total slot count.
func (c *Cache) Slots() int { return c.nslots }

// SlotBytes returns the cache block size.
func (c *Cache) SlotBytes() int { return c.slotBytes }

func objHash(pg uint32, oid wire.ObjectID) uint64 {
	return oid.Hash() ^ (uint64(pg)+1)*0x9E3779B97F4A7C15
}

func (c *Cache) shardFor(h uint64) *cshard {
	return c.shards[(h>>32)%uint64(len(c.shards))]
}

func genIdx(pg uint32) uint32 { return pg & (genBuckets - 1) }

// FillGen returns the PG's fill generation. Capture it BEFORE reading the
// backend store; pass it to AdmitFill.
func (c *Cache) FillGen(pg uint32) uint64 { return c.fillGens[genIdx(pg)].Load() }

// FlushGen returns the PG's flush generation. Capture it BEFORE TakeBatch;
// pass it to FlushAdmit.
func (c *Cache) FlushGen(pg uint32) uint64 { return c.flushGens[genIdx(pg)].Load() }

// BumpFill moves the PG's fill generation, aborting every in-flight miss
// fill that captured an older one. Called when a flush completes (the
// backend's contents moved under any concurrent fill read).
func (c *Cache) BumpFill(pg uint32) { c.fillGens[genIdx(pg)].Add(1) }

func (c *Cache) bumpBoth(pg uint32) {
	c.fillGens[genIdx(pg)].Add(1)
	c.flushGens[genIdx(pg)].Add(1)
}

// slotData returns the NVM bytes of a shard-local slot.
func (sh *cshard) slotData(slot int) []byte {
	off := (sh.base + slot) * sh.c.slotBytes
	return sh.c.buf[off : off+sh.c.slotBytes : off+sh.c.slotBytes]
}

// findNode locates the object's node in the index. Caller holds mu.
func (sh *cshard) findNode(h uint64, pg uint32, oid wire.ObjectID) *objNode {
	n := sh.index[h]
	for n != nil && (n.pg != pg || n.oid != oid) {
		n = n.next
	}
	return n
}

// findBlock binary-searches the node's sorted block list. Caller holds mu.
func (n *objNode) findBlock(blk uint64) *centry {
	lo, hi := 0, len(n.blocks)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if n.blocks[mid].blk < blk {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(n.blocks) && n.blocks[lo].blk == blk {
		return n.blocks[lo]
	}
	return nil
}

// insertBlock splices e into the node's sorted block list. Caller holds mu.
func (n *objNode) insertBlock(e *centry) {
	lo, hi := 0, len(n.blocks)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if n.blocks[mid].blk < e.blk {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	n.blocks = append(n.blocks, nil)
	copy(n.blocks[lo+1:], n.blocks[lo:])
	n.blocks[lo] = e
}

// removeBlock detaches e from its node, dropping the node from the index
// when it empties. Caller holds mu.
func (sh *cshard) removeBlock(e *centry) {
	n := e.obj
	for i, b := range n.blocks {
		if b == e {
			copy(n.blocks[i:], n.blocks[i+1:])
			n.blocks[len(n.blocks)-1] = nil
			n.blocks = n.blocks[:len(n.blocks)-1]
			break
		}
	}
	e.obj = nil
	if len(n.blocks) == 0 {
		sh.unlinkNode(n)
	}
}

func (sh *cshard) unlinkNode(n *objNode) {
	h := objHash(n.pg, n.oid)
	cur := sh.index[h]
	if cur == n {
		if n.next == nil {
			delete(sh.index, h)
		} else {
			sh.index[h] = n.next
		}
	} else {
		for cur != nil && cur.next != n {
			cur = cur.next
		}
		if cur != nil {
			cur.next = n.next
		}
	}
	n.next = nil
}

// dropEntry invalidates one block: detach it from the index and free its
// slot — unless pinned, in which case the slot stays reserved (ents keeps
// the entry so the clock skips it) and frees on the last Release.
// Caller holds mu.
func (sh *cshard) dropEntry(e *centry) {
	sh.removeBlock(e)
	sh.c.occupied.Add(-1)
	if e.pins > 0 {
		e.dead = true
		return
	}
	sh.freeSlot(e)
}

// freeSlot returns an unpinned, detached entry's slot to the free list.
// Caller holds mu.
func (sh *cshard) freeSlot(e *centry) {
	sh.ents[e.slot] = nil
	sh.free = append(sh.free, e.slot)
	*e = centry{}
	centryPool.Put(e)
}

// takeSlot returns a free slot, evicting via the segmented clock when
// none is free. -1 when every slot is pinned. Caller holds mu.
func (sh *cshard) takeSlot() int {
	if n := len(sh.free); n > 0 {
		s := sh.free[n-1]
		sh.free = sh.free[:n-1]
		return s
	}
	// Segmented CLOCK, probation first: the victim search never touches a
	// protected entry while any probation entry is evictable, so a scan's
	// one-touch admissions fight only over the probation space and the
	// protected working set survives arbitrary scan lengths.
	for scanned := 0; scanned < 2*len(sh.ents)+1; scanned++ {
		i := sh.hand
		sh.hand++
		if sh.hand == len(sh.ents) {
			sh.hand = 0
		}
		e := sh.ents[i]
		if e == nil || e.pins > 0 || e.prot {
			continue
		}
		if e.ref {
			e.ref = false
			continue
		}
		if s := sh.evict(e); s >= 0 {
			return s
		}
	}
	// Everything resident is protected: demote via the clock. A victim must
	// survive a reference clear and a demotion, so 3 sweeps bound the search.
	for scanned := 0; scanned < 3*len(sh.ents)+1; scanned++ {
		i := sh.hand
		sh.hand++
		if sh.hand == len(sh.ents) {
			sh.hand = 0
		}
		e := sh.ents[i]
		if e == nil || e.pins > 0 {
			continue
		}
		if e.ref {
			e.ref = false
			continue
		}
		if e.prot {
			e.prot = false
			continue
		}
		if s := sh.evict(e); s >= 0 {
			return s
		}
	}
	return -1
}

// evict reclaims an unpinned victim's slot. Caller holds mu.
func (sh *cshard) evict(e *centry) int {
	sh.removeBlock(e)
	sh.c.occupied.Add(-1)
	sh.c.stats.Evictions.Inc()
	slot := e.slot
	sh.ents[slot] = nil
	*e = centry{}
	centryPool.Put(e)
	return slot
}

// Invalidate strictly drops every cached block of the object and moves
// both PG generations. Wired to the oplog stage hook: it runs before the
// staging append returns, so no read ordered after the write can hit a
// pre-write block.
func (c *Cache) Invalidate(pg uint32, oid wire.ObjectID) {
	c.bumpBoth(pg)
	h := objHash(pg, oid)
	sh := c.shardFor(h)
	sh.mu.Lock()
	n := sh.findNode(h, pg, oid)
	for n != nil && len(n.blocks) > 0 {
		c.stats.Invalidations.Inc()
		sh.dropEntry(n.blocks[len(n.blocks)-1])
	}
	sh.mu.Unlock()
}

// InvalidatePG drops every cached block of the PG (backfill/peering: the
// store's contents may have moved without passing through the oplog).
func (c *Cache) InvalidatePG(pg uint32) {
	c.bumpBoth(pg)
	for _, sh := range c.shards {
		sh.mu.Lock()
		for _, e := range sh.ents {
			if e != nil && !e.dead && e.obj != nil && e.obj.pg == pg {
				c.stats.Invalidations.Inc()
				sh.dropEntry(e)
			}
		}
		sh.mu.Unlock()
	}
}

// admitLocked installs one block. data covers [blk*SlotBytes,
// blk*SlotBytes+len(data)) of the object; len(data) <= SlotBytes. The
// installed entry is returned (nil when every slot is pinned) and is
// always marked un-flushed — flush admission upgrades it afterwards.
// Caller holds sh.mu.
func (sh *cshard) admitLocked(h uint64, pg uint32, oid wire.ObjectID, blk uint64, data []byte) *centry {
	c := sh.c
	n := sh.findNode(h, pg, oid)
	if n != nil {
		if e := n.findBlock(blk); e != nil {
			if e.pins == 0 {
				// In-place refresh: no reader aliases the slot bytes.
				copy(sh.slotData(e.slot), data)
				e.size = uint32(len(data))
				e.data = sh.slotData(e.slot)[:len(data):len(data)]
				e.ref = true
				e.flushed = false
				c.stats.Admits.Inc()
				return e
			}
			// A pinned reader aliases the old bytes: retire the old entry
			// and install the fresh data in a new slot.
			sh.dropEntry(e)
			n = sh.findNode(h, pg, oid) // dropEntry may unlink an emptied node
		}
	}
	slot := sh.takeSlot()
	if slot < 0 {
		return nil // every slot pinned; skip the admission
	}
	if n == nil {
		n = &objNode{pg: pg, oid: oid, next: sh.index[h]}
		sh.index[h] = n
	}
	copy(sh.slotData(slot), data)
	e := centryPool.Get().(*centry)
	e.obj = n
	e.blk = blk
	e.slot = slot
	e.size = uint32(len(data))
	e.data = sh.slotData(slot)[:len(data):len(data)]
	e.pins = 0
	e.ref = false
	e.prot = false // probation: a scan's one-touch blocks evict first
	e.dead = false
	e.flushed = false
	sh.ents[slot] = e
	n.insertBlock(e)
	c.occupied.Add(1)
	c.stats.Admits.Inc()
	return e
}

// AdmitFill admits the result of a cold-miss fill: data covers [off,
// off+len(data)) of the object, off slot-aligned. Every fully- or
// tail-covered block is installed, unless the PG's fill generation moved
// since gen was captured (a write staged or a flush completed — the data
// may predate it and is discarded).
func (c *Cache) AdmitFill(pg uint32, gen uint64, oid wire.ObjectID, off uint64, data []byte) {
	slot := uint64(c.slotBytes)
	if off%slot != 0 || len(data) == 0 {
		return
	}
	h := objHash(pg, oid)
	sh := c.shardFor(h)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if c.fillGens[genIdx(pg)].Load() != gen {
		c.stats.FillAborts.Inc()
		return
	}
	for b := off / slot; b*slot < off+uint64(len(data)); b++ {
		lo := b*slot - off
		hi := lo + slot
		if hi > uint64(len(data)) {
			hi = uint64(len(data))
		}
		if c.verify != nil && !c.verify(pg, oid, b*slot, data[lo:hi]) {
			c.stats.VerifyRejects.Inc()
			continue
		}
		sh.admitLocked(h, pg, oid, b, data[lo:hi])
	}
}

// FlushAdmit is the bottom half's admission: the drain promotes extents it
// just made durable, so a freshly-flushed hot block never goes cold. When
// the PG's flush generation still matches the one captured before
// TakeBatch, fully-covered blocks are (re)admitted and partially-covered
// flush-admitted resident blocks are patched in place — the flush's bytes
// are authoritative for the covered sub-range, and a flush-admitted
// remainder is current because every write staged since its admission is
// in this very batch (the generation would have moved otherwise). A
// fill-admitted resident block gets no such guarantee: a miss fill that
// read the store before this batch's apply can admit with a passing fill
// generation until the flush completion bumps it, so its remainder may
// predate the flush — those blocks are strictly dropped on partial
// overlap, exactly the pre-patch behavior. When the generation moved, a
// newer write staged since TakeBatch: every overlapped resident block is
// strictly dropped and nothing is admitted.
func (c *Cache) FlushAdmit(pg uint32, gen uint64, oid wire.ObjectID, off uint64, data []byte) {
	slot := uint64(c.slotBytes)
	end := off + uint64(len(data))
	h := objHash(pg, oid)
	sh := c.shardFor(h)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if c.flushGens[genIdx(pg)].Load() != gen {
		if n := sh.findNode(h, pg, oid); n != nil {
			for b := off / slot; b*slot < end; b++ {
				if e := n.findBlock(b); e != nil {
					c.stats.Invalidations.Inc()
					sh.dropEntry(e)
				}
				if len(n.blocks) == 0 {
					break
				}
			}
		}
		c.stats.FillAborts.Inc()
		return
	}
	for b := off / slot; b*slot < end; b++ {
		blkStart := b * slot
		lo := uint64(0)
		if off > blkStart {
			lo = off - blkStart
		}
		hi := slot
		if end < blkStart+slot {
			hi = end - blkStart
		}
		seg := data[blkStart+lo-off : blkStart+hi-off]
		if c.verify != nil && !c.verify(pg, oid, blkStart+lo, seg) {
			c.stats.VerifyRejects.Inc()
			continue
		}
		if lo == 0 && hi == slot {
			if e := sh.admitLocked(h, pg, oid, b, seg); e != nil {
				e.flushed = true
			}
			continue
		}
		sh.patchLocked(h, pg, oid, b, lo, seg)
	}
}

// patchLocked patches a partially-covered resident block: seg covers
// [lo, lo+len(seg)) within block blk. A patch starting past the entry's
// valid prefix would leave a hole of undefined bytes, so that case drops
// the block instead. Pinned readers alias the slot bytes zero-copy, so a
// pinned entry is rebuilt in a fresh slot (old bytes copied, then
// patched) and the old entry retired, mirroring admitLocked. Absent
// blocks are not admitted — a partial segment cannot seed a full block.
// Caller holds sh.mu.
func (sh *cshard) patchLocked(h uint64, pg uint32, oid wire.ObjectID, blk, lo uint64, seg []byte) {
	c := sh.c
	n := sh.findNode(h, pg, oid)
	if n == nil {
		return
	}
	e := n.findBlock(blk)
	if e == nil {
		return
	}
	if !e.flushed || lo > uint64(e.size) {
		// Not flush-admitted: the resident bytes may be a miss fill that
		// raced the drain's store apply and carries pre-flush data outside
		// the patched range — only a strict drop is safe. (Same for a
		// patch past the valid prefix, which would leave undefined bytes.)
		c.stats.Invalidations.Inc()
		sh.dropEntry(e)
		return
	}
	hi := lo + uint64(len(seg))
	if e.pins == 0 {
		copy(sh.slotData(e.slot)[lo:], seg)
		if hi > uint64(e.size) {
			e.size = uint32(hi)
			e.data = sh.slotData(e.slot)[:hi:hi]
		}
		e.ref = true
		c.stats.Patches.Inc()
		return
	}
	slotIdx := sh.takeSlot()
	if slotIdx < 0 {
		// Every slot pinned: can't rebuild, fall back to the strict drop.
		c.stats.Invalidations.Inc()
		sh.dropEntry(e)
		return
	}
	dst := sh.slotData(slotIdx)
	copy(dst, e.data)
	copy(dst[lo:], seg)
	size := uint64(e.size)
	if hi > size {
		size = hi
	}
	prot := e.prot
	sh.dropEntry(e)
	n = sh.findNode(h, pg, oid) // dropEntry may unlink an emptied node
	if n == nil {
		n = &objNode{pg: pg, oid: oid, next: sh.index[h]}
		sh.index[h] = n
	}
	ne := centryPool.Get().(*centry)
	ne.obj = n
	ne.blk = blk
	ne.slot = slotIdx
	ne.size = uint32(size)
	ne.data = dst[:size:size]
	ne.pins = 0
	ne.ref = true
	ne.prot = prot
	ne.dead = false
	ne.flushed = true
	sh.ents[slotIdx] = ne
	n.insertBlock(ne)
	c.occupied.Add(1)
	c.stats.Patches.Inc()
}

// AlignFill widens a read to slot boundaries (clamped to limit, the
// object size) so a cold miss fills whole cache-worthy blocks — the
// requested range plus its adjacent partial blocks — in one backend read.
func (c *Cache) AlignFill(off uint64, length uint32, limit uint64) (uint64, uint32) {
	slot := uint64(c.slotBytes)
	lo := off - off%slot
	hi := off + uint64(length)
	if r := hi % slot; r != 0 {
		hi += slot - r
	}
	if hi > limit && limit > lo {
		hi = limit
	}
	if hi <= lo {
		return off, length
	}
	return lo, uint32(hi - lo)
}
