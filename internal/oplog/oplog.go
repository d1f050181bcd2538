// Package oplog implements the data structures behind Decoupled Operation
// Processing (paper §IV-A): a per-logical-group operation log kept in NVM
// and an index cache tracking the staged write per object.
//
// Priority threads append incoming operations to the log (top half) and
// acknowledge immediately; non-priority threads later drain the log into
// the backend object store in batches (bottom half). Reads consult the
// index cache for read-your-writes without violating strong consistency.
//
// The log is a circular byte buffer in an nvm.Region: a 64-byte persisted
// header (head, tail, seq) followed by framed entries. Replay after a
// crash rebuilds the staged-but-unflushed suffix, which the OSD REDO-
// applies to the store.
//
// Entry frame: [u32 len][u32 hdrCRC][meta][u32 dataCRC][data]. len counts
// what follows hdrCRC; meta is the op without its payload, payload length
// first; hdrCRC covers len, meta and dataCRC; dataCRC covers the payload
// and is the Castagnoli CRC the entry keeps as Entry.DataCRC, so append
// and replay each make one pass over the payload.
//
// An append commits on the caller's goroutine under the log lock
// (group.go): the ops of one call share one persisted range and one header
// persist, each payload goes from the caller's buffer straight into the
// region, and entries are pooled so steady-state appends do not allocate.
// The index cache keeps a merged extent view per object (extent.go) so
// reads resolve with whole-extent copies.
package oplog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"

	"rebloc/internal/metrics"
	"rebloc/internal/nvm"
	"rebloc/internal/wire"
)

// Errors returned by the log.
var (
	// ErrFull means the NVM region cannot hold the entry; the caller must
	// flush synchronously first (paper: "if the NVM is full, flushing
	// needs to be synchronously done before handling I/O operations").
	ErrFull   = errors.New("oplog: log full")
	ErrClosed = errors.New("oplog: closed")
	// ErrTooLarge means the entry exceeds the region's total capacity, so
	// no amount of flushing can ever make it fit. Callers must fail the op
	// instead of flushing and retrying: treating this as ErrFull turns the
	// flush-retry loop into a livelock.
	ErrTooLarge = errors.New("oplog: entry exceeds region capacity")

	errHeaderCRC = errors.New("frame header crc mismatch")
	errDataCRC   = errors.New("frame data crc mismatch")
)

const (
	headerBytes = 64
	entryHeader = 8 // u32 length + u32 header crc
	// entryMetaFixed is the size of an entry's metadata with an empty
	// object name, dataCRC included.
	entryMetaFixed = 4 + 1 + 4 + 4 + 8 + 4 + 8 + 8 + 4
	logMagic       = 0x0910D06
)

// EntryState tracks an entry through its life cycle.
type EntryState uint8

// Entry states.
const (
	StateStaged EntryState = iota + 1
	StateFlushing

	// stateDone marks an entry inside Complete's sweep; never visible
	// outside the lock.
	stateDone EntryState = 0xFF
)

// Entry is one staged operation. Entries are pooled: after Complete the
// caller must not retain or touch batch entries.
type Entry struct {
	Op     wire.Op
	LogPos uint64 // byte offset of the frame in the region
	State  EntryState

	// DataCRC is the Castagnoli CRC of Op.Data, computed once when the
	// entry was staged (0 for dataless ops) and stored in the NVM frame as
	// its payload checksum. In DRAM it guards the copy of the payload
	// between append and flush. See VerifyStagedData.
	DataCRC uint32
}

var entryPool = sync.Pool{New: func() any { return new(Entry) }}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// dataCRC computes the staged-payload checksum for op (0 when dataless).
func dataCRC(op *wire.Op) uint32 {
	if len(op.Data) == 0 {
		return 0
	}
	return crc32.Checksum(op.Data, castagnoli)
}

func releaseEntry(e *Entry) {
	e.Op = wire.Op{}
	e.LogPos = 0
	e.State = 0
	e.DataCRC = 0
	entryPool.Put(e)
}

// Stats counts log activity.
type Stats struct {
	Appends       metrics.Counter
	AppendedBytes metrics.Counter
	ReadHits      metrics.Counter // reads served from the log (R1)
	ReadMisses    metrics.Counter // reads needing the backend (R2/R3)
	Flushed       metrics.Counter // entries drained to the store
	FullStalls    metrics.Counter // appends rejected by ErrFull
	Groups        metrics.Counter // commits persisted (Appends/Groups = ops per commit)
	MaxGroup      metrics.Gauge   // most ops ever staged by one commit
}

// StatsSnapshot is a copyable point-in-time view of Stats (the counters
// themselves are atomics and must not be copied).
type StatsSnapshot struct {
	Appends       int64
	AppendedBytes int64
	ReadHits      int64
	ReadMisses    int64
	Flushed       int64
	FullStalls    int64
	Groups        int64
	MaxGroup      int64
}

// Snapshot reads every counter once.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		Appends:       s.Appends.Load(),
		AppendedBytes: s.AppendedBytes.Load(),
		ReadHits:      s.ReadHits.Load(),
		ReadMisses:    s.ReadMisses.Load(),
		Flushed:       s.Flushed.Load(),
		FullStalls:    s.FullStalls.Load(),
		Groups:        s.Groups.Load(),
		MaxGroup:      s.MaxGroup.Load(),
	}
}

// Add merges two snapshots (per-PG stats roll up to per-OSD totals).
func (s StatsSnapshot) Add(o StatsSnapshot) StatsSnapshot {
	s.Appends += o.Appends
	s.AppendedBytes += o.AppendedBytes
	s.ReadHits += o.ReadHits
	s.ReadMisses += o.ReadMisses
	s.Flushed += o.Flushed
	s.FullStalls += o.FullStalls
	s.Groups += o.Groups
	if o.MaxGroup > s.MaxGroup {
		s.MaxGroup = o.MaxGroup
	}
	return s
}

// Log is the operation log + index cache for one logical group (PG).
type Log struct {
	pg     uint32
	region *nvm.Region

	// mu is the paper's "logical group lock", shared between the priority
	// thread (append, read lookup) and the non-priority thread (drain).
	mu      sync.Mutex
	head    uint64 // next append offset (bytes past headerBytes, modulo)
	tail    uint64 // first live byte
	lastSeq uint64 // highest sequence number ever appended (persisted)
	used    uint64
	entries []*Entry             // staged entries in log order
	index   map[uint64]*objStage // object hash -> staged-extent chain

	closed atomic.Bool
	frozen bool // under mu: crash-style stop, NVM image is read-only

	// servedEpoch is the PG's persisted authority rank: the latest map
	// epoch at which the owning OSD served this PG clean. It lives in the
	// log header because it must survive restarts — promotion among
	// mutually-unclean peers ranks by this value, and a member that held
	// acknowledged writes still holds them after a crash (the REDO log is
	// the durability), so its rank remains valid.
	servedEpoch uint32

	hdrScratch [32]byte // persistHeader encode buffer (no per-call alloc)
	// metaScratch is commit's frame-header encode buffer (under mu).
	// Fixed size: a name too long for it allocates, for that append only.
	metaScratch [entryHeader + entryMetaFixed + 128]byte

	// Read-cache hooks (nil until SetCacheHooks; recovery stages entries
	// before any cache exists, which is fine — a fresh cache is empty).
	// onStage fires under mu for every staged write/delete, before the
	// append returns: strict invalidation. onComplete fires under mu when
	// a Complete moved entries to the store: the backend's contents
	// changed, so in-flight miss fills that pre-date it must not admit.
	onStage    func(oid wire.ObjectID)
	onComplete func()

	threshold int
	stats     Stats
}

// SetCacheHooks installs the read-cache invalidation callbacks. Both run
// under the log mutex and must not call back into the log.
func (l *Log) SetCacheHooks(onStage func(oid wire.ObjectID), onComplete func()) {
	l.mu.Lock()
	l.onStage = onStage
	l.onComplete = onComplete
	l.mu.Unlock()
}

func newLog(pg uint32, region *nvm.Region, threshold int) *Log {
	if threshold <= 0 {
		threshold = 16
	}
	return &Log{
		pg:        pg,
		region:    region,
		index:     make(map[uint64]*objStage),
		threshold: threshold,
	}
}

// New initialises an empty log over region. threshold is the flush
// trigger (paper default: 16 entries).
func New(pg uint32, region *nvm.Region, threshold int) (*Log, error) {
	if region.Size() < headerBytes+entryHeader+64 {
		return nil, fmt.Errorf("oplog: region too small (%d bytes)", region.Size())
	}
	l := newLog(pg, region, threshold)
	if err := l.persistHeader(); err != nil {
		return nil, err
	}
	return l, nil
}

// Recover rebuilds a log from a region that survived a crash. The staged
// entries are returned in order so the OSD can REDO them into the store
// (or re-replicate them during peering). Any corruption in the persisted
// image is a hard error; use RecoverSalvage when the daemon must come
// back up regardless (backfill restores what the local log lost).
func Recover(pg uint32, region *nvm.Region, threshold int) (*Log, []*Entry, error) {
	l, staged, _, err := recover_(pg, region, threshold, false)
	return l, staged, err
}

// RecoverSalvage rebuilds a log like Recover but never fails on a corrupt
// image: a corrupt header reinitialises the log empty, and a corrupt
// entry truncates the log at the last cleanly-replayed entry (classic
// torn-log replay — everything past the first bad frame is discarded,
// because frame boundaries cannot be trusted after it). The returned flag
// reports whether anything was discarded, so the caller can resync the
// lost suffix from the surviving replicas.
func RecoverSalvage(pg uint32, region *nvm.Region, threshold int) (*Log, []*Entry, bool, error) {
	return recover_(pg, region, threshold, true)
}

func recover_(pg uint32, region *nvm.Region, threshold int, salvage bool) (*Log, []*Entry, bool, error) {
	l := newLog(pg, region, threshold)
	hdr := make([]byte, headerBytes)
	if _, err := region.ReadAt(hdr, 0); err != nil {
		return nil, nil, false, err
	}
	d := wire.NewDecoder(hdr[:32])
	if d.U32() != logMagic {
		// Fresh region: initialise empty.
		if err := l.persistHeader(); err != nil {
			return nil, nil, false, err
		}
		return l, nil, false, nil
	}
	l.tail = d.U64()
	l.head = d.U64()
	l.lastSeq = d.U64()
	l.servedEpoch = d.U32()
	capy := l.capacity()
	if l.tail >= capy || l.head >= capy {
		if !salvage {
			return nil, nil, false, fmt.Errorf("oplog: corrupt header pg %d: tail=%d head=%d cap=%d", pg, l.tail, l.head, capy)
		}
		// Header itself is garbage: nothing in the body can be located.
		// Reformat empty; the sequence counter is also lost, which is safe
		// only because a salvaging OSD resyncs the PG before serving it.
		// The authority rank is dropped with it — a member that lost its
		// log must never outrank peers during promotion.
		l.tail, l.head, l.lastSeq, l.used = 0, 0, 0, 0
		l.servedEpoch = 0
		if err := l.persistHeader(); err != nil {
			return nil, nil, false, err
		}
		return l, nil, true, nil
	}
	l.used = l.span(l.tail, l.head)
	// Walk entries tail -> head.
	pos := l.tail
	for pos != l.head {
		e, next, err := l.readEntryAt(pos)
		if err != nil {
			if !salvage {
				return nil, nil, false, fmt.Errorf("oplog: replay pg %d at %d: %w", pg, pos, err)
			}
			// Truncate at the first bad frame and persist the shorter log.
			l.head = pos
			l.used = l.span(l.tail, l.head)
			if perr := l.persistHeader(); perr != nil {
				return nil, nil, false, perr
			}
			staged := make([]*Entry, len(l.entries))
			copy(staged, l.entries)
			return l, staged, true, nil
		}
		e.State = StateStaged
		l.entries = append(l.entries, e)
		l.stage(e)
		pos = next
	}
	staged := make([]*Entry, len(l.entries))
	copy(staged, l.entries)
	return l, staged, false, nil
}

func (l *Log) capacity() uint64 { return uint64(l.region.Size()) - headerBytes }

// span is the number of circular bytes from tail up to head.
func (l *Log) span(tail, head uint64) uint64 {
	if head >= tail {
		return head - tail
	}
	return l.capacity() - (tail - head)
}

func (l *Log) persistHeader() error {
	hdr := l.hdrScratch[:]
	binary.LittleEndian.PutUint32(hdr[0:], logMagic)
	binary.LittleEndian.PutUint64(hdr[4:], l.tail)
	binary.LittleEndian.PutUint64(hdr[12:], l.head)
	binary.LittleEndian.PutUint64(hdr[20:], l.lastSeq)
	binary.LittleEndian.PutUint32(hdr[28:], l.servedEpoch)
	if err := l.region.WriteAndPersist(hdr, 0); err != nil {
		return fmt.Errorf("oplog: persist header: %w", err)
	}
	return nil
}

// appendEntryHeader encodes into dst (from its start) everything of op's
// log frame that precedes the payload: [u32 len][u32 hdrCRC][meta][u32
// dataCRC]. The caller writes op.Data behind it; nothing copies it here.
func appendEntryHeader(dst []byte, op *wire.Op, dcrc uint32) []byte {
	e := wire.NewEncoder(dst)
	e.U32(0) // frame length, patched below
	e.U32(0) // header crc, patched below
	e.U32(uint32(len(op.Data)))
	e.U8(uint8(op.Kind))
	e.U32(op.OID.Pool)
	e.String32(op.OID.Name)
	e.U64(op.Offset)
	e.U32(op.Length)
	e.U64(op.Version)
	e.U64(op.Seq)
	e.U32(dcrc)
	buf := e.Bytes()
	binary.LittleEndian.PutUint32(buf[0:], uint32(len(buf)-entryHeader+len(op.Data)))
	binary.LittleEndian.PutUint32(buf[4:], headerCRC(buf[:4], buf[entryHeader:]))
	return buf
}

// headerCRC is the frame's hdrCRC: the length field and the metadata
// (dataCRC included), skipping the slot the CRC itself occupies.
func headerCRC(lenField, meta []byte) uint32 {
	return crc32.Update(crc32.Checksum(lenField, castagnoli), castagnoli, meta)
}

// decodeOp parses a frame's metadata (payload length first, dataCRC last)
// into an op without its payload.
func decodeOp(meta []byte) (op wire.Op, dcrc uint32, err error) {
	d := wire.NewDecoder(meta)
	d.U32() // payload length: the caller split the frame on it
	op = wire.Op{
		Kind: wire.OpKind(d.U8()),
		OID:  wire.ObjectID{Pool: d.U32(), Name: d.String32()},
	}
	op.Offset = d.U64()
	op.Length = d.U32()
	op.Version = d.U64()
	op.Seq = d.U64()
	dcrc = d.U32()
	if err := d.Finish(); err != nil {
		return wire.Op{}, 0, err
	}
	return op, dcrc, nil
}

// wrap splits n circular bytes starting at pos into the run that fits
// before the region end and the rest, which continues at the region start.
func (l *Log) wrap(pos, n uint64) (first, rest uint64) {
	if first = l.capacity() - pos; n <= first {
		return n, 0
	}
	return first, n - first
}

// writeCircularAt stores buf at the circular position pos without
// persisting; commit persists the whole range it wrote at once.
func (l *Log) writeCircularAt(buf []byte, pos uint64) error {
	first, rest := l.wrap(pos, uint64(len(buf)))
	if _, err := l.region.WriteAt(buf[:first], int64(headerBytes+pos)); err != nil || rest == 0 {
		return err
	}
	_, err := l.region.WriteAt(buf[first:], headerBytes)
	return err
}

// persistRange persists n circular bytes starting at pos: one barrier for
// the common case, two when the range wraps the region end.
func (l *Log) persistRange(pos, n uint64) error {
	first, rest := l.wrap(pos, n)
	if err := l.region.Persist(int64(headerBytes+pos), int(first)); err != nil || rest == 0 {
		return err
	}
	return l.region.Persist(headerBytes, int(rest))
}

// readCircularInto fills dst from the circular position pos.
func (l *Log) readCircularInto(dst []byte, pos uint64) error {
	first, rest := l.wrap(pos, uint64(len(dst)))
	if _, err := l.region.ReadAt(dst[:first], int64(headerBytes+pos)); err != nil || rest == 0 {
		return err
	}
	_, err := l.region.ReadAt(dst[first:], headerBytes)
	return err
}

// readEntryAt decodes the frame at pos, returning a pooled entry and the
// next frame position. The header CRC is verified before the metadata is
// believed, the payload CRC before the payload is.
func (l *Log) readEntryAt(pos uint64) (*Entry, uint64, error) {
	capy := l.capacity()
	if pos >= capy {
		return nil, 0, fmt.Errorf("frame position %d beyond capacity %d", pos, capy)
	}
	var hdr [entryHeader]byte
	if err := l.readCircularInto(hdr[:], pos); err != nil {
		return nil, 0, err
	}
	flen := binary.LittleEndian.Uint32(hdr[0:])
	if flen < entryMetaFixed || uint64(flen)+entryHeader > capy {
		return nil, 0, fmt.Errorf("bad frame length %d", flen)
	}
	// One read, one buffer: the entry keeps the payload's part of it.
	body := make([]byte, flen)
	if err := l.readCircularInto(body, (pos+entryHeader)%capy); err != nil {
		return nil, 0, err
	}
	dlen := binary.LittleEndian.Uint32(body)
	if dlen > flen-entryMetaFixed {
		return nil, 0, fmt.Errorf("bad payload length %d in frame of %d", dlen, flen)
	}
	meta, data := body[:flen-dlen], body[flen-dlen:]
	if headerCRC(hdr[:4], meta) != binary.LittleEndian.Uint32(hdr[4:]) {
		return nil, 0, errHeaderCRC
	}
	op, dcrc, err := decodeOp(meta)
	if err != nil {
		return nil, 0, err
	}
	op.Data = data
	if dataCRC(&op) != dcrc {
		return nil, 0, errDataCRC
	}
	e := entryPool.Get().(*Entry)
	e.Op = op
	e.LogPos = pos
	e.State = StateStaged
	e.DataCRC = dcrc
	return e, (pos + entryHeader + uint64(flen)) % capy, nil
}

// VerifyStagedData checks each batch entry's in-DRAM payload against the
// checksum recorded when it was staged. The NVM frames carry the same
// checksum (verified on every replay read), so the only unguarded window
// for silent corruption is the DRAM copy handed from append to flush —
// exactly the bytes about to be written to the object store. A mismatching
// entry self-heals: its frame is re-read from NVM (both CRCs verified) and
// the clean payload is copied over the corrupt one in place, so index-cache
// views aliasing the same backing array heal with it. Returns how many
// entries were healed; an entry whose NVM frame is also unreadable is a
// hard error and the batch must not be applied.
func (l *Log) VerifyStagedData(batch []*Entry) (healed int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range batch {
		if len(e.Op.Data) == 0 || dataCRC(&e.Op) == e.DataCRC {
			continue
		}
		fresh, _, rerr := l.readEntryAt(e.LogPos)
		if rerr != nil {
			return healed, fmt.Errorf("oplog: staged payload corrupt and NVM frame unreadable at %d: %w", e.LogPos, rerr)
		}
		if len(fresh.Op.Data) == len(e.Op.Data) {
			copy(e.Op.Data, fresh.Op.Data)
		} else {
			e.Op.Data = fresh.Op.Data
		}
		e.DataCRC = fresh.DataCRC
		releaseEntry(fresh)
		healed++
	}
	return healed, nil
}

// LookupRead attempts to serve a read from the staged operations (paper
// R1). The per-object extent view resolves [off, off+length) with whole-
// extent copies. A staged delete answers "not found" when it is the newest
// relevant operation; when newer writes re-created the object, bytes they
// leave uncovered read as zero. ok is false when the range cannot be
// resolved from the log alone — the read then needs the backend store
// (R2/R3).
func (l *Log) LookupRead(oid wire.ObjectID, off uint64, length uint32) (data []byte, ok, notFound bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.indexFor(oid, false)
	if st == nil {
		l.stats.ReadMisses.Inc()
		return nil, false, false
	}
	if st.deleted {
		l.stats.ReadHits.Inc()
		return nil, true, true
	}
	out := make([]byte, length)
	if !st.compose(off, off+uint64(length), out) {
		l.stats.ReadMisses.Inc()
		return nil, false, false
	}
	l.stats.ReadHits.Inc()
	return out, true, false
}

// HasStaged reports whether the object has staged writes, in O(1) (used
// by the read path to decide on a forced flush).
func (l *Log) HasStaged(oid wire.ObjectID) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.indexFor(oid, false) != nil
}

// Len returns the number of staged entries.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// ShouldFlush reports whether the staged count reached the threshold.
func (l *Log) ShouldFlush() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries) >= l.threshold
}

// Threshold returns the flush threshold.
func (l *Log) Threshold() int { return l.threshold }

// TakeBatch marks up to max staged entries (all if max <= 0) as flushing
// and returns them in log order. The non-priority thread applies them to
// the backend store and then calls Complete.
func (l *Log) TakeBatch(max int) []*Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.frozen {
		return nil
	}
	var out []*Entry
	for _, e := range l.entries {
		if e.State != StateStaged {
			continue
		}
		e.State = StateFlushing
		out = append(out, e)
		if max > 0 && len(out) >= max {
			break
		}
	}
	return out
}

// Requeue returns taken entries to the staged state (store failure).
func (l *Log) Requeue(batch []*Entry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.frozen {
		return
	}
	for _, e := range batch {
		if e.State == StateFlushing {
			e.State = StateStaged
		}
	}
}

// Complete removes flushed entries from the log and index cache and
// advances the tail over any completed prefix (paper: "all the related
// data is removed both in the operation log and index cache"). The batch
// entries return to the entry pool: callers must not touch them after.
func (l *Log) Complete(batch []*Entry) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.frozen {
		// A crash-style stop froze the log between TakeBatch and here: the
		// NVM image must stay exactly as the "crash" left it, so the batch
		// is neither removed nor released — recovery replays it.
		return ErrClosed
	}
	for _, e := range batch {
		if e.State == StateStaged || e.State == StateFlushing {
			e.State = stateDone
		}
	}
	oldLen := len(l.entries)
	flushed := 0
	kept := l.entries[:0]
	for _, e := range l.entries {
		if e.State == stateDone {
			l.stats.Flushed.Inc()
			flushed++
			l.unstage(e)
			releaseEntry(e)
			continue
		}
		kept = append(kept, e)
	}
	if flushed > 0 && l.onComplete != nil {
		l.onComplete()
	}
	// Clear the vacated slots: pooled entries must not be reachable from
	// the retained backing array.
	for i := len(kept); i < oldLen; i++ {
		l.entries[:oldLen][i] = nil
	}
	l.entries = kept
	// Advance the tail to the first live entry (or head when empty).
	l.tail = l.head
	if len(l.entries) > 0 {
		l.tail = l.entries[0].LogPos
	}
	l.used = l.span(l.tail, l.head)
	return l.persistHeader()
}

// LastSeq returns the highest sequence number ever appended, surviving
// crashes (a restarted primary must not reuse sequence numbers).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastSeq
}

// ServedEpoch returns the persisted authority rank: the latest map epoch
// at which the owning OSD served this PG clean (0 if it never has).
func (l *Log) ServedEpoch() uint32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.servedEpoch
}

// SetServedEpoch durably records the authority rank. Epochs only grow, so
// a rank at or below the persisted one is a no-op; this also keeps the
// call idempotent across repeated map installs of the same interval.
func (l *Log) SetServedEpoch(epoch uint32) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if epoch <= l.servedEpoch || l.frozen {
		return nil
	}
	l.servedEpoch = epoch
	return l.persistHeader()
}

// Stats exposes the log's counters.
func (l *Log) Stats() *Stats { return &l.stats }

// PG returns the logical group this log serves.
func (l *Log) PG() uint32 { return l.pg }

// StagedOps returns copies of the staged ops in log order (recovery sync:
// the surviving replicas ship these to a replacement node).
func (l *Log) StagedOps() []wire.Op {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]wire.Op, 0, len(l.entries))
	for _, e := range l.entries {
		out = append(out, e.Op)
	}
	return out
}

// Close marks the log closed; appends fail afterwards with ErrClosed.
func (l *Log) Close() {
	l.closed.Store(true)
}

// Freeze closes the log crash-style: appends fail, and the persisted NVM
// image becomes read-only — TakeBatch hands out nothing, Requeue is a
// no-op, and a Complete racing the stop returns ErrClosed without
// advancing the persisted tail or releasing entries. An in-flight drain
// can therefore never "double-complete" a batch the restarted OSD's REDO
// replay is about to take ownership of.
func (l *Log) Freeze() {
	l.closed.Store(true)
	l.mu.Lock()
	l.frozen = true
	l.mu.Unlock()
}

// RegionSizeFor returns a comfortable region size for a threshold and
// typical op size: threshold entries of opBytes plus framing, doubled for
// slack so forced flushes are rare, bounded below at 64 KiB.
func RegionSizeFor(threshold int, opBytes int) int64 {
	size := int64(threshold) * int64(opBytes+256) * 2
	if size < 64<<10 {
		size = 64 << 10
	}
	return size + headerBytes
}

// Used reports bytes staged in the region (diagnostics, NVM sizing).
func (l *Log) Used() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.used
}

// Capacity reports the region's usable byte capacity (size less header).
func (l *Log) Capacity() uint64 { return l.capacity() }

// Occupancy reports the staged fraction of the region in [0, 1] — the
// backpressure signal: the throttle ladder escalates on this before the
// append path can ever hit ErrFull and wrap-stall.
func (l *Log) Occupancy() float64 {
	l.mu.Lock()
	used := l.used
	l.mu.Unlock()
	return float64(used) / float64(l.capacity())
}
