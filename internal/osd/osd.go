// Package osd implements the object storage daemon — the module the paper
// re-architects. One binary supports every configuration the evaluation
// compares:
//
//   - Original: Ceph's architecture — messenger goroutines feed PG worker
//     pools over queues, commits couple replication with a full BlueStore
//     transaction (baseline of every figure).
//   - RTCv1/v2/v3: the roofline probes of Figure 1 (run-to-completion with
//     progressively less of the storage path).
//   - COSOnly: Original threading with the CPU-efficient object store
//     (Table II "COS" column).
//   - PTC: COS plus prioritized thread control, still with synchronous
//     commits (Table II "PTC" column).
//   - Proposed: the full design — decoupled operation processing through
//     the NVM op log, prioritized threads, COS (Table II "DOP", Figure 7).
//   - Ideal: commit without any storage processing (Figure 1/7 "Ideal").
package osd

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rebloc/internal/crush"
	"rebloc/internal/device"
	"rebloc/internal/messenger"
	"rebloc/internal/metrics"
	"rebloc/internal/nvm"
	"rebloc/internal/oplog"
	"rebloc/internal/qos"
	"rebloc/internal/readcache"
	"rebloc/internal/sched"
	"rebloc/internal/store"
	"rebloc/internal/store/bluestore"
	"rebloc/internal/store/cos"
	"rebloc/internal/wire"
)

// Mode selects the OSD architecture.
type Mode int

// Architectures under evaluation.
const (
	ModeOriginal Mode = iota + 1
	ModeRTCv1
	ModeRTCv2
	ModeRTCv3
	ModeCOSOnly
	ModePTC
	ModeProposed
	ModeIdeal
)

// String names the mode as in the paper.
func (m Mode) String() string {
	switch m {
	case ModeOriginal:
		return "Original"
	case ModeRTCv1:
		return "RTC-v1"
	case ModeRTCv2:
		return "RTC-v2"
	case ModeRTCv3:
		return "RTC-v3"
	case ModeCOSOnly:
		return "COS"
	case ModePTC:
		return "PTC"
	case ModeProposed:
		return "Proposed"
	case ModeIdeal:
		return "Ideal"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// usesOplog reports whether the mode stages writes in the NVM op log.
func (m Mode) usesOplog() bool { return m == ModeProposed }

// usesPTC reports whether the mode runs priority/non-priority threading.
func (m Mode) usesPTC() bool { return m == ModePTC || m == ModeProposed }

// rtc reports whether the mode runs run-to-completion in the conn loop.
func (m Mode) rtc() bool { return m == ModeRTCv1 || m == ModeRTCv2 || m == ModeRTCv3 }

// Config configures an OSD daemon.
type Config struct {
	ID         uint32
	Mode       Mode
	Transport  messenger.Transport
	ListenAddr string
	MonAddr    string // empty: standalone (tests inject the map directly)

	Dev  device.Device
	Bank *nvm.Bank // required for ModeProposed

	// PGWorkers is the PG thread-pool size for Original/COSOnly.
	PGWorkers int
	// NonPriority is the non-priority thread count for PTC/Proposed.
	NonPriority int
	// Shards is the number of top-half shards for Proposed mode: each
	// shard owns a disjoint set of PGs and runs their requests
	// run-to-completion on its own goroutine. Default GOMAXPROCS.
	Shards int
	// Partitions is the COS sharded-partition count.
	Partitions int
	// ObjectBytes is the fixed object size the block layer stripes over
	// (COS pre-allocation unit). Default 4 MiB, Ceph RBD's default.
	ObjectBytes uint64
	// FlushThreshold is the op-log flush trigger (paper default 16).
	FlushThreshold int
	// FlushInterval is the op-log flush timeout.
	FlushInterval time.Duration
	// OplogRegionBytes sizes each PG's NVM op-log region.
	OplogRegionBytes int64
	// ReadCacheBytes sizes the OSD's NVM-resident block read cache
	// (proposed mode). 0 picks the default (8 MiB, best-effort: a bank
	// too small to carve it just runs uncached); negative disables it.
	ReadCacheBytes int64
	// QoSRate enables per-tenant token-bucket admission at the messenger
	// ingress: a global client-write budget in ops/sec, weighted-fair
	// shared across tenants (one tenant per volume/image). 0 disables
	// admission entirely — the default-off posture.
	QoSRate float64
	// QoSBurst is the per-unit-weight token bucket depth in ops
	// (default 64): how far a tenant may burst above its sustained share.
	QoSBurst float64
	// ThrottleHigh is the op-log occupancy watermark (staged bytes /
	// capacity) of the graded backpressure ladder: at High the ingress
	// starts pacing producers, halfway between High and a full log it
	// rejects with retry-after, and it clears only once occupancy falls
	// back to 0.8 x High. Default 0.85; ThrottleHigh >= 1 disables.
	ThrottleHigh float64
	// ScrubInterval is the background scrub cadence (proposed mode): every
	// interval the scrub daemon walks the PGs this OSD leads and cross-
	// checks object sets against the replicas; every fourth pass is a deep
	// scrub that also compares data checksums. 0 (the default) disables
	// background scrubbing — ScrubNow still works for on-demand passes.
	ScrubInterval time.Duration
	// ScrubRate paces the scrubber in objects/sec so a deep scrub's reads
	// never contend with client traffic at full speed. Default 64.
	ScrubRate float64
	// Account receives the CPU breakdown; a fresh one is created if nil.
	Account *metrics.CPUAccount
	// Pools optionally pins priority/non-priority workers to CPU pools.
	Pools sched.CPUPools
	// StoreOptions tunes the backend store.
	BlueStore bluestore.Options
	COS       cos.Options
	COSSet    bool // COS options explicitly provided
}

func (c *Config) fill() error {
	if c.Transport == nil {
		return errors.New("osd: Transport required")
	}
	if c.Dev == nil {
		return errors.New("osd: Dev required")
	}
	if c.Mode == 0 {
		c.Mode = ModeOriginal
	}
	if c.Mode.usesOplog() && c.Bank == nil {
		return errors.New("osd: ModeProposed requires an nvm.Bank")
	}
	if c.PGWorkers <= 0 {
		c.PGWorkers = 2
	}
	if c.Partitions <= 0 {
		c.Partitions = 8
	}
	if c.NonPriority <= 0 {
		c.NonPriority = c.Partitions
	}
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.FlushThreshold <= 0 {
		c.FlushThreshold = 16
	}
	if c.FlushInterval <= 0 {
		// The timeout is a fallback; threshold wake-ups drive flushing.
		// Too-frequent ticks make the drain scans compete with latency-
		// sensitive reads on the partition and log locks.
		c.FlushInterval = 10 * time.Millisecond
	}
	if c.OplogRegionBytes <= 0 {
		// Size for the threshold, but cap the per-PG region: callers that
		// disable count-based flushing with a huge threshold still get a
		// bounded log (a full log forces a synchronous flush).
		sizingThreshold := c.FlushThreshold
		if sizingThreshold > 256 {
			sizingThreshold = 256
		}
		c.OplogRegionBytes = oplog.RegionSizeFor(sizingThreshold, 4096)
		// Floor: large sequential entries (e.g. 128 KiB) must fit several
		// times over, or every append degenerates into a forced flush.
		if c.OplogRegionBytes < 2<<20 {
			c.OplogRegionBytes = 2 << 20
		}
	}
	if c.QoSBurst <= 0 {
		c.QoSBurst = 64
	}
	if c.ScrubRate <= 0 {
		c.ScrubRate = 64
	}
	if c.Account == nil {
		c.Account = metrics.NewCPUAccount()
	}
	return nil
}

// pgState is the per-PG bookkeeping on one OSD.
type pgState struct {
	pg  uint32
	log *oplog.Log // nil unless ModeProposed

	mu  sync.Mutex
	seq uint64
	// muts counts staged mutations (writes/deletes) only. The repair
	// loop fences its read-modify-write pushes on it; fencing on seq
	// would livelock against logged reads (which also consume sequence
	// numbers), e.g. a reader polling for convergence.
	muts atomic.Uint64
	// replPend counts mutations staged on this PG whose replication
	// fan-out (or failure handling) has not completed yet. Read-repair's
	// quiescence fence: the muts fence proves no mutation staged AFTER
	// its snapshot, but a mutation staged BEFORE it may still be in
	// flight to a peer — an image fetched from that peer would predate
	// an acknowledged write, and installing it over the local copy
	// would serve stale bytes on the next clean read. Incremented next
	// to the muts bump (same shard goroutine, so a muts snapshot that
	// counts an op always observes its pending fan-out), decremented
	// exactly once per op when its fan-out completes or fails.
	replPend atomic.Int64
	clean    bool // false while backfilling
	// backfilling guards against concurrent syncPG goroutines for the
	// same PG when map changes arrive faster than a sync completes.
	backfilling bool
	// servedEpoch is the map epoch of the latest interval this OSD
	// served the PG clean. It ranks authority when no clean backfill
	// source is reachable: acknowledgements require every acting member
	// to apply, so the member of the most recent fully-clean interval
	// holds every acknowledged write. Persisted in the oplog header and
	// restored on boot — a crashed member still holds everything it
	// acknowledged (the NVM REDO log is the durability), so its rank
	// stays valid; resetting it to 0 made promotion after a whole-set
	// restart pick an arbitrary stale member.
	servedEpoch uint32
	flushMu     sync.Mutex

	// dirty is set when the PG enters its worker's dirty queue (appends
	// with staged entries) and cleared when the worker picks it up.
	dirty atomic.Bool
	// dirtyNext links this PG in its worker's lock-free dirty queue
	// (workers.go). Written only by the producer that won the dirty CAS,
	// read only by the consumer after it swapped the stack head — the
	// atomics on dirty and dirtyQueue.head order both sides.
	dirtyNext *pgState
	// throttle is this PG's graded backpressure ladder (proposed mode),
	// fed occupancy samples by the append path and consulted lock-free
	// at the ingress before a write is forwarded to its shard.
	throttle *qos.Throttle
	// coal is the bottom half's coalescing scratch, used under flushMu.
	coal oplog.Coalescer
	// flushErrs counts store-submit failures for this PG (satellite:
	// repeated per-PG failures must be visible).
	flushErrs metrics.Counter
}

// nextSeq assigns the next per-PG sequence number.
func (s *pgState) nextSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	return s.seq
}

// bumpSeq raises the local counter to at least seq (secondary side).
func (s *pgState) bumpSeq(seq uint64) {
	s.mu.Lock()
	if seq > s.seq {
		s.seq = seq
	}
	s.mu.Unlock()
}

// OSD is one object storage daemon.
type OSD struct {
	cfg   Config
	st    store.ObjectStore
	acct  *metrics.CPUAccount
	ln    messenger.Listener
	group *sched.Group
	wakes *sched.WakeSet

	// curMap is the installed cluster map: an atomic pointer, because the
	// commit fast path reads it per request (sharded top half) and a
	// RWMutex read-lock there is exactly the cross-shard cacheline
	// bouncing the sharding removes. mapInstallMu serializes installers.
	curMap       atomic.Pointer[crush.Map]
	mapInstallMu sync.Mutex

	// pgMu guards the global PG registry — slow path only: PG
	// creation/recovery and lifecycle iteration (Kill, FlushAll,
	// OplogSnapshot). The commit path resolves PGs through per-shard
	// tables (shard.pgTab) after one warm-up miss.
	pgMu sync.Mutex
	pgs  map[uint32]*pgState

	// shards are the proposed-mode top-half execution contexts.
	shards []*shard

	// rcache is the NVM-resident block read cache (proposed mode; nil
	// when disabled or the bank couldn't fit it). cosStore is the backend
	// down-cast for the ReadInto/pooled-buffer fill path.
	rcache   *readcache.Cache
	cosStore *cos.Store
	readBufs sync.Pool // pooled reply/fill buffers (miss path)

	peers    sync.Map // osd id -> *peer
	pending  *pendingSet
	accepted messenger.ConnSet
	// ackFloor1/2 are the two smallest peer ack-latency EWMAs (ns, 0 =
	// unset), refreshed by pendingSweepLoop; the laggy outlier test in
	// creditWindowFor compares a peer against its fastest sibling.
	ackFloor1 atomic.Int64
	ackFloor2 atomic.Int64
	// aux tracks dialled side connections (backfill pulls) whose recv
	// would otherwise block a stop forever when the peer never answers.
	aux messenger.ConnSet

	// Original-mode PG work queues, one per PG worker.
	pgQueues []chan *task
	// PTC-mode non-priority queues, one per NPT worker.
	nptQueues []chan *task
	// Per-NPT-worker dirty-PG queues (proposed mode): appends enqueue the
	// PG here so drains visit exactly the PGs with staged entries instead
	// of scanning the whole PG map under pgMu. Lock-free Treiber stacks:
	// the top-half shards push without ever sharing a mutex with the
	// bottom half.
	dirtyQueues []dirtyQueue
	// drainBufs is each worker's take-and-clear scratch for its dirty set.
	drainBufs [][]*pgState

	monConn messenger.Conn
	monMu   sync.Mutex

	closed     atomic.Bool
	refreshing atomic.Bool

	readWaiters sync.Map // readKey -> *readTask (proposed mode R2/R3)

	// repairs tracks objects whose replication fan-out failed on some
	// secondary; the repair loop re-pushes their current content until a
	// full round of acknowledgements succeeds (see repair.go).
	repairMu sync.Mutex
	repairs  map[store.Key]*repairItem

	// qosLim is the ingress token-bucket admission controller (nil or
	// disabled unless QoSRate > 0).
	qosLim *qos.Limiter
	// scrubLim paces the scrub daemon's per-object work (proposed mode).
	scrubLim *qos.Limiter
	// scrubMu serializes scrub passes (the ticker loop vs ScrubNow).
	scrubMu sync.Mutex
	// lastScrub is the UnixNano completion time of the latest scrub pass.
	lastScrub atomic.Int64
	// drainPressure counts PGs whose throttle sits at delay-or-worse. It
	// gates the ingress fast path: while it is zero admitMutation and
	// replDelay return after one atomic load, without looking the PG up.
	drainPressure atomic.Int32

	// Stats visible to the harness.
	ClientOps   metrics.Counter
	ReplOps     metrics.Counter
	ForcedFlush metrics.Counter
	Backfills   metrics.Counter
	// OplogSalvages counts PG logs whose NVM image was corrupt at recovery
	// and came back truncated or empty (backfill restores the lost suffix).
	OplogSalvages metrics.Counter
	// RepairPushes counts full-object re-replications triggered by failed
	// replication fan-outs (see repair.go).
	RepairPushes metrics.Counter
	// ReplBatchFrames counts ReplBatch frames shipped to peers;
	// ReplBatchedOps counts the ops they carried (ops/frame is the
	// fan-out batching factor).
	ReplBatchFrames metrics.Counter
	ReplBatchedOps  metrics.Counter
	// Bottom-half flush stats (proposed mode): FlushBatches counts flushPG
	// passes that applied entries, FlushedEntries the entries they drained,
	// FlushStoreOps the store operations submitted after coalescing
	// (FlushedEntries/FlushStoreOps is the coalesce ratio), FlushErrors
	// the store-submit failures across all PGs.
	FlushBatches   metrics.Counter
	FlushedEntries metrics.Counter
	FlushStoreOps  metrics.Counter
	FlushErrors    metrics.Counter
	// Backpressure stats: ThrottleDelays counts paced ingress admissions,
	// ThrottleRejects counts appends bounced with retry-after, and
	// OplogOccHW tracks the high-water op-log occupancy in basis points
	// (x10000) — the "never wrapped" acceptance signal next to FullStalls.
	ThrottleDelays  metrics.Counter
	ThrottleRejects metrics.Counter
	OplogOccHW      metrics.Gauge
	// LaggyNacks counts replication fan-outs fast-nacked with StatusAgain
	// because the target peer's clamped credit window was full
	// (slow-replica isolation).
	LaggyNacks metrics.Counter
	// Integrity stats: CksumReadErrors counts reads that tripped a block
	// checksum (store.ErrChecksum), on any path — client read, deep scrub,
	// or staged-data verification. ScrubPasses/ScrubObjects count completed
	// scrub passes and the local objects they examined; ScrubErrors counts
	// divergences found (checksum failures, missing/stale replicas);
	// ScrubRepairs counts clean copies re-installed locally by read-repair
	// or scrub. OplogHeals counts staged DRAM payloads restored from their
	// NVM frames before flush.
	CksumReadErrors metrics.Counter
	ScrubPasses     metrics.Counter
	ScrubObjects    metrics.Counter
	ScrubErrors     metrics.Counter
	ScrubRepairs    metrics.Counter
	OplogHeals      metrics.Counter
}

// task is a unit of work handed between threads; replies travel inside
// the payload's closure, which captures the originating connection.
type task struct {
	msg any // one of the task payload types in handlers.go
	pgs *pgState
	pg  uint32
}

// New creates an OSD; call Start to begin serving.
func New(cfg Config) (*OSD, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	o := &OSD{
		cfg:     cfg,
		acct:    cfg.Account,
		group:   sched.NewGroup(),
		pgs:     make(map[uint32]*pgState),
		pending: newPendingSet(),
		repairs: make(map[store.Key]*repairItem),
	}
	if cfg.QoSRate > 0 {
		o.qosLim = qos.NewLimiter(cfg.QoSRate, cfg.QoSBurst)
	}
	if cfg.Mode.usesOplog() {
		o.scrubLim = qos.NewLimiter(cfg.ScrubRate, cfg.ScrubRate)
	}

	var err error
	switch cfg.Mode {
	case ModeOriginal, ModeRTCv1:
		bs := cfg.BlueStore
		bs.Account = o.acct
		o.st, err = bluestore.Open(cfg.Dev, bs)
	case ModeRTCv2, ModeRTCv3, ModeIdeal:
		o.st = newNullStore()
	default: // COSOnly, PTC, Proposed
		co := cfg.COS
		if !cfg.COSSet {
			co = cos.DefaultOptions()
		}
		if cfg.ObjectBytes > 0 {
			// The fixed object size is dictated by the block layer; the
			// store's pre-allocation unit must match it.
			co.PreallocBytes = cfg.ObjectBytes
		}
		co.Partitions = cfg.Partitions
		// With prioritized threading the store runs inside non-priority
		// threads whose time is accounted as NPT; separate OS accounting
		// would double-count. COSOnly keeps Ceph-style threading, so the
		// store accounts itself there.
		if !cfg.Mode.usesPTC() {
			co.Account = o.acct
		}
		if !cfg.COSSet && cfg.Bank != nil {
			// Default proposed configuration: metadata cache in NVM on.
			co.Bank = cfg.Bank
			co.MDCache = true
		}
		if co.MDCache && co.Bank == nil {
			co.Bank = cfg.Bank
		}
		if co.RegionName == "" {
			co.RegionName = fmt.Sprintf("osd%d.cos", cfg.ID)
		}
		o.st, err = cos.Open(cfg.Dev, co)
	}
	if err != nil {
		return nil, fmt.Errorf("osd %d: open store: %w", cfg.ID, err)
	}
	o.cosStore, _ = o.st.(*cos.Store)
	if cfg.Mode.usesOplog() && cfg.Bank != nil && cfg.ReadCacheBytes >= 0 {
		size := cfg.ReadCacheBytes
		if size == 0 {
			size = 8 << 20
		}
		name := fmt.Sprintf("osd%d.rcache", cfg.ID)
		region, rerr := cfg.Bank.Region(name)
		if rerr != nil {
			region, rerr = cfg.Bank.Carve(name, size)
		}
		if rerr == nil {
			var ro readcache.Options
			if o.cosStore != nil {
				// Integrity gate: no bytes enter a cache slot without
				// passing the store's block-checksum table first — a
				// corrupt fill must never be served at cache latency.
				ro.Verify = o.cosStore.VerifyData
			}
			// The region's contents are treated as garbage, so a restart
			// (or NVM power loss) always boots a cold cache. Best-effort:
			// a bank too small for one slot per shard runs uncached.
			o.rcache, _ = readcache.New(region, ro)
		}
	}
	return o, nil
}

// ReadCache exposes the read cache (benchmarks, tests); nil when disabled.
func (o *OSD) ReadCache() *readcache.Cache { return o.rcache }

// Store exposes the backend store (benchmarks, tests).
func (o *OSD) Store() store.ObjectStore { return o.st }

// Account exposes the CPU account.
func (o *OSD) Account() *metrics.CPUAccount { return o.acct }

// ID returns the OSD id.
func (o *OSD) ID() uint32 { return o.cfg.ID }

// Addr returns the listen address (valid after Start).
func (o *OSD) Addr() string {
	if o.ln == nil {
		return ""
	}
	return o.ln.Addr()
}

// Start begins listening and, when MonAddr is set, boots against the
// monitor.
func (o *OSD) Start() error {
	ln, err := o.cfg.Transport.Listen(o.cfg.ListenAddr)
	if err != nil {
		return fmt.Errorf("osd %d: %w", o.cfg.ID, err)
	}
	o.ln = ln

	// Worker pools by mode.
	switch {
	case o.cfg.Mode.usesPTC():
		o.wakes = sched.NewWakeSet(o.cfg.NonPriority)
		o.nptQueues = make([]chan *task, o.cfg.NonPriority)
		o.dirtyQueues = make([]dirtyQueue, o.cfg.NonPriority)
		o.drainBufs = make([][]*pgState, o.cfg.NonPriority)
		for i := range o.nptQueues {
			o.nptQueues[i] = make(chan *task, 1024)
			worker := i
			o.group.Go(func(stop <-chan struct{}) { o.nonPriorityLoop(worker, stop) })
		}
		if o.cfg.Mode.usesOplog() {
			// Proposed only: per-core top-half shards (shard.go).
			o.shards = make([]*shard, o.cfg.Shards)
			for i := range o.shards {
				sh := newShard(o, i)
				o.shards[i] = sh
				o.group.Go(func(stop <-chan struct{}) { sh.loop(stop) })
			}
		}
	case o.cfg.Mode.rtc():
		// Run-to-completion: no worker pools; conn loops do everything.
	default:
		o.pgQueues = make([]chan *task, o.cfg.PGWorkers)
		for i := range o.pgQueues {
			o.pgQueues[i] = make(chan *task, 1024)
			worker := i
			o.group.Go(func(stop <-chan struct{}) { o.pgWorkerLoop(worker, stop) })
		}
	}

	o.group.Go(func(stop <-chan struct{}) { o.acceptLoop(stop) })
	o.group.Go(func(stop <-chan struct{}) { o.pendingSweepLoop(stop) })
	o.group.Go(func(stop <-chan struct{}) { o.repairLoop(stop) })
	if o.cfg.Mode.usesOplog() && o.cfg.ScrubInterval > 0 {
		o.group.Go(func(stop <-chan struct{}) { o.scrubLoop(stop) })
	}

	if o.cfg.MonAddr != "" {
		if err := o.bootWithMonitor(); err != nil {
			o.Close()
			return err
		}
		o.group.Go(func(stop <-chan struct{}) { o.heartbeatLoop(stop) })
	}
	// Restart recovery: REDO any op-log entries that survived a crash.
	if o.cfg.Mode.usesOplog() {
		if err := o.redoSurvivingLogs(); err != nil {
			o.Close()
			return err
		}
	}
	return nil
}

// SetMap installs a cluster map directly (tests and in-process clusters).
func (o *OSD) SetMap(m *crush.Map) {
	o.mapInstallMu.Lock()
	old := o.curMap.Swap(m)
	o.mapInstallMu.Unlock()
	o.onMapChange(old, m)
}

// Map returns the current cluster map (may be nil before boot).
func (o *OSD) Map() *crush.Map { return o.curMap.Load() }

// Epoch returns the current map epoch (0 before boot).
func (o *OSD) Epoch() uint32 {
	m := o.Map()
	if m == nil {
		return 0
	}
	return m.Epoch
}

// pgStateFor returns (creating if needed) the state for pg.
func (o *OSD) pgStateFor(pg uint32) (*pgState, error) {
	o.pgMu.Lock()
	defer o.pgMu.Unlock()
	if s, ok := o.pgs[pg]; ok {
		return s, nil
	}
	s := &pgState{pg: pg, clean: true}
	if o.cfg.Mode.usesOplog() {
		name := fmt.Sprintf("osd%d.oplog.%d", o.cfg.ID, pg)
		region, err := o.cfg.Bank.Region(name)
		if err != nil {
			region, err = o.cfg.Bank.Carve(name, o.cfg.OplogRegionBytes)
			if err != nil {
				return nil, fmt.Errorf("osd %d: carve oplog pg %d: %w", o.cfg.ID, pg, err)
			}
		}
		// Salvage semantics: a daemon must come back up even when the NVM
		// image is torn or corrupted — the log truncates at the first bad
		// frame (or reformats on a bad header) and the boot-time backfill
		// resyncs whatever the local log lost from the surviving replicas.
		log, staged, salvaged, err := oplog.RecoverSalvage(pg, region, o.cfg.FlushThreshold)
		if err != nil {
			return nil, err
		}
		if salvaged {
			o.OplogSalvages.Inc()
		}
		if rc := o.rcache; rc != nil {
			// Strict invalidation: staging a write/delete drops the
			// object's cached blocks before the append returns; a flush
			// completion moves the PG's fill generation so in-flight miss
			// fills that read the pre-flush backend cannot admit.
			pgid := pg
			log.SetCacheHooks(
				func(oid wire.ObjectID) { rc.Invalidate(pgid, oid) },
				func() { rc.BumpFill(pgid) },
			)
		}
		s.log = log
		s.seq = log.LastSeq()
		s.servedEpoch = log.ServedEpoch()
		// Zero values take NewThrottle's defaults: High 0.85, Low 0.8 x High.
		th := qos.NewThrottle(o.cfg.ThrottleHigh, 0)
		th.OnChange = func(from, to qos.State) {
			// drainPressure counts PGs at delay-or-worse; the edges in and
			// out of StateClear are the only membership changes.
			if from == qos.StateClear {
				o.drainPressure.Add(1)
			} else if to == qos.StateClear {
				o.drainPressure.Add(-1)
			}
		}
		s.throttle = th
		if len(staged) > 0 {
			// Entries that survived a crash REDO into the store now.
			if err := o.applyBatchToStore(pg, staged); err != nil {
				return nil, err
			}
			if err := log.Complete(staged); err != nil {
				return nil, err
			}
		}
	}
	o.pgs[pg] = s
	return s, nil
}

// redoSurvivingLogs touches every PG region already carved in the bank so
// crash-surviving entries replay before traffic arrives.
func (o *OSD) redoSurvivingLogs() error {
	m := o.Map()
	if m == nil {
		return nil
	}
	for pg := uint32(0); pg < m.PGCount; pg++ {
		name := fmt.Sprintf("osd%d.oplog.%d", o.cfg.ID, pg)
		if _, err := o.cfg.Bank.Region(name); err != nil {
			continue // never served this PG
		}
		if _, err := o.pgStateFor(pg); err != nil {
			return err
		}
	}
	return nil
}

// Close stops all workers and the store.
func (o *OSD) Close() error {
	if o.closed.Swap(true) {
		return nil
	}
	if o.ln != nil {
		o.ln.Close()
	}
	o.accepted.CloseAll()
	o.aux.CloseAll()
	o.monMu.Lock()
	if o.monConn != nil {
		o.monConn.Close()
	}
	o.monMu.Unlock()
	o.peers.Range(func(_, v any) bool {
		v.(*peer).close()
		return true
	})
	o.group.Stop()
	return o.st.Close()
}

// Kill simulates a crash: connections drop and workers stop, but the
// store is neither flushed nor closed, and any NVM bank keeps only what
// was explicitly persisted. Recovery tests restart an OSD on the same
// device and bank afterwards.
func (o *OSD) Kill() {
	if o.closed.Swap(true) {
		return
	}
	// Freeze every PG log FIRST: from this instant the persisted NVM image
	// is what the "crash" left behind. A drain still in flight may finish
	// its store submit, but its Complete is rejected — it can no longer
	// advance the persisted tail under the feet of the restarted OSD's
	// REDO replay (which owns those same entries once recovery starts).
	o.pgMu.Lock()
	for _, s := range o.pgs {
		if s.log != nil {
			s.log.Freeze()
		}
	}
	o.pgMu.Unlock()
	if o.ln != nil {
		o.ln.Close()
	}
	o.accepted.CloseAll()
	o.aux.CloseAll()
	o.monMu.Lock()
	if o.monConn != nil {
		o.monConn.Close()
	}
	o.monMu.Unlock()
	o.peers.Range(func(_, v any) bool {
		v.(*peer).close()
		return true
	})
	o.group.Stop()
}

// OplogSnapshot sums the per-PG operation-log stats into one OSD-wide
// view (ops per commit, index hit rates, full stalls).
func (o *OSD) OplogSnapshot() oplog.StatsSnapshot {
	var total oplog.StatsSnapshot
	o.pgMu.Lock()
	for _, s := range o.pgs {
		if s.log != nil {
			total = total.Add(s.log.Stats().Snapshot())
		}
	}
	o.pgMu.Unlock()
	return total
}

// RegisterMetrics exposes the OSD's oplog and bottom-half flush counters
// in r under prefix (e.g. "osd0.oplog.groups"). Proposed mode only; other
// modes register nothing.
func (o *OSD) RegisterMetrics(r *metrics.Registry, prefix string) {
	if !o.cfg.Mode.usesOplog() {
		return
	}
	r.RegisterCounter(prefix+".flush.batches", &o.FlushBatches)
	r.RegisterCounter(prefix+".flush.entries", &o.FlushedEntries)
	r.RegisterCounter(prefix+".flush.store_ops", &o.FlushStoreOps)
	r.RegisterCounter(prefix+".flush.errors", &o.FlushErrors)
	r.RegisterCounter(prefix+".flush.forced", &o.ForcedFlush)
	snap := func(f func(oplog.StatsSnapshot) int64) func() int64 {
		return func() int64 { return f(o.OplogSnapshot()) }
	}
	r.RegisterFunc(prefix+".oplog.appends", snap(func(s oplog.StatsSnapshot) int64 { return s.Appends }))
	r.RegisterFunc(prefix+".oplog.groups", snap(func(s oplog.StatsSnapshot) int64 { return s.Groups }))
	r.RegisterFunc(prefix+".oplog.group_size_max", snap(func(s oplog.StatsSnapshot) int64 { return s.MaxGroup }))
	r.RegisterFunc(prefix+".oplog.group_size_x100", snap(func(s oplog.StatsSnapshot) int64 {
		if s.Groups == 0 {
			return 0
		}
		return s.Appends * 100 / s.Groups
	}))
	r.RegisterFunc(prefix+".oplog.read_hits", snap(func(s oplog.StatsSnapshot) int64 { return s.ReadHits }))
	r.RegisterFunc(prefix+".oplog.read_misses", snap(func(s oplog.StatsSnapshot) int64 { return s.ReadMisses }))
	r.RegisterFunc(prefix+".oplog.full_stalls", snap(func(s oplog.StatsSnapshot) int64 { return s.FullStalls }))
	r.RegisterCounter(prefix+".qos.delays", &o.ThrottleDelays)
	r.RegisterCounter(prefix+".qos.rejects", &o.ThrottleRejects)
	r.RegisterGauge(prefix+".oplog.occupancy_hw_x10000", &o.OplogOccHW)
	r.RegisterFunc(prefix+".oplog.occupancy_x10000", func() int64 {
		return int64(o.MaxOccupancy() * 10000)
	})
	r.RegisterCounter(prefix+".repl.laggy_nacks", &o.LaggyNacks)
	r.RegisterCounter(prefix+".cksum.read_errors", &o.CksumReadErrors)
	r.RegisterCounter(prefix+".scrub.passes", &o.ScrubPasses)
	r.RegisterCounter(prefix+".scrub.objects", &o.ScrubObjects)
	r.RegisterCounter(prefix+".scrub.errors_found", &o.ScrubErrors)
	r.RegisterCounter(prefix+".scrub.repairs", &o.ScrubRepairs)
	r.RegisterCounter(prefix+".oplog.data_heals", &o.OplogHeals)
	r.RegisterFunc(prefix+".scrub.last_age_ms", func() int64 {
		t := o.lastScrub.Load()
		if t == 0 {
			return -1 // never scrubbed
		}
		return time.Since(time.Unix(0, t)).Milliseconds()
	})
	r.RegisterFunc(prefix+".repl.ack_ewma_us_max", func() int64 {
		var max int64
		for _, d := range o.PeerAckLatencies() {
			if us := d.Microseconds(); us > max {
				max = us
			}
		}
		return max
	})
	r.RegisterFunc(prefix+".flush.coalesce_x100", func() int64 {
		ops := o.FlushStoreOps.Load()
		if ops == 0 {
			return 0
		}
		return o.FlushedEntries.Load() * 100 / ops
	})
	if rc := o.rcache; rc != nil {
		st := rc.Stats()
		r.RegisterCounter(prefix+".rcache.hits", &st.Hits)
		r.RegisterCounter(prefix+".rcache.misses", &st.Misses)
		r.RegisterCounter(prefix+".rcache.admits", &st.Admits)
		r.RegisterCounter(prefix+".rcache.evictions", &st.Evictions)
		r.RegisterCounter(prefix+".rcache.invalidations", &st.Invalidations)
		r.RegisterCounter(prefix+".rcache.fill_aborts", &st.FillAborts)
		r.RegisterCounter(prefix+".rcache.patches", &st.Patches)
		r.RegisterCounter(prefix+".rcache.verify_rejects", &st.VerifyRejects)
		r.RegisterFunc(prefix+".rcache.occupancy", rc.Occupancy)
		r.RegisterFunc(prefix+".rcache.hit_rate_x100", func() int64 {
			h, m := st.Hits.Load(), st.Misses.Load()
			if h+m == 0 {
				return 0
			}
			return h * 100 / (h + m)
		})
	}
}

// MaxOccupancy returns the fullest PG log's staged fraction — the same
// signal the throttle ladder escalates on, exposed for reports.
func (o *OSD) MaxOccupancy() float64 {
	var max float64
	o.pgMu.Lock()
	for _, s := range o.pgs {
		if s.log != nil {
			if occ := s.log.Occupancy(); occ > max {
				max = occ
			}
		}
	}
	o.pgMu.Unlock()
	return max
}

// PeerAckLatencies returns the EWMA replication ack latency observed per
// peer (slow-replica isolation's laggy signal), keyed by OSD id.
func (o *OSD) PeerAckLatencies() map[uint32]time.Duration {
	out := make(map[uint32]time.Duration)
	o.peers.Range(func(k, v any) bool {
		if ns := v.(*peer).ackEWMA.Load(); ns > 0 {
			out[k.(uint32)] = time.Duration(ns)
		}
		return true
	})
	return out
}

// FlushAll synchronously drains every op log into the store (admin,
// benchmarks, pre-recovery flush).
func (o *OSD) FlushAll() error {
	if o.cfg.Mode.usesOplog() {
		o.pgMu.Lock()
		states := make([]*pgState, 0, len(o.pgs))
		for _, s := range o.pgs {
			states = append(states, s)
		}
		o.pgMu.Unlock()
		for _, s := range states {
			if err := o.flushPG(s); err != nil {
				return err
			}
		}
	}
	return o.st.Flush()
}
