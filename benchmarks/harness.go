// Package benchmarks is rebloc's performance baseline: four closed-loop
// 4 KiB block workloads against an in-process ModeProposed cluster, the
// end-to-end metrics a block-device user sees, per-layer counters and
// probes that say which layer moved them, and a seam-traced run. See
// README.md for the method and BENCHMARK.json (repo root) for the
// contract a later change is judged against.
package benchmarks

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rebloc/internal/client"
	"rebloc/internal/core"
	"rebloc/internal/device"
	"rebloc/internal/rbd"
)

// Fixed shape of the system under test (ISSUE: no knob tuned per
// workload; shards, read cache, QoS and checksums stay at their defaults).
const (
	clusterOSDs     = 3
	clusterReplicas = 2
	clusterPGs      = 32
	objectBytes     = 1 << 20
	nvmBytes        = 128 << 20 // 22 PG logs x 2 MiB + read cache + COS metadata cache per OSD
	prefillBytes    = 64 << 10
	prefillInflight = 4
	maxClients      = 8
)

// Config selects one run.
type Config struct {
	Workload *Workload
	Seed     int64
	// Window is the measured duration.
	Window time.Duration
	// Trace installs the transport and device wrappers, alternates traced
	// and idle slices, and runs the layer probes afterwards.
	Trace bool
	// OutDir receives <workload>.trace.json on traced runs ("" = skip).
	OutDir string

	// shrink, set by tests only, replaces the workload's sizing so a run
	// takes a second or two. A real run has no sizing knob: the load is
	// what the workload and the host's CPU count say.
	shrink *shrink
	// afterWindow, when set by a test, runs between the measured window
	// and the read-back gate.
	afterWindow func(*env)
}

type shrink struct{ clients, imageMiB, warmupOps int }

// clients is the number of client connections, each with its own image:
// the workload's, else one per CPU, at most maxClients.
func (c *Config) clients() int {
	if c.shrink != nil {
		return c.shrink.clients
	}
	if c.Workload.Clients > 0 {
		return c.Workload.Clients
	}
	n := runtime.NumCPU()
	if n > maxClients {
		n = maxClients
	}
	return n
}

func (c *Config) imageMiB() int {
	if c.shrink != nil {
		return c.shrink.imageMiB
	}
	return c.Workload.ImageMiB
}

func (c *Config) warmupOps() int {
	if c.shrink != nil {
		return c.shrink.warmupOps
	}
	return c.Workload.WarmupOps
}

// env is one booted, provisioned and warmed cluster with its clients.
type env struct {
	cfg     Config
	wl      *Workload
	c       *core.Cluster
	clients []*client.Client
	imgs    []*rbd.Image
	tags    []*clientTag // per client, traced runs only
	tr      *tracer      // nil on untraced runs
	gen     *Generator
	blocks  uint64
	track   []*blockTrack

	// ackedBytes counts user bytes of successful writes since boot; waf
	// divides by its growth over the span it covers.
	ackedBytes atomic.Int64
}

// setup boots the cluster and takes it to the start of the measured
// window: create images, prefill every 64 KiB chunk, warm up by op count,
// FlushAll. Its duration is setup_s.
func setup(cfg Config) (*env, error) {
	wl := cfg.Workload
	e := &env{cfg: cfg, wl: wl}
	nClients := cfg.clients()
	imageBytes := uint64(cfg.imageMiB()) << 20
	e.blocks = imageBytes / BlockBytes

	// Device sizing: the replicated footprint per OSD plus room for store
	// metadata (~4 MiB per COS partition). Kept tight on purpose: the RAM
	// devices sit in the Go heap, and oversized ones would set the GC goal
	// and peak_rss_mb instead of the program's own memory doing so.
	footprint := int64(imageBytes) * int64(nClients) * clusterReplicas / clusterOSDs
	opts := core.Options{
		OSDs:        clusterOSDs,
		Replicas:    clusterReplicas,
		PGs:         clusterPGs,
		ObjectBytes: objectBytes,
		DeviceBytes: footprint*3/2 + (64 << 20),
		NVMBytes:    nvmBytes,
	}
	if wl.Paced {
		profile := device.PM1725a()
		profile.SyncReads = true
		opts.DeviceProfile = &profile
	}
	if cfg.Trace {
		e.tr = newTracer(len(imageName(0)) + len("rbd_data..") + 16)
		opts.WrapTransport = e.tr.wrapTransport
		opts.WrapDevice = e.tr.wrapDevice
	}
	c, err := core.New(opts)
	if err != nil {
		return nil, fmt.Errorf("boot cluster: %w", err)
	}
	e.c = c

	for i := 0; i < nClients; i++ {
		tr := c.Transport()
		if e.tr != nil {
			tag := e.tr.newClientTag(wl.Inflight)
			e.tags = append(e.tags, tag)
			tr = &clientTransport{inner: tr, tag: tag}
		}
		cl, err := client.New(tr, c.MonAddr(), client.Options{})
		if err != nil {
			e.close()
			return nil, fmt.Errorf("client %d: %w", i, err)
		}
		e.clients = append(e.clients, cl)
		img, err := rbd.Create(cl, imageName(i), imageBytes, rbd.CreateOptions{ObjectBytes: objectBytes})
		if err != nil {
			e.close()
			return nil, fmt.Errorf("create image %d: %w", i, err)
		}
		e.imgs = append(e.imgs, img)
		e.track = append(e.track, newBlockTrack(e.blocks))
	}
	e.gen = NewGenerator(wl, cfg.Seed, nClients, e.blocks)

	if err := e.prefill(); err != nil {
		e.close()
		return nil, err
	}
	warm := e.runLoop(loopOpts{phase: phaseWarmup, opsPerClient: cfg.warmupOps()})
	if warm.failed() > 0 {
		e.close()
		return nil, fmt.Errorf("warm-up: %d op errors, %d mismatching reads", warm.errs, warm.bad)
	}
	// The window starts with every set-up write on the devices, so the
	// device bytes it adds are its own: waf over the window carries none of
	// the prefill's or the warm-up's.
	if err := e.c.FlushAll(); err != nil {
		e.close()
		return nil, fmt.Errorf("flush after warm-up: %w", err)
	}
	return e, nil
}

func imageName(i int) string { return fmt.Sprintf("bench%d", i) }

func (e *env) close() {
	for _, cl := range e.clients {
		cl.Close()
	}
	if e.c != nil {
		e.c.Close()
	}
}

// --- stamps and the read-back gate ---

// Every written block starts with a self-describing stamp, so a read can
// be checked with no reference copy: which image and block it belongs to
// and which write of that block it is.
const stampMagic = 0x4B4C4252 // "RBLK"

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func putStamp(b []byte, image uint32, block uint64, seq uint64) {
	binary.LittleEndian.PutUint32(b[0:], stampMagic)
	binary.LittleEndian.PutUint32(b[4:], image)
	binary.LittleEndian.PutUint64(b[8:], block)
	binary.LittleEndian.PutUint64(b[16:], seq)
	binary.LittleEndian.PutUint32(b[24:], crc32.Checksum(b[:24], crcTable))
}

// readStamp returns the stamp's sequence when b carries a valid stamp of
// (image, block).
func readStamp(b []byte, image uint32, block uint64) (seq uint64, ok bool) {
	if binary.LittleEndian.Uint32(b[0:]) != stampMagic ||
		binary.LittleEndian.Uint32(b[4:]) != image ||
		binary.LittleEndian.Uint64(b[8:]) != block ||
		binary.LittleEndian.Uint32(b[24:]) != crc32.Checksum(b[:24], crcTable) {
		return 0, false
	}
	return binary.LittleEndian.Uint64(b[16:]), true
}

// blockTrack remembers, per block of one image, which stamps may
// legitimately be read back once every write has been ACKed. With one
// write to a block outstanding at a time that is exactly the last ACKed
// stamp; writes that overlapped in flight may land in either order, so the
// admissible range opens at the first write of the overlapping run.
type blockTrack struct {
	mu       sync.Mutex
	issued   []uint32 // last sequence handed out
	low      []uint32 // lowest admissible final sequence
	inflight []uint8
}

func newBlockTrack(blocks uint64) *blockTrack {
	t := &blockTrack{
		issued:   make([]uint32, blocks),
		low:      make([]uint32, blocks),
		inflight: make([]uint8, blocks),
	}
	for i := range t.issued {
		t.issued[i], t.low[i] = 1, 1 // the prefill stamp
	}
	return t
}

func (t *blockTrack) issue(block uint32) uint64 {
	t.mu.Lock()
	t.issued[block]++
	seq := t.issued[block]
	if t.inflight[block] == 0 {
		t.low[block] = seq
	}
	t.inflight[block]++
	t.mu.Unlock()
	return uint64(seq)
}

func (t *blockTrack) done(block uint32) {
	t.mu.Lock()
	t.inflight[block]--
	t.mu.Unlock()
}

func (t *blockTrack) admissible(block uint32, seq uint64) bool {
	return seq >= uint64(t.low[block]) && seq <= uint64(t.issued[block])
}

// prefill writes every 64 KiB chunk of every image, each 4 KiB block
// carrying its sequence-1 stamp, so the measured window sees steady-state
// overwrites and every later read finds a stamp.
//
// It goes one object at a time with a FlushAll after each. A streaming
// sequential prefill outruns the drain of the one PG log it is filling and
// climbs the occupancy ladder; once a log in the reject band drains empty
// with every append bounced, nothing samples its occupancy again and the
// PG answers StatusAgain until the client's retries run out (seen in 1 of
// 8 set-ups before this pacing). One object is half a PG log, so the
// ladder never engages and set-up neither sleeps nor fails.
func (e *env) prefill() error {
	const chunksPerObject = objectBytes / prefillBytes
	objects := int((e.blocks*BlockBytes + objectBytes - 1) / objectBytes)
	chunks := int64(e.blocks * BlockBytes / prefillBytes)
	for i, img := range e.imgs {
		for obj := 0; obj < objects; obj++ {
			var wg sync.WaitGroup
			var next atomic.Int64
			next.Store(int64(obj) * chunksPerObject)
			last := int64(obj+1) * chunksPerObject
			if last > chunks {
				last = chunks
			}
			errs := make(chan error, prefillInflight)
			for s := 0; s < prefillInflight; s++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					buf := make([]byte, prefillBytes)
					fillNoise(buf, uint64(i))
					for {
						ch := next.Add(1) - 1
						if ch >= last {
							return
						}
						first := uint64(ch) * (prefillBytes / BlockBytes)
						for b := uint64(0); b < prefillBytes/BlockBytes; b++ {
							putStamp(buf[b*BlockBytes:], uint32(i), first+b, 1)
						}
						if err := img.WriteAt(buf, uint64(ch)*prefillBytes); err != nil {
							errs <- fmt.Errorf("prefill image %d chunk %d: %w", i, ch, err)
							return
						}
						e.ackedBytes.Add(prefillBytes)
					}
				}()
			}
			wg.Wait()
			close(errs)
			if err := <-errs; err != nil {
				return err
			}
			if err := e.c.FlushAll(); err != nil {
				return fmt.Errorf("flush during prefill: %w", err)
			}
		}
	}
	return nil
}

// fillNoise fills b with incompressible filler so blocks are not all
// zeros behind their stamp.
func fillNoise(b []byte, seed uint64) {
	r := rng{s: seed*0x9E3779B97F4A7C15 + 1}
	for i := 0; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], r.next())
	}
}

// readback is the correctness gate: after the post-run FlushAll, a seeded
// sample of blocks (every block when all is set) must each hold a stamp
// the tracker admits. It returns how many blocks it read and how many
// failed.
func (e *env) readback(minSample int, all bool) (checked, bad int64) {
	var wg sync.WaitGroup
	var nChecked, nBad atomic.Int64
	next := make([]atomic.Int64, len(e.imgs))
	for i := range e.imgs {
		picks := e.samplePicks(i, minSample, all)
		for s := 0; s < prefillInflight; s++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				buf := make([]byte, BlockBytes)
				for {
					k := next[i].Add(1) - 1
					if k >= int64(len(picks)) {
						return
					}
					block := picks[k]
					nChecked.Add(1)
					if err := e.imgs[i].ReadAt(buf, uint64(block)*BlockBytes); err != nil {
						nBad.Add(1)
						continue
					}
					seq, ok := readStamp(buf, uint32(i), uint64(block))
					if !ok || !e.track[i].admissible(block, seq) {
						nBad.Add(1)
					}
				}
			}(i)
		}
	}
	wg.Wait()
	return nChecked.Load(), nBad.Load()
}

// samplePicks chooses the blocks of image i to read back: blocks written
// since the prefill first, in a seeded order, topped up with untouched
// ones when fewer than want were written.
func (e *env) samplePicks(i, want int, all bool) []uint32 {
	t := e.track[i]
	var written, rest []uint32
	for b := uint32(0); uint64(b) < e.blocks; b++ {
		if t.issued[b] > 1 {
			written = append(written, b)
		} else {
			rest = append(rest, b)
		}
	}
	if all {
		return append(written, rest...)
	}
	r := rng{s: mixSeed(e.cfg.Seed, e.wl.id(), uint64(i), 1<<33)}
	shuffle := func(p []uint32) {
		for k := len(p) - 1; k > 0; k-- {
			j := r.intn(uint64(k) + 1)
			p[k], p[j] = p[j], p[k]
		}
	}
	shuffle(written)
	shuffle(rest)
	picks := append(written, rest...)
	if len(picks) > want {
		picks = picks[:want]
	}
	return picks
}

// --- the closed loop ---

// sample is one completed op: when it finished (ns since the loop began)
// and how long it took.
type sample struct{ end, lat int64 }

type loopOpts struct {
	phase uint64
	// Exactly one of opsPerClient (warm-up: run that many ops per client)
	// and window (measure: run until the deadline) is set.
	opsPerClient int
	window       time.Duration
	// record keeps per-op samples.
	record bool
}

// loopResult is what one closed-loop pass produced.
type loopResult struct {
	start   time.Time
	elapsed time.Duration
	reads   [][]sample // per worker
	writes  [][]sample
	loopCounts
}

// loopCounts are a pass's totals; every worker keeps its own and they are
// summed when it returns.
type loopCounts struct {
	ops  int64
	errs int64 // ops that returned an error
	bad  int64 // reads whose stamp named another block or image
	// tracedOps counts ops begun while the tracer was on.
	tracedOps int64
}

func (r *loopResult) failed() int64 { return r.errs + r.bad }

// sampleCap pre-sizes a worker's sample array so the measured window
// does not grow slices; untouched tail pages never become resident.
func sampleCap(window time.Duration, workers int, share float64) int {
	const maxTotalRate = 400_000 // ops/s, well above this code on any host
	return int(window.Seconds()*maxTotalRate*share)/workers + 1<<14
}

// runLoop drives every client's fixed in-flight window: each slot issues
// its next op only when the previous one completed (closed loop).
func (e *env) runLoop(o loopOpts) *loopResult {
	nClients := len(e.imgs)
	workers := nClients * e.wl.Inflight
	res := &loopResult{reads: make([][]sample, workers), writes: make([][]sample, workers)}
	remaining := make([]atomic.Int64, nClients)
	for i := range remaining {
		remaining[i].Store(int64(o.opsPerClient))
	}
	if o.record {
		readShare := float64(e.wl.ReadPct) / 100
		for w := 0; w < workers; w++ {
			if e.wl.hasReads() {
				res.reads[w] = make([]sample, 0, sampleCap(o.window, workers, readShare))
			}
			if e.wl.hasWrites() {
				res.writes[w] = make([]sample, 0, sampleCap(o.window, workers, 1-readShare))
			}
		}
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	res.start = time.Now()
	var deadline time.Time
	if o.window > 0 {
		deadline = res.start.Add(o.window)
	}
	for c := 0; c < nClients; c++ {
		for s := 0; s < e.wl.Inflight; s++ {
			wg.Add(1)
			go func(c, s int) {
				defer wg.Done()
				n := e.worker(c, s, o, res, deadline, &remaining[c])
				mu.Lock()
				res.ops += n.ops
				res.errs += n.errs
				res.bad += n.bad
				res.tracedOps += n.tracedOps
				mu.Unlock()
			}(c, s)
		}
	}
	wg.Wait()
	res.elapsed = time.Since(res.start)
	return res
}

// worker is in-flight slot s of client c; its samples go to its own rows
// of res.
func (e *env) worker(c, s int, o loopOpts, res *loopResult, deadline time.Time, remaining *atomic.Int64) (n loopCounts) {
	img := e.imgs[c]
	trk := e.track[c]
	st := e.gen.Stream(c, s, o.phase)
	// The sample rows are appended to through locals: neighbouring slice
	// headers in res share cache lines.
	w := c*e.wl.Inflight + s
	reads, writes := res.reads[w], res.writes[w]
	defer func() { res.reads[w], res.writes[w] = reads, writes }()
	buf := make([]byte, BlockBytes)
	fillNoise(buf, uint64(c)<<8|uint64(s))
	var tag *clientTag
	if e.tr != nil {
		tag = e.tags[c]
	}
	opBase := (uint64(c)<<8 | uint64(s) + 1) << 40
	for i := uint64(0); ; i++ {
		if o.window > 0 {
			if !time.Now().Before(deadline) {
				return n
			}
		} else if remaining.Add(-1) < 0 {
			return n
		}
		op := st.Next()
		off := uint64(op.Block) * BlockBytes
		if !op.Read {
			putStamp(buf, uint32(c), uint64(op.Block), trk.issue(op.Block))
		}
		var root uint32
		tracing := tag != nil && e.tr.on.Load()
		t0 := time.Now()
		if tracing {
			n.tracedOps++
			if i%traceSample == 0 {
				root = tag.beginOp(s, op.Read, off/objectBytes, off%objectBytes, opBase|i, int64(t0.Sub(e.tr.epoch)))
			}
		}
		var err error
		if op.Read {
			err = img.ReadAt(buf, off)
		} else {
			err = img.WriteAt(buf, off)
		}
		t1 := time.Now()
		if root != 0 {
			tag.endOp(s, root, int64(t1.Sub(e.tr.epoch)))
		}
		n.ops++
		smp := sample{end: int64(t1.Sub(res.start)), lat: int64(t1.Sub(t0))}
		if op.Read {
			if err != nil {
				n.errs++
			} else if _, ok := readStamp(buf, uint32(c), uint64(op.Block)); !ok {
				n.bad++
			}
			if o.record {
				reads = append(reads, smp)
			}
			continue
		}
		trk.done(op.Block)
		if err != nil {
			n.errs++
		} else {
			e.ackedBytes.Add(BlockBytes)
		}
		if o.record {
			writes = append(writes, smp)
		}
	}
}

// errNoOps guards a window too short to complete anything.
var errNoOps = errors.New("window completed no ops")
