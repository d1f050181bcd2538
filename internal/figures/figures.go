// Package figures regenerates every table and figure of the paper's
// evaluation (§V) against in-process rebloc clusters. Each Fig*/Table*
// function runs the experiment at a configurable scale and prints rows
// shaped like the paper's; EXPERIMENTS.md records the paper-vs-measured
// comparison. cmd/rebloc-bench exposes them on the command line and the
// top-level bench_test.go wraps them as Go benchmarks.
package figures

import (
	"fmt"
	"io"
	"runtime/debug"
	"text/tabwriter"
	"time"

	"rebloc/internal/bench"
	"rebloc/internal/client"
	"rebloc/internal/core"
	"rebloc/internal/device"
	"rebloc/internal/metrics"
	"rebloc/internal/oplog"
	"rebloc/internal/osd"
	"rebloc/internal/rbd"
	"rebloc/internal/store/cos"
)

// Params scales the experiments. The defaults finish each figure in a few
// seconds; pass a larger Scale for longer, steadier runs.
type Params struct {
	// Scale multiplies the operation counts (1.0 = quick run).
	Scale float64
	// OSDs is the storage-node count (paper: 4 nodes × 8 OSDs; here the
	// daemons are the nodes).
	OSDs int
	// Replicas is the replication factor (paper: 2).
	Replicas int
	// PGs is the placement-group count.
	PGs uint32
	// ImageMB sizes the block image under test.
	ImageMB uint64
	// ObjectMB is the stripe unit (paper: 4 MiB; smaller keeps quick runs
	// light).
	ObjectMB uint64
	// Jobs/QueueDepth shape the fio load (paper: numjobs=2, iodepth=16).
	Jobs       int
	QueueDepth int
	// UseTCP switches from the in-process transport to loopback TCP.
	UseTCP bool
	// MaxCores caps the per-core scaling sweeps (ScaleSweep, Fig11);
	// zero means the host's CPU count. Values above the host's CPU count
	// are honored (GOMAXPROCS may oversubscribe) so the sweep shape can
	// be exercised anywhere, but speedups then reflect time-slicing.
	MaxCores int
	// NoChecksums disables the COS at-rest block CRCs, for measuring the
	// verified read path's overhead (EXPERIMENTS.md scrub record).
	NoChecksums bool
}

func (p *Params) fill() {
	if p.Scale <= 0 {
		p.Scale = 1
	}
	if p.OSDs <= 0 {
		p.OSDs = 3
	}
	if p.Replicas <= 0 {
		p.Replicas = 2
	}
	if p.PGs == 0 {
		p.PGs = 32
	}
	if p.ImageMB == 0 {
		p.ImageMB = 64
	}
	if p.ObjectMB == 0 {
		p.ObjectMB = 1
	}
	if p.Jobs <= 0 {
		p.Jobs = 2
	}
	if p.QueueDepth <= 0 {
		p.QueueDepth = 8
	}
}

func (p Params) ops(base int) int {
	n := int(float64(base) * p.Scale)
	if n < 100 {
		n = 100
	}
	return n
}

// coreOptions aliases core.Options for the per-figure adjust callbacks.
type coreOptions = core.Options

// cut is a cluster-under-test with provisioned images (one per fio job,
// like the paper's one-RBD-image-per-connection setup).
type cut struct {
	c    *core.Cluster
	cl   *client.Client
	img  *rbd.Image
	imgs []*rbd.Image
}

func (p Params) coreOptions(mode osd.Mode) core.Options {
	// Device sizing: all images land replicated across the OSDs, plus
	// headroom for store metadata and LSM churn. Devices are RAM-backed
	// and allocated eagerly, so stay frugal.
	footprint := int64(p.ImageMB) << 20 * int64(p.Jobs) * int64(p.Replicas) / int64(p.OSDs)
	opts := core.Options{
		OSDs:        p.OSDs,
		Mode:        mode,
		Replicas:    p.Replicas,
		PGs:         p.PGs,
		ObjectBytes: p.ObjectMB << 20,
		DeviceBytes: footprint*3/2 + (384 << 20),
		NVMBytes:    128 << 20,
	}
	if p.UseTCP {
		opts.Transport = core.TransportTCP
	}
	if p.NoChecksums {
		// Explicit COS options suppress the !COSSet defaulting in the OSD;
		// MDCache stays on (the OSD backfills the bank) so the only delta
		// against the stock configuration is the checksum layer.
		co := cos.DefaultOptions()
		co.Checksums = false
		co.MDCache = true
		opts.COS = co
		opts.COSSet = true
	}
	return opts
}

// setup builds a cluster and provisions the test image.
func setup(mode osd.Mode, p Params, adjust func(*core.Options)) (*cut, error) {
	opts := p.coreOptions(mode)
	if adjust != nil {
		adjust(&opts)
	}
	c, err := core.New(opts)
	if err != nil {
		return nil, fmt.Errorf("figures: cluster (%s): %w", mode, err)
	}
	cl, err := c.Client()
	if err != nil {
		c.Close()
		return nil, err
	}
	u := &cut{c: c, cl: cl}
	// One image per job, each on its own client (and connections), the
	// paper's "one RBD image per connection" topology.
	for j := 0; j < p.Jobs; j++ {
		jcl, err := c.Client()
		if err != nil {
			c.Close()
			return nil, err
		}
		img, err := rbd.Create(jcl, fmt.Sprintf("bench%d", j), p.ImageMB<<20,
			rbd.CreateOptions{ObjectBytes: p.ObjectMB << 20})
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("figures: image %d: %w", j, err)
		}
		u.imgs = append(u.imgs, img)
	}
	u.img = u.imgs[0]
	return u, nil
}

// close tears the cluster down and returns its RAM devices to the OS, so
// back-to-back experiments don't accumulate resident memory.
func (u *cut) close() {
	u.c.Close()
	debug.FreeOSMemory()
}

// measureFio runs a warm-up pass, resets the measurement windows, runs
// the measured pass, and returns the result with CPU usage and device
// deltas.
func (u *cut) measureFio(opts bench.FioOptions, warmupOps int) (bench.Result, metrics.Usage, []device.Snapshot) {
	if warmupOps > 0 {
		w := opts
		w.Ops = warmupOps
		w.Duration = 0
		_ = bench.RunFioMulti(u.imgs, w)
	}
	_ = u.c.FlushAll()
	u.c.ResetAccounting()
	before := u.c.DeviceSnapshots()
	res := bench.RunFioMulti(u.imgs, opts)
	usage := u.c.Usage()
	// Device accounting includes the deferred cost of the run: flush any
	// staged entries so WAF reflects every byte the workload will write.
	_ = u.c.FlushAll()
	after := u.c.DeviceSnapshots()
	deltas := make([]device.Snapshot, len(after))
	for i := range after {
		deltas[i] = after[i].Sub(before[i])
	}
	return res, usage, deltas
}

// prefill writes every 64 KiB chunk of every image sequentially, so the
// measured window that follows sees steady-state overwrites: no chunk
// allocation, no zero-fill (the paper measures warmed images too).
func (u *cut) prefill() {
	const block = 64 << 10
	blocks := int(u.img.Size() / block)
	_ = bench.RunFioMulti(u.imgs, bench.FioOptions{
		Pattern:    bench.SeqWrite,
		BlockBytes: block,
		Ops:        blocks * len(u.imgs),
		Jobs:       len(u.imgs),
		QueueDepth: 4,
	})
	_ = u.c.FlushAll()
}

func sumWritten(deltas []device.Snapshot) int64 {
	var total int64
	for _, d := range deltas {
		total += d.BytesWritten
	}
	return total
}

// msgrRow summarises the messenger send path for one cluster-under-test:
// the corking factor (frames per bufio flush; TCP only — the in-process
// transport never flushes) and the replication fan-out batching factor
// (ops per ReplBatch frame, summed over OSDs).
func msgrRow(u *cut) string {
	var batchFrames, batchedOps int64
	for i := 0; i < u.c.OSDs(); i++ {
		o := u.c.OSD(i)
		if o == nil {
			continue
		}
		batchFrames += o.ReplBatchFrames.Load()
		batchedOps += o.ReplBatchedOps.Load()
	}
	opsPerBatch := 0.0
	if batchFrames > 0 {
		opsPerBatch = float64(batchedOps) / float64(batchFrames)
	}
	return fmt.Sprintf("%.1ff/fl %.1fop/rb", u.c.MessengerStats().FramesPerFlush(), opsPerBatch)
}

// qosRow summarises the backpressure signals for one cluster-under-test:
// the op-log occupancy high-water mark (worst OSD) and the slowest
// per-peer replication-ack EWMA — the two inputs the throttle ladder and
// the slow-replica isolation act on. Modes without an op log render "-".
func qosRow(u *cut) string {
	var occHW float64
	var ack time.Duration
	seen := false
	for i := 0; i < u.c.OSDs(); i++ {
		o := u.c.OSD(i)
		if o == nil {
			continue
		}
		if hw := float64(o.OplogOccHW.Load()) / 10000; hw > occHW {
			occHW = hw
			seen = true
		}
		for _, d := range o.PeerAckLatencies() {
			if d > ack {
				ack = d
			}
		}
	}
	if !seen {
		return "-"
	}
	return fmt.Sprintf("%.0f%% %s", occHW*100, us(ack))
}

// oplogRow summarises the NVM op-log for one cluster-under-test: ops per
// commit (appends per header persist), the bottom-half batching factor
// (entries per flush pass) and the coalesce ratio (staged entries per
// store op submitted). Replicated mode has no op log, so the row renders
// as "-".
func oplogRow(u *cut) string {
	var snap oplog.StatsSnapshot
	var batches, entries, storeOps int64
	for i := 0; i < u.c.OSDs(); i++ {
		o := u.c.OSD(i)
		if o == nil {
			continue
		}
		snap = snap.Add(o.OplogSnapshot())
		batches += o.FlushBatches.Load()
		entries += o.FlushedEntries.Load()
		storeOps += o.FlushStoreOps.Load()
	}
	if snap.Appends == 0 {
		return "-"
	}
	opsPerCommit := 0.0
	if snap.Groups > 0 {
		opsPerCommit = float64(snap.Appends) / float64(snap.Groups)
	}
	entriesPerBatch := 0.0
	if batches > 0 {
		entriesPerBatch = float64(entries) / float64(batches)
	}
	coalesce := 1.0
	if storeOps > 0 {
		coalesce = float64(entries) / float64(storeOps)
	}
	return fmt.Sprintf("%.1fops/commit %.1fe/fl %.1fx", opsPerCommit, entriesPerBatch, coalesce)
}

// scrubRow summarises the data-integrity machinery for one
// cluster-under-test: block-checksum read errors, read-repair installs
// and staged-payload heals (DRAM copies restored from their NVM frames).
// Healthy hardware reads 0e/0r/0h — the column proves verification is on
// and free of false positives, not that rot occurred.
func scrubRow(u *cut) string {
	var errs, repairs, heals int64
	seen := false
	for i := 0; i < u.c.OSDs(); i++ {
		o := u.c.OSD(i)
		if o == nil {
			continue
		}
		seen = true
		errs += o.CksumReadErrors.Load()
		repairs += o.ScrubRepairs.Load()
		heals += o.OplogHeals.Load()
	}
	if !seen {
		return "-"
	}
	return fmt.Sprintf("%de/%dr/%dh", errs, repairs, heals)
}

// cpuRow renders the usage breakdown like the paper's stacked bars.
func cpuRow(u metrics.Usage) string {
	return fmt.Sprintf("total=%4.0f%%  NP=%4.0f%%  SP=%4.0f%%  MT=%4.0f%%  PT=%4.0f%%  NPT=%4.0f%%",
		u.Total,
		u.ByCategory[metrics.CatMP]+u.ByCategory[metrics.CatRP],
		u.ByCategory[metrics.CatTP]+u.ByCategory[metrics.CatOS],
		u.ByCategory[metrics.CatMT],
		u.ByCategory[metrics.CatPT],
		u.ByCategory[metrics.CatNPT])
}

func newTable(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
}
