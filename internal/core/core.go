// Package core assembles complete rebloc clusters in one process: a
// monitor, N OSD daemons (each with its own simulated device and NVM
// bank) and clients, wired over TCP or the in-process transport. It is
// the entry point the examples, integration tests and the benchmark
// harness use.
package core

import (
	"errors"
	"fmt"
	"time"

	"rebloc/internal/client"
	"rebloc/internal/crush"
	"rebloc/internal/device"
	"rebloc/internal/messenger"
	"rebloc/internal/metrics"
	"rebloc/internal/monitor"
	"rebloc/internal/nvm"
	"rebloc/internal/osd"
	"rebloc/internal/store/cos"
)

// TransportKind selects the wiring between nodes.
type TransportKind int

// Transports.
const (
	// TransportInProc passes framed messages through channels: identical
	// serialisation cost to TCP without kernel noise. Default for
	// CPU-focused benchmarks.
	TransportInProc TransportKind = iota
	// TransportTCP uses real loopback TCP sockets.
	TransportTCP
)

// Options configures a cluster.
type Options struct {
	// OSDs is the number of storage daemons (default 3).
	OSDs int
	// Mode is the OSD architecture under test (default Proposed).
	Mode osd.Mode
	// Replicas is the replication factor (paper: 2).
	Replicas int
	// PGs is the placement-group count (default 64).
	PGs uint32
	// Transport selects in-process channels or TCP loopback.
	Transport TransportKind
	// DeviceBytes sizes each OSD's device (default 1 GiB).
	DeviceBytes int64
	// DeviceProfile, when non-nil, paces each device like an NVMe SSD.
	DeviceProfile *device.Profile
	// NVMBytes sizes each OSD's NVM bank (default 64 MiB; paper: 8 GiB
	// per node, used sparsely).
	NVMBytes int64
	// NVMCrashSim keeps a durable shadow copy for crash tests (slower).
	NVMCrashSim bool
	// ObjectBytes is the fixed object size (COS pre-allocation unit).
	ObjectBytes uint64
	// Partitions, PGWorkers, NonPriority, FlushThreshold, FlushInterval
	// pass through to the OSDs (zero = defaults).
	Partitions     int
	PGWorkers      int
	NonPriority    int
	FlushThreshold int
	FlushInterval  time.Duration
	// Shards is the proposed-mode top-half shard count per OSD (zero =
	// GOMAXPROCS).
	Shards int
	// OplogRegionBytes sizes each PG's NVM op-log region (zero = OSD
	// default 2 MiB). Smaller regions spread a fixed NVM budget over
	// more PGs and bring the occupancy ladder's watermarks closer.
	OplogRegionBytes int64
	// ReadCacheBytes sizes each OSD's NVM block read cache (zero =
	// default 8 MiB, negative = disabled).
	ReadCacheBytes int64
	// QoSRate enables per-tenant token-bucket admission at each OSD's
	// ingress: a client-write budget in ops/sec, weighted-fair shared
	// across tenants (volumes). 0 disables admission (the default).
	QoSRate float64
	// QoSBurst is the per-unit-weight token bucket depth in ops (zero =
	// OSD default 64).
	QoSBurst float64
	// ScrubInterval enables each OSD's background scrub daemon (zero =
	// disabled; ScrubNow still works on demand).
	ScrubInterval time.Duration
	// ScrubRate paces scrub work in objects/sec (zero = OSD default 64).
	ScrubRate float64
	// ThrottleHigh is the op-log occupancy watermark of the graded
	// backpressure ladder (zero = OSD default 0.85).
	ThrottleHigh float64
	// COS overrides the CPU-efficient store options (ablations); COSSet
	// marks them as explicitly provided.
	COS    cos.Options
	COSSet bool
	// HeartbeatTimeout tunes monitor failure detection (tests shrink it).
	HeartbeatTimeout time.Duration
	// WrapTransport, when non-nil, wraps the cluster transport before any
	// node uses it (fault injection: every listener, dial and conn in the
	// cluster then flows through the wrapper).
	WrapTransport func(messenger.Transport) messenger.Transport
	// WrapDevice, when non-nil, wraps OSD i's device before the OSD opens
	// its store (fault injection: torn writes, I/O errors). It composes
	// outside DeviceProfile pacing.
	WrapDevice func(i int, d device.Device) device.Device
}

func (o *Options) fill() {
	if o.OSDs <= 0 {
		o.OSDs = 3
	}
	if o.Mode == 0 {
		o.Mode = osd.ModeProposed
	}
	if o.Replicas <= 0 {
		o.Replicas = 2
	}
	if o.PGs == 0 {
		o.PGs = 64
	}
	if o.DeviceBytes == 0 {
		o.DeviceBytes = 1 << 30
	}
	if o.NVMBytes == 0 {
		o.NVMBytes = 64 << 20
	}
}

// Cluster is a running in-process cluster.
type Cluster struct {
	opts    Options
	tr      messenger.Transport
	msgr    *messenger.Stats
	reg     *metrics.Registry
	mon     *monitor.Monitor
	osds    []*osd.OSD
	devices []device.Device
	mems    []*device.Mem
	banks   []*nvm.Bank
	acct    []*metrics.CPUAccount
	clients []*client.Client
}

// New builds and starts a cluster, waiting until every OSD is up in the
// map.
func New(opts Options) (*Cluster, error) {
	opts.fill()
	c := &Cluster{opts: opts, msgr: &messenger.Stats{}}
	switch opts.Transport {
	case TransportTCP:
		c.tr = messenger.TCP{Stats: c.msgr}
	default:
		in := messenger.NewInProc()
		in.Stats = c.msgr
		c.tr = in
	}
	if opts.WrapTransport != nil {
		c.tr = opts.WrapTransport(c.tr)
	}
	c.reg = metrics.NewRegistry()
	c.msgr.Register(c.reg, "msgr")

	listenAddr := func(what string, i int) string {
		if opts.Transport == TransportTCP {
			return "127.0.0.1:0"
		}
		return fmt.Sprintf("%s.%d", what, i)
	}

	mon, err := monitor.New(monitor.Config{
		Transport:        c.tr,
		ListenAddr:       listenAddr("mon", 0),
		PGCount:          opts.PGs,
		Replicas:         opts.Replicas,
		HeartbeatTimeout: opts.HeartbeatTimeout,
	})
	if err != nil {
		return nil, err
	}
	if err := mon.Start(); err != nil {
		return nil, err
	}
	c.mon = mon

	for i := 0; i < opts.OSDs; i++ {
		if _, err := c.startOSD(uint32(i), listenAddr("osd", i), nil, nil); err != nil {
			c.Close()
			return nil, err
		}
	}
	if err := c.waitAllUp(30 * time.Second); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// startOSD creates (or restarts, when dev/bank are supplied) one OSD.
func (c *Cluster) startOSD(id uint32, addr string, dev device.Device, bank *nvm.Bank) (*osd.OSD, error) {
	if dev == nil {
		mem := device.NewMem(c.opts.DeviceBytes)
		c.mems = append(c.mems, mem)
		dev = mem
		if c.opts.DeviceProfile != nil {
			dev = device.NewSim(mem, *c.opts.DeviceProfile)
		}
		if c.opts.WrapDevice != nil {
			dev = c.opts.WrapDevice(int(id), dev)
		}
		c.devices = append(c.devices, dev)
	}
	if bank == nil {
		bank = nvm.NewBank(c.opts.NVMBytes, nvm.WithCrashSim(c.opts.NVMCrashSim))
		c.banks = append(c.banks, bank)
	}
	acct := metrics.NewCPUAccount()
	cfg := osd.Config{
		ID:               id,
		Mode:             c.opts.Mode,
		Transport:        c.tr,
		ListenAddr:       addr,
		MonAddr:          c.mon.Addr(),
		Dev:              dev,
		Bank:             bank,
		ObjectBytes:      c.opts.ObjectBytes,
		PGWorkers:        c.opts.PGWorkers,
		NonPriority:      c.opts.NonPriority,
		Partitions:       c.opts.Partitions,
		FlushThreshold:   c.opts.FlushThreshold,
		FlushInterval:    c.opts.FlushInterval,
		OplogRegionBytes: c.opts.OplogRegionBytes,
		ReadCacheBytes:   c.opts.ReadCacheBytes,
		QoSRate:          c.opts.QoSRate,
		QoSBurst:         c.opts.QoSBurst,
		ScrubInterval:    c.opts.ScrubInterval,
		ScrubRate:        c.opts.ScrubRate,
		ThrottleHigh:     c.opts.ThrottleHigh,
		Shards:           c.opts.Shards,
		Account:          acct,
		COS:              c.opts.COS,
		COSSet:           c.opts.COSSet,
	}
	o, err := osd.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := o.Start(); err != nil {
		return nil, err
	}
	o.RegisterMetrics(c.reg, fmt.Sprintf("osd%d", id))
	if int(id) < len(c.osds) {
		c.osds[id] = o
		c.acct[id] = acct
	} else {
		c.osds = append(c.osds, o)
		c.acct = append(c.acct, acct)
	}
	return o, nil
}

// waitAllUp blocks until the monitor map shows every OSD up.
func (c *Cluster) waitAllUp(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		m := c.mon.Map()
		if len(m.UpOSDs()) == c.opts.OSDs {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return errors.New("core: cluster did not come up")
}

// Client opens a new client against the cluster.
func (c *Cluster) Client() (*client.Client, error) {
	cl, err := client.New(c.tr, c.mon.Addr(), client.Options{})
	if err != nil {
		return nil, err
	}
	c.clients = append(c.clients, cl)
	return cl, nil
}

// Monitor exposes the monitor.
func (c *Cluster) Monitor() *monitor.Monitor { return c.mon }

// Transport exposes the cluster transport (the wrapped one when
// WrapTransport is set), so harnesses can open their own clients with
// non-default options against it.
func (c *Cluster) Transport() messenger.Transport { return c.tr }

// MonAddr returns the monitor's listen address.
func (c *Cluster) MonAddr() string { return c.mon.Addr() }

// OSDAddr returns daemon i's current listen address ("" after a kill).
func (c *Cluster) OSDAddr(i int) string {
	if c.osds[i] == nil {
		return ""
	}
	return c.osds[i].Addr()
}

// OSD returns daemon i (nil after a kill).
func (c *Cluster) OSD(i int) *osd.OSD { return c.osds[i] }

// OSDs returns the number of configured OSDs.
func (c *Cluster) OSDs() int { return len(c.osds) }

// Map returns the monitor's current map.
func (c *Cluster) Map() *crush.Map { return c.mon.Map() }

// Accounts returns the per-OSD CPU accounts.
func (c *Cluster) Accounts() []*metrics.CPUAccount { return c.acct }

// MessengerStats returns the send-path counters shared by every
// connection in the cluster (frames per flush, queue depth, …).
func (c *Cluster) MessengerStats() *messenger.Stats { return c.msgr }

// Metrics returns the cluster's metrics registry; the messenger send
// path and frame pool are registered under the "msgr." prefix.
func (c *Cluster) Metrics() *metrics.Registry { return c.reg }

// ResetAccounting zeroes every OSD's CPU window (benchmark warm-up).
func (c *Cluster) ResetAccounting() {
	for _, a := range c.acct {
		if a != nil {
			a.ResetWindow()
		}
	}
}

// Usage aggregates CPU utilisation across OSDs (percent of a core).
func (c *Cluster) Usage() metrics.Usage {
	total := metrics.Usage{ByCategory: make(map[metrics.Category]float64)}
	for _, a := range c.acct {
		if a == nil {
			continue
		}
		u := a.Snapshot()
		total.Total += u.Total
		total.Wall = u.Wall
		for cat, pct := range u.ByCategory {
			total.ByCategory[cat] += pct
		}
	}
	return total
}

// DeviceSnapshots returns per-OSD device counters.
func (c *Cluster) DeviceSnapshots() []device.Snapshot {
	out := make([]device.Snapshot, 0, len(c.mems))
	for _, d := range c.mems {
		out = append(out, d.Stats().Snapshot())
	}
	return out
}

// FlushAll drains every OSD's staged state.
func (c *Cluster) FlushAll() error {
	for _, o := range c.osds {
		if o == nil {
			continue
		}
		if err := o.FlushAll(); err != nil {
			return err
		}
	}
	return nil
}

// KillOSD crashes daemon i (no flush). The monitor will mark it down.
func (c *Cluster) KillOSD(i int) {
	if c.osds[i] != nil {
		c.osds[i].Kill()
		c.osds[i] = nil
	}
}

// RestartOSD brings daemon i back on its original device and NVM bank,
// as a replacement node that backfills from the survivors.
func (c *Cluster) RestartOSD(i int) error {
	if c.osds[i] != nil {
		return fmt.Errorf("core: osd %d still running", i)
	}
	addr := fmt.Sprintf("osd.%d.r%d", i, time.Now().UnixNano())
	if c.opts.Transport == TransportTCP {
		addr = "127.0.0.1:0"
	}
	_, err := c.startOSD(uint32(i), addr, c.devices[i], c.banks[i])
	return err
}

// Bank returns OSD i's NVM bank (crash-simulation tests).
func (c *Cluster) Bank(i int) *nvm.Bank { return c.banks[i] }

// WaitEpochAtLeast blocks until the monitor map reaches the epoch.
func (c *Cluster) WaitEpochAtLeast(epoch uint32, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if c.mon.Map().Epoch >= epoch {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("core: epoch %d not reached", epoch)
}

// Close tears the cluster down.
func (c *Cluster) Close() error {
	for _, cl := range c.clients {
		cl.Close()
	}
	var firstErr error
	for _, o := range c.osds {
		if o == nil {
			continue
		}
		if err := o.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if c.mon != nil {
		if err := c.mon.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
