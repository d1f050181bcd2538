// Package chaos is a deterministic, seed-driven cluster fault-injection
// harness with a block-level history checker. A scenario assembles an
// in-process cluster (monitor + OSDs + clients over the in-proc
// transport), drives a recorded random-write workload against it, and
// fires a seeded schedule of faults at workload-progress marks: OSD
// crash/restart (process state dropped, recovery from the NVM oplog +
// COS), torn vectored device writes, messenger faults (dropped, delayed
// and duplicated frames, severed peer connections) and NVM corruption
// before recovery.
//
// The checker validates the paper's central claim — ACK-after-NVM-log is
// safe (PAPER.md §III): every acknowledged write must survive crash +
// REDO replay, reads must honor read-your-writes through the index cache
// and never observe a torn mix of two block versions, and the replicas
// of every object must converge once the cluster heals.
//
// Everything random — workload content, fault schedules, messenger fault
// streams, corruption bytes — derives from one seed, printed on failure:
//
//	go test ./internal/chaos -run 'TestScenarios/<name>' -chaos.seed=<seed>
//
// replays the same decisions (goroutine interleaving aside).
package chaos

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rebloc/internal/core"
	"rebloc/internal/device"
	"rebloc/internal/messenger"
	"rebloc/internal/osd"
)

// Options sizes one scenario's cluster and workload.
type Options struct {
	// OSDs, Replicas, PGs shape the cluster (defaults 3 / 2 / 16).
	OSDs     int
	Replicas int
	PGs      uint32
	// Objects × BlocksPerObject × BlockBytes is the workload's address
	// space (defaults 8 × 4 × 4096). Each block has exactly one writer,
	// so per-block history is totally ordered by construction.
	Objects         int
	BlocksPerObject int
	BlockBytes      uint32
	// Writers workers issue OpsPerWriter operations each (defaults 4 ×
	// 80); every ReadEvery-th op is a read-your-writes probe instead of
	// a write (default 5, 0 disables).
	Writers      int
	OpsPerWriter int
	ReadEvery    int
	// Zipfian skews each writer's block picks so a hot set stays
	// read-cache-resident while overwrites race the reads (the
	// stale-cache-read scenario's whole point).
	Zipfian bool
	// HeartbeatTimeout tunes monitor failure detection (default 600ms —
	// kills must be noticed well within a scenario).
	HeartbeatTimeout time.Duration
}

func (o *Options) fill() {
	if o.OSDs <= 0 {
		o.OSDs = 3
	}
	if o.Replicas <= 0 {
		o.Replicas = 2
	}
	if o.PGs == 0 {
		o.PGs = 16
	}
	if o.Objects <= 0 {
		o.Objects = 8
	}
	if o.BlocksPerObject <= 0 {
		o.BlocksPerObject = 4
	}
	if o.BlockBytes == 0 {
		o.BlockBytes = 4096
	}
	if o.Writers <= 0 {
		o.Writers = 4
	}
	if o.OpsPerWriter <= 0 {
		o.OpsPerWriter = 80
	}
	if o.ReadEvery == 0 {
		o.ReadEvery = 5
	}
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 600 * time.Millisecond
	}
}

// Event is one scheduled fault. At is a fraction of the workload's total
// operation count in [0, 1]; the coordinator fires the event once issued
// operations cross the mark (events left over when the workload ends fire
// in order at the end, so a schedule always executes fully).
type Event struct {
	At   float64
	Name string
	Do   func(h *Harness)
}

// Scenario is one table entry: a cluster/workload shape plus a fault
// schedule built against the live harness.
type Scenario struct {
	Name string
	// DefaultSeed drives the run unless -chaos.seed overrides it.
	DefaultSeed int64
	Opts        Options
	Schedule    func(h *Harness) []Event
}

// Harness is one scenario run: cluster, fault hooks, recorded history.
type Harness struct {
	t    *testing.T
	Seed int64
	opts Options
	name string

	cluster   *core.Cluster
	faulty    *messenger.Faulty
	devFaults []*device.Fault
	dead      []bool // per-OSD killed state; coordinator goroutine only

	hist   *history
	issued atomic.Int64

	readErrs  atomic.Int64 // tolerated (indeterminate) read failures
	writeErrs atomic.Int64 // tolerated (indeterminate) write failures

	mu   sync.Mutex
	errs []string
}

// fail records an invariant violation (checked at the end of the run).
func (h *Harness) fail(format string, args ...any) {
	h.mu.Lock()
	h.errs = append(h.errs, fmt.Sprintf(format, args...))
	h.mu.Unlock()
}

// Run executes one scenario under the given seed and fails t with a
// reproducing command line if any invariant broke.
func Run(t *testing.T, sc Scenario, seed int64) {
	opts := sc.Opts
	opts.fill()
	h := &Harness{
		t:         t,
		Seed:      seed,
		opts:      opts,
		name:      sc.Name,
		devFaults: make([]*device.Fault, opts.OSDs),
		dead:      make([]bool, opts.OSDs),
		hist:      newHistory(opts.Objects, opts.BlocksPerObject),
	}
	t.Logf("chaos: scenario %s seed=%d", sc.Name, seed)

	cluster, err := core.New(core.Options{
		OSDs:     opts.OSDs,
		Mode:     osd.ModeProposed,
		Replicas: opts.Replicas,
		PGs:      opts.PGs,
		// Always run the sharded top half multi-shard, even on small CI
		// hosts where the per-core default would collapse to one shard:
		// faults must hit cross-shard routing, per-shard batched appends and
		// the lock-free dirty queue, not a degenerate single-queue layout.
		Shards:           4,
		DeviceBytes:      256 << 20,
		NVMBytes:         64 << 20,
		NVMCrashSim:      true,
		FlushThreshold:   8,
		FlushInterval:    2 * time.Millisecond,
		HeartbeatTimeout: opts.HeartbeatTimeout,
		// Schedules that force scrubs (bit-rot) must not be paced like a
		// production background daemon — a throttled scrub would still be
		// crawling when the checker runs.
		ScrubRate: 4096,
		WrapTransport: func(tr messenger.Transport) messenger.Transport {
			h.faulty = messenger.NewFaulty(tr)
			return h.faulty
		},
		WrapDevice: func(i int, d device.Device) device.Device {
			f := device.NewFault(d)
			h.devFaults[i] = f
			return f
		},
	})
	if err != nil {
		t.Fatalf("chaos: scenario %s seed=%d: cluster: %v", sc.Name, seed, err)
	}
	h.cluster = cluster
	defer cluster.Close()

	var events []Event
	if sc.Schedule != nil {
		events = sc.Schedule(h)
	}
	h.runWorkload(events)
	h.heal()
	h.check()

	t.Logf("chaos: %s done: %d ops issued, %d write errs, %d read errs (tolerated)",
		sc.Name, h.issued.Load(), h.writeErrs.Load(), h.readErrs.Load())
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.errs) > 0 {
		msg := ""
		for _, e := range h.errs {
			msg += "  - " + e + "\n"
		}
		t.Fatalf("chaos: scenario %s FAILED with seed %d\nreproduce: go test ./internal/chaos -run 'TestScenarios/%s' -chaos.seed=%d\n%s",
			sc.Name, seed, sc.Name, seed, msg)
	}
}

// runWorkload starts the writers and fires scheduled events as the
// issued-operation count crosses their progress marks.
func (h *Harness) runWorkload(events []Event) {
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	total := h.opts.Writers * h.opts.OpsPerWriter

	var wg sync.WaitGroup
	for w := 0; w < h.opts.Writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h.writer(w)
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	fire := func(ev Event) {
		prog := float64(h.issued.Load()) / float64(total)
		h.t.Logf("chaos[%s]: @%3.0f%% firing %s", h.name, prog*100, ev.Name)
		ev.Do(h)
	}
	idx := 0
	ticker := time.NewTicker(2 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-done:
			// The workload finished with events still pending (it
			// outpaced its schedule); execute the tail so every scenario
			// runs its full fault sequence before healing.
			for ; idx < len(events); idx++ {
				fire(events[idx])
			}
			return
		case <-ticker.C:
			prog := float64(h.issued.Load()) / float64(total)
			for idx < len(events) && events[idx].At <= prog {
				fire(events[idx])
				idx++
			}
		}
	}
}

// heal disarms every fault, brings dead OSDs back and drains all staged
// state, leaving a quiet, fully-replicated cluster for the checker.
func (h *Harness) heal() {
	h.faulty.SetFaults(nil)
	for _, f := range h.devFaults {
		if f != nil {
			f.Disarm()
			f.DisarmCorruptReads()
		}
	}
	for i := range h.dead {
		if !h.dead[i] {
			continue
		}
		var err error
		for attempt := 0; attempt < 5; attempt++ {
			if err = h.cluster.RestartOSD(i); err == nil {
				break
			}
			time.Sleep(100 * time.Millisecond)
		}
		if err != nil {
			h.fail("heal: restart osd %d: %v", i, err)
			return
		}
		h.dead[i] = false
	}
	// All daemons must rejoin the map.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if len(h.cluster.Map().UpOSDs()) == h.opts.OSDs {
			break
		}
		if time.Now().After(deadline) {
			h.fail("heal: only %d/%d OSDs up after 30s", len(h.cluster.Map().UpOSDs()), h.opts.OSDs)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Drain staged state everywhere. Transient failures are expected
	// while backfills finish; persistent failure is a finding.
	var err error
	for {
		if err = h.cluster.FlushAll(); err == nil {
			break
		}
		if time.Now().After(deadline) {
			h.fail("heal: FlushAll never succeeded: %v", err)
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	// One settling pass: backfills triggered by the restarts above may
	// have re-staged entries after the first flush.
	time.Sleep(50 * time.Millisecond)
	if err := h.cluster.FlushAll(); err != nil {
		h.fail("heal: settling FlushAll: %v", err)
	}
}

// --- fault primitives used by scenario schedules ---

// Kill crashes OSD i; with powerLoss the NVM bank also reverts to its
// last persisted image (kill alone models a daemon crash, kill + power
// loss a node losing power mid-drain).
func (h *Harness) Kill(i int, powerLoss bool) {
	if h.dead[i] {
		return
	}
	h.cluster.KillOSD(i)
	if powerLoss {
		h.cluster.Bank(i).Crash()
	}
	h.dead[i] = true
}

// Restart brings a killed OSD back on its original device and bank.
func (h *Harness) Restart(i int) {
	if !h.dead[i] {
		return
	}
	if err := h.cluster.RestartOSD(i); err != nil {
		h.fail("restart osd %d: %v", i, err)
		return
	}
	h.dead[i] = false
}

// CorruptOplogs scribbles pseudorandom bytes over up to n of OSD i's
// carved oplog regions: the first gets a corrupt header (salvage must
// reformat), the rest a corrupt body (salvage must truncate). The OSD
// must be dead — corrupting under a live daemon is a data race, not a
// fault model.
func (h *Harness) CorruptOplogs(i, n int) {
	if !h.dead[i] {
		h.fail("CorruptOplogs(%d) on a live OSD", i)
		return
	}
	bank := h.cluster.Bank(i)
	hit := 0
	for pg := uint32(0); pg < h.opts.PGs && hit < n; pg++ {
		r, err := bank.Region(fmt.Sprintf("osd%d.oplog.%d", i, pg))
		if err != nil {
			continue
		}
		if hit == 0 {
			// Header corruption: magic survives often enough that bounds
			// go garbage — the header-reinit salvage path.
			_ = r.Corrupt(4, 24, h.Seed+int64(pg))
		} else {
			// Body corruption just past the header — the truncate-at-
			// first-bad-frame salvage path.
			_ = r.Corrupt(64, 256, h.Seed+int64(pg))
		}
		hit++
	}
}

// SetFaults arms (nil disarms) the messenger fault policy. The monitor
// address is always excluded: dropping boot replies wedges daemons in
// ways no storage recovery protocol is expected to handle.
func (h *Harness) SetFaults(f *messenger.Faults) {
	if f != nil {
		f.Exclude = append(f.Exclude, "mon.")
		if f.Seed == 0 {
			f.Seed = h.Seed
		}
	}
	h.faulty.SetFaults(f)
}

// SlowOSD arms a delay-only fault policy scoped to OSD i's address: every
// frame received on its connections — the mutations it ingests and the
// acks its peers read back from it — is delayed with probability prob by
// up to max. The rest of the cluster is untouched. This models one slow
// replica, the case the per-peer credit/EWMA isolation must absorb
// without dragging the primary's commit path down with it.
func (h *Harness) SlowOSD(i int, prob float64, max time.Duration) {
	addr := h.cluster.OSDAddr(i)
	if addr == "" {
		return
	}
	h.SetFaults(&messenger.Faults{
		DelayProb: prob,
		DelayMax:  max,
		Only:      []string{addr},
	})
	h.t.Logf("chaos[%s]: slowed osd %d (delay %.0f%% up to %s)", h.name, i, prob*100, max)
}

// Sever closes every connection of OSD i (peers, clients) at its current
// address. Reconnects are allowed — a sever is a network blip, not a
// partition.
func (h *Harness) Sever(i int) {
	addr := h.cluster.OSDAddr(i)
	if addr == "" {
		return
	}
	n := h.faulty.Sever(addr)
	h.t.Logf("chaos[%s]: severed %d conns of osd %d", h.name, n, i)
}

// ArmDevice makes OSD i's device fail every write from the n-th one on
// with err — mid-vector, so a batched COS submit tears.
func (h *Harness) ArmDevice(i int, after int64, err error) {
	h.devFaults[i].Arm(after, err)
}

// DisarmDevice stops OSD i's device faults.
func (h *Harness) DisarmDevice(i int) {
	h.devFaults[i].Disarm()
}

// ArmCorruptReads turns OSD i's device into silently rotting media: after
// the first after reads, every everyK-th read returns a payload with one
// bit flipped. Data at rest is untouched — only the read path lies, which
// is exactly what the block-checksum + read-repair machinery must catch
// before a single corrupt byte reaches a client.
func (h *Harness) ArmCorruptReads(i int, after, everyK int64) {
	h.devFaults[i].ArmCorruptReads(after, everyK)
}

// DisarmCorruptReads stops OSD i's read corruption (heal also disarms it
// as a backstop, but schedules disarm explicitly so post-rot events run
// against honest media).
func (h *Harness) DisarmCorruptReads(i int) {
	h.devFaults[i].DisarmCorruptReads()
}

// CorruptedReads reports how many reads OSD i's device actually corrupted.
func (h *Harness) CorruptedReads(i int) int64 {
	return h.devFaults[i].CorruptedReads()
}

// DeepScrubAll forces a synchronous deep scrub pass on every live OSD and
// returns the total divergences found. Each OSD scrubs only the PGs it
// leads, so the union covers every PG exactly once.
func (h *Harness) DeepScrubAll() int {
	found := 0
	for i := 0; i < h.opts.OSDs; i++ {
		if h.dead[i] {
			continue
		}
		if o := h.cluster.OSD(i); o != nil {
			found += o.ScrubNow(true)
		}
	}
	return found
}
