package benchmarks

import "fmt"

// Workload is one closed-loop block workload. Everything the cluster
// under test can see is the ops; every field here shapes only the load or
// the bench fixture (transport, device pacing), never a tuning knob of
// the program: the cluster always runs osd.ModeProposed with 3 OSDs, R=2,
// 32 PGs, 1 MiB objects and default shards/cache/QoS/checksums.
type Workload struct {
	Name string
	// Why is the one-line reason recorded in BENCHMARK.json.
	Why string
	// Paced paces the devices like the paper's PM1725a and charges the
	// read latency per op (SyncReads), so a cache hit and a cold read
	// differ the way NVM and flash do.
	Paced bool
	// Clients fixes the number of client connections (0: one per CPU).
	Clients int
	// ImageMiB sizes each client's image.
	ImageMiB int
	// Inflight is each client's fixed window of outstanding ops.
	Inflight int
	// ReadPct is the share of reads (0 = write only, 100 = read only).
	ReadPct int
	// ZipfTheta skews block popularity (0 = uniform).
	ZipfTheta float64
	// ReadbackAll makes the correctness gate read every block back
	// instead of a sample.
	ReadbackAll bool
	// WarmupOps is the warm-up length per client, in ops, so work moved
	// into set-up shows in setup_s instead of hiding behind a timer.
	WarmupOps int
}

func (w *Workload) id() uint64 {
	for i := range Workloads {
		if Workloads[i].Name == w.Name {
			return uint64(i)
		}
	}
	return uint64(len(Workloads))
}

// readMajor says reads are the workload's majority op class: the class
// the end-to-end latency quantiles are taken over.
func (w *Workload) readMajor() bool { return w.ReadPct >= 50 }
func (w *Workload) hasWrites() bool { return w.ReadPct < 100 }
func (w *Workload) hasReads() bool  { return w.ReadPct > 0 }

// Workloads is the fixed benchmark set. Order is the run order.
var Workloads = []Workload{
	{
		Name:      "randwrite_sat",
		Why:       "uniform 4 KiB overwrites, 8 in flight per client: CPU-bound, log append, replication and drain compete for the same cores (paper Fig 7a)",
		ImageMiB:  64,
		Inflight:  8,
		WarmupOps: 40000,
	},
	{
		Name:        "randwrite_qd1",
		Why:         "same overwrites from one client at 1 in flight: commit latency with nothing to batch; the drain and the store are off the blocking path",
		Clients:     1,
		ImageMiB:    64,
		Inflight:    1,
		ReadbackAll: true,
		WarmupOps:   40000,
	},
	{
		Name:      "randread_zipf",
		Why:       "zipfian reads on paced devices at 1 in flight: p50 is the NVM read-cache hit, p99 the cold device read; bypasses log append, replication and drain",
		Paced:     true,
		ImageMiB:  32,
		Inflight:  1,
		ReadPct:   100,
		ZipfTheta: 0.99,
		WarmupOps: 40000,
	},
	{
		Name:      "mixed_70_30",
		Why:       "zipfian 70/30 read/write on paced devices: reads collide with staged writes and cache invalidation, so a read gain that taxes writes (or the reverse) shows",
		Paced:     true,
		ImageMiB:  32,
		Inflight:  2,
		ReadPct:   70,
		ZipfTheta: 0.99,
		WarmupOps: 20000,
	},
}

// WorkloadByName looks a workload up.
func WorkloadByName(name string) (*Workload, error) {
	for i := range Workloads {
		if Workloads[i].Name == name {
			return &Workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
