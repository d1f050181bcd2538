package bench

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"rebloc/internal/metrics"
	"rebloc/internal/rbd"
)

// Pattern is an fio-style access pattern.
type Pattern int

// Access patterns.
const (
	RandWrite Pattern = iota + 1
	RandRead
	SeqWrite
	SeqRead
	// RandRW mixes reads and writes per ReadPercent.
	RandRW
)

// String names the pattern like fio's rw= parameter.
func (p Pattern) String() string {
	switch p {
	case RandWrite:
		return "randwrite"
	case RandRead:
		return "randread"
	case SeqWrite:
		return "write"
	case SeqRead:
		return "read"
	case RandRW:
		return "randrw"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// FioOptions describes one fio-like job set against a block image
// (paper §V-B: fio with the RBD engine, 4 KB random I/O, numjobs=2,
// iodepth=16).
type FioOptions struct {
	Pattern     Pattern
	BlockBytes  int
	Jobs        int // concurrent workers
	QueueDepth  int // outstanding ops per worker (worker goroutines × QD)
	Ops         int // total operations (0: use Duration)
	Duration    time.Duration
	ReadPercent int // RandRW only
	// ZipfianTheta skews random block picks with the YCSB zipfian
	// distribution (0: uniform). 0.99 concentrates most traffic on a
	// small hot set, the shape that makes a read cache earn its keep.
	ZipfianTheta float64
	// RateLimit caps the job set's aggregate issue rate (ops/s; 0 keeps
	// the throttle open — fio's rate_iops). Pacing is open-loop: each
	// worker follows a fixed schedule that does not stretch when the
	// cluster stalls, so a stall backs ops up behind it and surfaces in
	// the measured latencies instead of silently shrinking the offered
	// load (coordinated omission). This is the fixture for a
	// latency-sensitive tenant: a trickle whose p99 probes the queues
	// the heavy tenants build.
	RateLimit float64
	Seed      int64 // workload reproducibility
}

func (o *FioOptions) fill() {
	if o.Pattern == 0 {
		o.Pattern = RandWrite
	}
	if o.BlockBytes <= 0 {
		o.BlockBytes = 4096
	}
	if o.Jobs <= 0 {
		o.Jobs = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 16
	}
	if o.Ops <= 0 && o.Duration <= 0 {
		o.Ops = 10000
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
}

// Result summarises one run.
type Result struct {
	Name    string
	Ops     int64
	Errors  int64
	Elapsed time.Duration
	Lat     *metrics.Histogram
	// ReadLat/WriteLat split the distribution by op class so mixed
	// patterns can report read latency on its own (the number a read
	// cache moves). Both observe into Lat as well.
	ReadLat   *metrics.Histogram
	WriteLat  *metrics.Histogram
	BytesDone int64
}

// IOPS returns the achieved operations per second.
func (r Result) IOPS() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// Throughput returns bytes per second.
func (r Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.BytesDone) / r.Elapsed.Seconds()
}

// String renders the headline numbers.
func (r Result) String() string {
	return fmt.Sprintf("%s: %.0f IOPS, %.1f MB/s, mean %v, p95 %v, p99 %v (%d ops, %d errors)",
		r.Name, r.IOPS(), r.Throughput()/1e6, r.Lat.Mean(), r.Lat.Quantile(0.95), r.Lat.Quantile(0.99), r.Ops, r.Errors)
}

// RunFio drives the pattern against the image and reports the result.
func RunFio(img *rbd.Image, opts FioOptions) Result {
	return RunFioMulti([]*rbd.Image{img}, opts)
}

// RunFioMulti spreads the jobs across several images, one connection set
// per image — the paper's topology (one RBD image per fio connection).
// Job j drives imgs[j % len(imgs)].
func RunFioMulti(imgs []*rbd.Image, opts FioOptions) Result {
	opts.fill()
	res := Result{
		Name:     opts.Pattern.String(),
		Lat:      metrics.NewHistogram(),
		ReadLat:  metrics.NewHistogram(),
		WriteLat: metrics.NewHistogram(),
	}
	blocks := imgs[0].Size() / uint64(opts.BlockBytes)
	if blocks == 0 {
		blocks = 1
	}

	workers := opts.Jobs * opts.QueueDepth
	var opBudget int64 = int64(opts.Ops)
	var deadline time.Time
	if opts.Duration > 0 {
		deadline = time.Now().Add(opts.Duration)
		opBudget = 1 << 62
	}

	var (
		mu      sync.Mutex
		issued  int64
		errs    int64
		bytesOK int64
	)
	takeOp := func() (int64, bool) {
		mu.Lock()
		defer mu.Unlock()
		if issued >= opBudget {
			return 0, false
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return 0, false
		}
		issued++
		return issued - 1, true
	}

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			img := imgs[(w/opts.QueueDepth)%len(imgs)]
			rng := rand.New(rand.NewSource(opts.Seed + int64(w)))
			var zipf *Zipfian
			if opts.ZipfianTheta > 0 {
				zipf = NewZipfian(rng, blocks, opts.ZipfianTheta)
			}
			buf := make([]byte, opts.BlockBytes)
			rng.Read(buf)
			var interval time.Duration
			if opts.RateLimit > 0 {
				interval = time.Duration(float64(workers) * float64(time.Second) / opts.RateLimit)
			}
			next := time.Now()
			for {
				if interval > 0 {
					// Fixed schedule, advanced by the interval rather than
					// from completion: sleeps shrink to zero while the
					// worker catches up after a slow op.
					if d := time.Until(next); d > 0 {
						time.Sleep(d)
					}
					next = next.Add(interval)
				}
				opIdx, ok := takeOp()
				if !ok {
					return
				}
				var block uint64
				switch opts.Pattern {
				case SeqWrite, SeqRead:
					// Each worker owns an interleaved sequential stream.
					block = (uint64(opIdx)) % blocks
				default:
					if zipf != nil {
						block = zipf.Next()
					} else {
						block = uint64(rng.Int63n(int64(blocks)))
					}
				}
				off := block * uint64(opts.BlockBytes)
				isRead := opts.Pattern == RandRead || opts.Pattern == SeqRead ||
					(opts.Pattern == RandRW && rng.Intn(100) < opts.ReadPercent)
				t0 := time.Now()
				var err error
				if isRead {
					err = img.ReadAt(buf, off)
				} else {
					err = img.WriteAt(buf, off)
				}
				d := time.Since(t0)
				res.Lat.Observe(d)
				if isRead {
					res.ReadLat.Observe(d)
				} else {
					res.WriteLat.Observe(d)
				}
				mu.Lock()
				if err != nil {
					errs++
				} else {
					bytesOK += int64(opts.BlockBytes)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	res.Ops = res.Lat.Count()
	res.Errors = errs
	res.BytesDone = bytesOK
	return res
}
