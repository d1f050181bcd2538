package benchmarks

import (
	"cmp"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// processStart anchors setup_s at process start, so runtime and package
// initialisation moved into start-up shows too.
var processStart = time.Now()

const (
	// sliceDur cuts the measured window into slices. Every rate and
	// quantile of the end-to-end set is the median over slices: one GC
	// pause or noisy neighbour then moves one slice, not the result.
	sliceDur = time.Second
	// sampleEvery paces the traced run's occupancy/goroutine sampler.
	sampleEvery = 100 * time.Millisecond
	// readbackSample is the minimum number of blocks the gate reads.
	readbackSample = 4096
	// slowShare is how far under a run's fastest process another one's
	// median iops may lie and still count as on the same level. The slow
	// level sits 20-35 % under the fast one and processes on one level
	// within 5 % of each other.
	slowShare = 0.10
)

// Metric is one named measurement.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Record is the result of one run of one workload in one process.
type Record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	WindowS   float64           `json:"window_s"`
	Digest    string            `json:"op_stream_digest"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	// Samples states how many observations stand behind the figures.
	Samples map[string]int64 `json:"samples"`
	// Slices is the per-slice series the end-to-end medians were taken
	// from (untraced runs), in window order.
	Slices []SliceStat `json:"slices,omitempty"`
	Host   HostInfo    `json:"host"`

	// nonFinite names the metrics whose value came out NaN or infinite.
	nonFinite []string
}

// HostInfo pins down where a record was measured.
type HostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Clients    int    `json:"clients"`
	Rev        string `json:"git_rev"`
}

// set records one metric. A ratio with nothing under it reads 0 ("does
// not apply", see ratio); a NaN or an infinity is a broken measurement and
// is kept out of the record and remembered, so check can fail the run
// instead of the metric passing for one that does not apply.
func (r *Record) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.nonFinite = append(r.nonFinite, name)
		return
	}
	r.Metrics[name] = Metric{Value: v, Unit: unit}
}

// check fails a record that holds a broken measurement.
func (r *Record) check() error {
	if len(r.nonFinite) > 0 {
		return fmt.Errorf("%s: metrics without a finite value: %v", r.Workload, r.nonFinite)
	}
	return nil
}

// mark is one slice boundary: when it was taken and the process CPU time
// consumed up to it.
type mark struct {
	at  time.Time
	cpu int64
}

// Run executes one workload run in this process and returns its record.
// A fresh process per run is the caller's job (cmd/reblocbench re-execs
// itself): back-to-back clusters in one process do not repeat.
func Run(cfg Config) (*Record, error) {
	wl := cfg.Workload
	e, err := setup(cfg)
	if err != nil {
		return nil, err
	}
	defer e.close()
	setupS := time.Since(processStart).Seconds()

	rec := &Record{
		Workload: wl.Name, Seed: cfg.Seed, Trace: cfg.Trace,
		WindowS: cfg.Window.Seconds(),
		Digest:  fmt.Sprintf("%016x", e.gen.Digest()),
		Metrics: map[string]Metric{}, Samples: map[string]int64{},
		Host: HostInfo{
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), Clients: len(e.imgs), Rev: gitRev(),
		},
	}

	// The window: marks (and, traced, the on/off toggle and the sampler)
	// run beside the closed loop.
	stop := make(chan struct{})
	done := make(chan struct{})
	var marks []mark
	var occHW float64
	var goroutinesPeak int
	go func() {
		defer close(done)
		slice := time.NewTicker(sliceDur)
		defer slice.Stop()
		var sampler <-chan time.Time
		if cfg.Trace {
			t := time.NewTicker(sampleEvery)
			defer t.Stop()
			sampler = t.C
		}
		for {
			select {
			case <-stop:
				return
			case now := <-slice.C:
				marks = append(marks, mark{at: now, cpu: processCPU()})
				if e.tr != nil {
					// Odd slices are traced, even ones leave the wrappers idle.
					e.tr.on.Store(len(marks)%2 == 1)
				}
			case <-sampler:
				if occ := e.maxOccupancy(); occ > occHW {
					occHW = occ
				}
				if n := runtime.NumGoroutine(); n > goroutinesPeak {
					goroutinesPeak = n
				}
			}
		}
	}()
	before := e.readCounters()
	ackedBefore := e.ackedBytes.Load()
	res := e.runLoop(loopOpts{phase: phaseMeasure, window: cfg.Window, record: true})
	after := e.readCounters()
	if e.tr != nil {
		e.tr.on.Store(false)
	}
	close(stop)
	<-done
	marks = append([]mark{{at: res.start, cpu: before.processNs}}, marks...)
	marks = append(marks, mark{at: res.start.Add(res.elapsed), cpu: after.processNs})
	if res.ops == 0 {
		return nil, errNoOps
	}
	peakRSS := peakRSSMiB()

	if cfg.afterWindow != nil {
		cfg.afterWindow(e)
	}

	// Everything the window wrote reaches the devices here, so waf charges
	// the deferred (bottom-half) cost too.
	if err := e.c.FlushAll(); err != nil {
		return nil, fmt.Errorf("flush after window: %w", err)
	}
	final := e.readCounters()
	checked, bad := e.readback(readbackSample, wl.ReadbackAll)

	rec.Attempted = res.ops + checked
	rec.Failed = res.failed() + bad
	rec.Correct = rec.Failed == 0
	rec.Samples["window_ops"] = res.ops
	rec.Samples["op_errors"] = res.errs
	rec.Samples["read_mismatches"] = res.bad
	rec.Samples["readback_checked"] = checked
	rec.Samples["readback_bad"] = bad

	// Write amplification of the set-up (prefill and warm-up; before holds
	// them whole, setup ends with a FlushAll) and of the window alone.
	setupWAF := ratio(float64(before.dev.BytesWritten), float64(ackedBefore))
	windowWAF := ratio(float64(final.dev.BytesWritten-before.dev.BytesWritten), float64(e.ackedBytes.Load()-ackedBefore))

	if !cfg.Trace {
		waf := windowWAF
		if !wl.hasWrites() {
			// A read-only window writes nothing, and the driver wants one
			// metric list for every workload with no zero in it: the only
			// writing such a run does is its prefill.
			waf = setupWAF
		}
		e.endToEnd(rec, res, marks, setupS, peakRSS, waf)
		return rec, rec.check()
	}
	rec.set("dev.setup_waf", setupWAF, "x")
	rec.set("dev.window_waf", windowWAF, "x")
	e.perLayer(rec, res, marks, before, after, occHW, goroutinesPeak)
	if cfg.OutDir != "" {
		path := filepath.Join(cfg.OutDir, wl.Name+".trace.json")
		if err := e.tr.writeFile(path, wl.Name, cfg.Seed); err != nil {
			return nil, fmt.Errorf("write span file: %w", err)
		}
	}
	if err := e.probes(rec); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	e.reconcile(rec)
	return rec, rec.check()
}

// --- slices and quantiles ---

// quantile returns the nearest-rank q-quantile of sorted values.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// sortedLat returns every worker's latencies of one op class, sorted.
func sortedLat(workers [][]sample) []int64 {
	n := 0
	for _, w := range workers {
		n += len(w)
	}
	out := make([]int64, 0, n)
	for _, w := range workers {
		for _, s := range w {
			out = append(out, s.lat)
		}
	}
	slices.Sort(out)
	return out
}

// SliceStat is one slice of the measured window: its throughput, latency
// quantiles over every op that completed in it, and process CPU per op.
type SliceStat struct {
	IOPS       float64 `json:"iops"`
	P50us      float64 `json:"p50_us"`
	P99us      float64 `json:"p99_us"`
	MinorP50us float64 `json:"minor_p50_us"`
	CPUusPerOp float64 `json:"cpu_us_per_op"`

	// index is the slice's position in its window; a traced run records
	// on odd slices and leaves the wrappers idle on even ones.
	index int
}

// sliceStats bins the window's ops by the marks and returns the stats of
// every slice of at least half the nominal length. Throughput and CPU
// count every op; the latency quantiles are taken per op class, p50/p99
// over the workload's majority class (reads when readMajor) and minor p50
// over the other one, because the median of a two-class mix sits on the
// edge between the classes and jumps with the mix, while each class alone
// repeats. A workload with one class reports it as its minor class too.
func sliceStats(res *loopResult, marks []mark, readMajor bool) []SliceStat {
	bounds := make([]int64, len(marks))
	for i, m := range marks {
		bounds[i] = int64(m.at.Sub(res.start))
	}
	n := len(marks) - 1
	counts := make([]int, n)
	lats := make([][]int64, n)
	minor := make([][]int64, n)
	bin := func(workers [][]sample, major bool) {
		for _, w := range workers {
			k := 0
			for _, s := range w { // a worker's samples are in end order
				for k < n && s.end > bounds[k+1] {
					k++
				}
				if k == n {
					break
				}
				counts[k]++
				if major {
					lats[k] = append(lats[k], s.lat)
				} else {
					minor[k] = append(minor[k], s.lat)
				}
			}
		}
	}
	bin(res.reads, readMajor)
	bin(res.writes, !readMajor)
	var out []SliceStat
	for k, l := range lats {
		dur := bounds[k+1] - bounds[k]
		if dur < int64(sliceDur)/2 || len(l) == 0 {
			continue
		}
		slices.Sort(l)
		m := minor[k]
		if len(m) == 0 {
			m = l
		} else {
			slices.Sort(m)
		}
		out = append(out, SliceStat{
			IOPS:       float64(counts[k]) / (float64(dur) / 1e9),
			P50us:      float64(quantile(l, 0.50)) / 1e3,
			P99us:      float64(quantile(l, 0.99)) / 1e3,
			MinorP50us: float64(quantile(m, 0.50)) / 1e3,
			CPUusPerOp: float64(marks[k+1].cpu-marks[k].cpu) / 1e3 / float64(counts[k]),
			index:      k,
		})
	}
	return out
}

func medianOf(st []SliceStat, f func(SliceStat) float64) float64 {
	v := make([]float64, len(st))
	for i := range st {
		v[i] = f(st[i])
	}
	return median(v)
}

// endToEnd fills the metrics a user of the block device sees.
func (e *env) endToEnd(rec *Record, res *loopResult, marks []mark, setupS, peakRSS, waf float64) {
	rec.Slices = sliceStats(res, marks, e.wl.readMajor())
	rec.set("setup_s", setupS, "s")
	rec.set("waf", waf, "x")
	rec.set("peak_rss_mb", peakRSS, "MiB")
	rec.setSliceMetrics()
}

// sliceMetrics are the end-to-end metrics taken as medians over slices.
var sliceMetrics = []struct {
	name, unit string
	of         func(SliceStat) float64
}{
	{"iops", "1/s", func(s SliceStat) float64 { return s.IOPS }},
	{"p50_us", "us", func(s SliceStat) float64 { return s.P50us }},
	{"p99_us", "us", func(s SliceStat) float64 { return s.P99us }},
	{"minor_p50_us", "us", func(s SliceStat) float64 { return s.MinorP50us }},
	{"cpu_us_per_op", "us", func(s SliceStat) float64 { return s.CPUusPerOp }},
}

// setSliceMetrics derives the rate and latency metrics as medians over
// rec.Slices.
func (r *Record) setSliceMetrics() {
	r.Samples["slices"] = int64(len(r.Slices))
	for _, m := range sliceMetrics {
		r.set(m.name, medianOf(r.Slices, m.of), m.unit)
	}
}

// sliceNoise says, from the record's own slices, how well the named
// metric's median is known, as a share of the median: half the width of
// the distribution-free interval that holds the true median with about
// two chances in three, i.e. between the order statistics n/2 -+ sqrt(n)/2
// (one standard deviation of the median's rank). It assumes nothing about
// the slices' distribution, which has two modes when processes of a run
// settled on different levels. It is 0 for a metric that is not a median
// over slices or has fewer than four of them.
func (r *Record) sliceNoise(name string) float64 {
	for _, m := range sliceMetrics {
		if m.name != name || len(r.Slices) < 4 {
			continue
		}
		v := make([]float64, len(r.Slices))
		for i, s := range r.Slices {
			v[i] = m.of(s)
		}
		slices.Sort(v)
		n := float64(len(v))
		lo := int(math.Round(n/2-math.Sqrt(n)/2)) - 1
		hi := int(math.Round(n/2+1+math.Sqrt(n)/2)) - 1
		lo, hi = max(lo, 0), min(hi, len(v)-1)
		return ratio((v[hi]-v[lo])/2, median(v))
	}
	return 0
}

// Merge combines the untraced records of several fresh processes that
// each measured a share of one run's window (same workload, same seed).
// Throughput on this code settles, per process, on a level that then holds
// for the life of the process: slices of one process agree with each other
// far better than two processes do, and about one process in six of a
// write workload runs a fifth or more slower than the rest from start to
// end (README, Method). A median over every process's slices still moves
// when two of five are slow, by up to half a bound. So the run's rates and
// quantiles are medians over the pooled slices of the processes on the
// fast level: the faster majority (three of five, ranked by their own
// median iops) always, the others only if they are within a tenth
// (slowShare) of the fastest. Samples["processes_slow"] counts the
// processes that are not, so the record still shows how the run went. The
// per-process values (setup_s, waf, peak_rss_mb) are medians across all
// processes; counts add up over all of them.
func Merge(recs []*Record) (*Record, error) {
	if len(recs) == 0 {
		return nil, fmt.Errorf("merge: no records")
	}
	out := *recs[0]
	out.Metrics = map[string]Metric{}
	out.Samples = map[string]int64{}
	out.Slices = nil
	out.WindowS, out.Attempted, out.Failed, out.Correct = 0, 0, 0, true
	single := map[string][]float64{}
	for _, r := range recs {
		if r.Workload != out.Workload || r.Seed != out.Seed || r.Digest != out.Digest || r.Trace {
			return nil, fmt.Errorf("merge: %s seed %d digest %s does not belong with %s seed %d digest %s",
				r.Workload, r.Seed, r.Digest, out.Workload, out.Seed, out.Digest)
		}
		out.WindowS += r.WindowS
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		out.Correct = out.Correct && r.Correct
		for k, v := range r.Samples {
			out.Samples[k] += v
		}
		for _, name := range []string{"setup_s", "waf", "peak_rss_mb"} {
			single[name] = append(single[name], r.Metrics[name].Value)
		}
	}
	for name, v := range single {
		out.set(name, median(v), recs[0].Metrics[name].Unit)
	}

	byIOPS := slices.Clone(recs)
	slices.SortStableFunc(byIOPS, func(a, b *Record) int {
		return cmp.Compare(b.Metrics["iops"].Value, a.Metrics["iops"].Value)
	})
	out.Samples["processes_slow"] = 0
	for i, r := range byIOPS {
		slow := r.Metrics["iops"].Value < (1-slowShare)*byIOPS[0].Metrics["iops"].Value
		if slow {
			out.Samples["processes_slow"]++
		}
		if i <= len(recs)/2 || !slow {
			out.Slices = append(out.Slices, r.Slices...)
		}
	}
	out.Samples["processes"] = int64(len(recs))
	out.setSliceMetrics()
	return &out, out.check()
}
