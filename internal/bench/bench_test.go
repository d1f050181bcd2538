package bench

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"rebloc/internal/core"
	"rebloc/internal/osd"
	"rebloc/internal/rbd"
)

func TestZipfianRangeAndSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	z := NewZipfian(rng, 1000, 0.99)
	counts := make([]int, 1000)
	const draws = 100000
	for i := 0; i < draws; i++ {
		k := z.Next()
		if k >= 1000 {
			t.Fatalf("key %d out of range", k)
		}
		counts[k]++
	}
	// Head must be much hotter than the tail (YCSB zipfian ~0.99: the top
	// key gets several percent of traffic).
	if counts[0] < draws/100 {
		t.Fatalf("key 0 drawn %d times, want skew", counts[0])
	}
	tail := 0
	for i := 900; i < 1000; i++ {
		tail += counts[i]
	}
	if tail > counts[0]*2 {
		t.Fatalf("tail (%d) too hot versus head (%d)", tail, counts[0])
	}
}

func TestLatestSkewsRecent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewLatest(rng, 1000)
	recent := 0
	const draws = 20000
	for i := 0; i < draws; i++ {
		k := l.Next()
		if k >= 1000 {
			t.Fatalf("key %d out of range", k)
		}
		if k >= 900 {
			recent++
		}
	}
	if recent < draws/2 {
		t.Fatalf("only %d/%d draws in the newest 10%%", recent, draws)
	}
	l.Grow(2000)
	for i := 0; i < 1000; i++ {
		if k := l.Next(); k >= 2000 {
			t.Fatalf("key %d out of grown range", k)
		}
	}
}

func TestUniformCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	u := NewUniform(rng, 100)
	seen := map[uint64]bool{}
	for i := 0; i < 10000; i++ {
		k := u.Next()
		if k >= 100 {
			t.Fatalf("key %d out of range", k)
		}
		seen[k] = true
	}
	if len(seen) < 95 {
		t.Fatalf("uniform covered only %d/100 keys", len(seen))
	}
}

func TestZeta(t *testing.T) {
	if math.Abs(zeta(1, 0.99)-1) > 1e-9 {
		t.Fatal("zeta(1) != 1")
	}
	if zeta(10, 0.99) <= zeta(5, 0.99) {
		t.Fatal("zeta not increasing")
	}
}

// benchImage spins a small proposed-mode cluster and provisions an image.
func benchImage(t *testing.T, sizeMB uint64) (*rbd.Image, func()) {
	t.Helper()
	c, err := core.New(core.Options{
		OSDs: 2, Mode: osd.ModeProposed, Replicas: 2, PGs: 16,
		DeviceBytes: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := c.Client()
	if err != nil {
		c.Close()
		t.Fatal(err)
	}
	img, err := rbd.Create(cl, "bench", sizeMB<<20, rbd.CreateOptions{ObjectBytes: 1 << 20})
	if err != nil {
		c.Close()
		t.Fatal(err)
	}
	return img, func() { c.Close() }
}

func TestRunFioRandWrite(t *testing.T) {
	img, cleanup := benchImage(t, 16)
	defer cleanup()
	res := RunFio(img, FioOptions{Pattern: RandWrite, Ops: 500, Jobs: 2, QueueDepth: 4})
	if res.Ops != 500 || res.Errors != 0 {
		t.Fatalf("result = %+v", res)
	}
	if res.IOPS() <= 0 || res.Lat.Mean() <= 0 {
		t.Fatal("degenerate metrics")
	}
	if res.String() == "" {
		t.Fatal("empty summary")
	}
}

func TestRunFioPatterns(t *testing.T) {
	img, cleanup := benchImage(t, 8)
	defer cleanup()
	for _, p := range []Pattern{RandRead, SeqWrite, SeqRead, RandRW} {
		res := RunFio(img, FioOptions{Pattern: p, Ops: 100, Jobs: 1, QueueDepth: 2, ReadPercent: 50})
		if res.Ops != 100 {
			t.Fatalf("%s: ops = %d", p, res.Ops)
		}
		if res.Errors != 0 {
			t.Fatalf("%s: %d errors", p, res.Errors)
		}
	}
}

func TestRunFioDurationMode(t *testing.T) {
	img, cleanup := benchImage(t, 8)
	defer cleanup()
	res := RunFio(img, FioOptions{Pattern: RandWrite, Duration: 200 * time.Millisecond, Jobs: 1, QueueDepth: 2})
	if res.Ops == 0 {
		t.Fatal("duration mode issued nothing")
	}
	if res.Elapsed < 200*time.Millisecond {
		t.Fatalf("elapsed %v under the configured duration", res.Elapsed)
	}
}

func TestYCSBWorkloads(t *testing.T) {
	img, cleanup := benchImage(t, 16)
	defer cleanup()
	opts := YCSBOptions{RecordCount: 500, Ops: 300, Threads: 4}
	if err := LoadYCSB(img, opts); err != nil {
		t.Fatal(err)
	}
	for _, w := range []YCSBWorkload{YCSBA, YCSBB, YCSBC, YCSBD, YCSBF} {
		opts.Workload = w
		res := RunYCSB(img, opts)
		if res.Ops != 300 {
			t.Fatalf("%s: ops = %d", w, res.Ops)
		}
		if res.Errors != 0 {
			t.Fatalf("%s: %d errors", w, res.Errors)
		}
		switch w {
		case YCSBC:
			if res.UpdateLat.Count() != 0 {
				t.Fatalf("read-only workload recorded updates")
			}
		case YCSBA, YCSBF:
			if res.UpdateLat.Count() == 0 || res.ReadLat.Count() == 0 {
				t.Fatalf("%s: missing op class", w)
			}
		}
		if res.String() == "" {
			t.Fatal("empty summary")
		}
	}
}

func TestRunOpenLoop(t *testing.T) {
	img, cleanup := benchImage(t, 8)
	defer cleanup()
	res := RunOpenLoop(img, OpenLoopOptions{
		RatePerSec: 500, Duration: 300 * time.Millisecond, WritePercent: 80,
	})
	if res.Offered == 0 {
		t.Fatal("no ticks offered")
	}
	// Achieved should be close to offered for this modest rate.
	if res.Achieved < res.Offered/2 {
		t.Fatalf("achieved %d of %d offered", res.Achieved, res.Offered)
	}
	if res.Lat.Quantile(0.95) <= 0 {
		t.Fatal("no latency recorded")
	}
}

func TestPatternStrings(t *testing.T) {
	if RandWrite.String() != "randwrite" || SeqRead.String() != "read" || Pattern(99).String() == "" {
		t.Fatal("pattern names wrong")
	}
}

// TestYCSBMixRatios pins each workload's read/update split: A is 50/50,
// B is 95/5, C is read-only. The split is what the read-cache figures
// lean on when they attribute latency shifts to invalidation traffic.
func TestYCSBMixRatios(t *testing.T) {
	img, cleanup := benchImage(t, 16)
	defer cleanup()
	opts := YCSBOptions{RecordCount: 400, Ops: 2000, Threads: 4}
	if err := LoadYCSB(img, opts); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		w       YCSBWorkload
		readPct float64
	}{
		{YCSBA, 0.50},
		{YCSBB, 0.95},
		{YCSBC, 1.00},
	}
	for _, c := range cases {
		opts.Workload = c.w
		res := RunYCSB(img, opts)
		got := float64(res.ReadLat.Count()) / float64(res.Ops)
		tol := 0.05
		if c.readPct == 1.00 {
			tol = 0 // C must be exactly read-only
		}
		if math.Abs(got-c.readPct) > tol {
			t.Errorf("%s: read fraction %.3f, want %.2f±%.2f", c.w, got, c.readPct, tol)
		}
	}
}

// TestFioZipfianSkew checks that ZipfianTheta concentrates the fio block
// picks: a zipfian random-read run touches far fewer distinct blocks
// than a uniform one over the same op budget.
func TestFioZipfianSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const blocks = 4096
	z := NewZipfian(rng, blocks, 0.99)
	seen := map[uint64]bool{}
	const draws = 4000
	for i := 0; i < draws; i++ {
		k := z.Next()
		if k >= blocks {
			t.Fatalf("block %d out of range", k)
		}
		seen[k] = true
	}
	// Uniform sampling of 4000 draws over 4096 blocks touches ~2600
	// distinct blocks; theta-0.99 zipfian stays well under half that.
	if len(seen) > 1300 {
		t.Fatalf("zipfian touched %d distinct blocks of %d, want a hot set", len(seen), blocks)
	}
}

// TestFioMixedSplitsLatency runs the mixed pattern and checks the
// per-class histograms: both classes populated near ReadPercent, and
// together they account for every op.
func TestFioMixedSplitsLatency(t *testing.T) {
	img, cleanup := benchImage(t, 8)
	defer cleanup()
	res := RunFio(img, FioOptions{
		Pattern: RandRW, Ops: 1000, Jobs: 2, QueueDepth: 4,
		ReadPercent: 70, ZipfianTheta: 0.99,
	})
	if res.Errors != 0 {
		t.Fatalf("%d errors", res.Errors)
	}
	if res.ReadLat.Count()+res.WriteLat.Count() != res.Ops {
		t.Fatalf("split histograms lost ops: %d reads + %d writes != %d",
			res.ReadLat.Count(), res.WriteLat.Count(), res.Ops)
	}
	frac := float64(res.ReadLat.Count()) / float64(res.Ops)
	if math.Abs(frac-0.70) > 0.06 {
		t.Fatalf("read fraction %.3f, want 0.70±0.06", frac)
	}
}

// TestBenchReadCacheSmoke drives the promoted bench path end to end
// against a real cluster: a zipfian read-heavy fio run on a proposed-mode
// cluster must land mostly in the OSD read caches.
func TestBenchReadCacheSmoke(t *testing.T) {
	c, err := core.New(core.Options{
		OSDs: 2, Mode: osd.ModeProposed, Replicas: 2, PGs: 16,
		DeviceBytes: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	img, err := rbd.Create(cl, "cache-smoke", 4<<20, rbd.CreateOptions{ObjectBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	// Prefill and flush so reads have durable extents to cache.
	if res := RunFio(img, FioOptions{Pattern: SeqWrite, BlockBytes: 64 << 10, Ops: 64, Jobs: 1, QueueDepth: 2}); res.Errors != 0 {
		t.Fatalf("prefill: %d errors", res.Errors)
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	opts := FioOptions{Pattern: RandRead, Ops: 2000, Jobs: 2, QueueDepth: 4, ZipfianTheta: 0.99}
	_ = RunFio(img, opts) // warm
	h0 := make([]int64, c.OSDs())
	m0 := make([]int64, c.OSDs())
	for i := 0; i < c.OSDs(); i++ {
		st := c.OSD(i).ReadCache().Stats()
		h0[i] = st.Hits.Load()
		m0[i] = st.Misses.Load()
	}
	if res := RunFio(img, opts); res.Errors != 0 {
		t.Fatalf("measured run: %d errors", res.Errors)
	}
	var hits, misses int64
	for i := 0; i < c.OSDs(); i++ {
		st := c.OSD(i).ReadCache().Stats()
		hits += st.Hits.Load() - h0[i]
		misses += st.Misses.Load() - m0[i]
	}
	if hits == 0 {
		t.Fatal("zipfian read-heavy run recorded no cache hits")
	}
	if rate := float64(hits) / float64(hits+misses); rate < 0.5 {
		t.Fatalf("hit rate %.2f, want the hot set resident after a warm pass", rate)
	}
}
