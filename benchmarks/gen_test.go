package benchmarks

import (
	"math"
	"testing"
)

func TestZipfianTopOnePercentMass(t *testing.T) {
	const n, theta, draws = 16384, 0.99, 200_000
	z := newZipfParams(n, theta)
	// Exact mass of the hottest 1% of ranks under zipf(theta).
	var top float64
	for i := 1; i <= n/100; i++ {
		top += 1 / math.Pow(float64(i), theta)
	}
	want := top / z.zetan
	r := rng{s: 42}
	hits := 0
	for i := 0; i < draws; i++ {
		k := z.rank(&r)
		if k >= n {
			t.Fatalf("rank %d out of range", k)
		}
		if k < n/100 {
			hits++
		}
	}
	got := float64(hits) / draws
	if math.Abs(got-want) > 0.03 {
		t.Fatalf("top-1%% mass = %.3f, want %.3f +-0.03", got, want)
	}
	if got < 0.4 {
		t.Fatalf("top-1%% mass = %.3f: theta 0.99 must concentrate traffic", got)
	}
}

func TestMixedSplit(t *testing.T) {
	wl, err := WorkloadByName("mixed_70_30")
	if err != nil {
		t.Fatal(err)
	}
	g := NewGenerator(wl, 7, 1, 4096)
	st := g.Stream(0, 0, phaseMeasure)
	const draws = 100_000
	reads := 0
	for i := 0; i < draws; i++ {
		if st.Next().Read {
			reads++
		}
	}
	if got := float64(reads) / draws; math.Abs(got-0.70) > 0.01 {
		t.Fatalf("read share = %.4f, want 0.70 +-0.01", got)
	}
}

func TestUniformCoversEveryBlock(t *testing.T) {
	wl, err := WorkloadByName("randwrite_sat")
	if err != nil {
		t.Fatal(err)
	}
	const blocks = 256
	g := NewGenerator(wl, 3, 1, blocks)
	st := g.Stream(0, 0, phaseMeasure)
	seen := make([]int, blocks)
	for i := 0; i < 100_000; i++ {
		op := st.Next()
		if op.Read {
			t.Fatal("write-only workload generated a read")
		}
		seen[op.Block]++
	}
	for b, n := range seen {
		if n == 0 {
			t.Fatalf("block %d never drawn", b)
		}
	}
}

func TestZipfianStaysInImageAndScatters(t *testing.T) {
	wl, err := WorkloadByName("randread_zipf")
	if err != nil {
		t.Fatal(err)
	}
	const blocks = 8192
	g := NewGenerator(wl, 5, 2, blocks)
	seen := make([]bool, blocks)
	for _, b := range g.perms[0] {
		if seen[b] {
			t.Fatalf("rank permutation repeats block %d", b)
		}
		seen[b] = true
	}
	// The hottest ranks must not all sit in the first object (256 blocks).
	objs := map[uint32]bool{}
	for _, b := range g.perms[0][:64] {
		objs[b/(objectBytes/BlockBytes)] = true
	}
	if len(objs) < 8 {
		t.Fatalf("64 hottest blocks fall in only %d objects", len(objs))
	}
	st := g.Stream(1, 0, phaseMeasure)
	for i := 0; i < 50_000; i++ {
		if op := st.Next(); op.Block >= blocks || !op.Read {
			t.Fatalf("bad op %+v", op)
		}
	}
}

func TestDigestIsAFunctionOfTheSeed(t *testing.T) {
	for i := range Workloads {
		wl := &Workloads[i]
		a := NewGenerator(wl, 11, 2, 4096).Digest()
		b := NewGenerator(wl, 11, 2, 4096).Digest()
		c := NewGenerator(wl, 12, 2, 4096).Digest()
		if a != b {
			t.Errorf("%s: same seed, digests %x and %x", wl.Name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 11 and 12 share digest %x", wl.Name, a)
		}
	}
	// Warm-up and measured phases must not share a stream.
	wl := &Workloads[0]
	g := NewGenerator(wl, 11, 1, 4096)
	w, m := g.Stream(0, 0, phaseWarmup), g.Stream(0, 0, phaseMeasure)
	same := 0
	for i := 0; i < 64; i++ {
		if w.Next() == m.Next() {
			same++
		}
	}
	if same > 8 {
		t.Fatalf("warm-up and measured streams agree on %d of 64 ops", same)
	}
}
