package benchmarks

import (
	"bytes"
	"math"
	"regexp"
	"strings"
	"testing"
	"time"
)

// smokeConfig shrinks a workload to a couple of seconds: tiny images, a
// short warm-up, two clients whatever the host.
func smokeConfig(wl *Workload, trace bool, dir string) Config {
	window := time.Second
	if trace {
		window = 2 * time.Second // one idle slice and one traced slice
	}
	return Config{
		Workload: wl, Seed: 99, Window: window, Trace: trace,
		OutDir: dir, shrink: &shrink{clients: 2, imageMiB: 4, warmupOps: 500},
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload untraced and traced and checks the
// records against BENCHMARK.json: every workload and metric the manifest
// names is emitted (Run itself fails on a value that is not finite, see
// TestNonFiniteMetricFailsRecord), nothing failed, and the same seed gives
// the same op stream.
func TestSmoke(t *testing.T) {
	m, err := LoadManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(Workloads) {
		t.Fatalf("manifest lists %d workloads, the benchmark has %d", len(m.Workloads), len(Workloads))
	}
	dir := t.TempDir()
	for i := range Workloads {
		wl := &Workloads[i]
		if m.Workloads[i].Name != wl.Name || m.Workloads[i].Why != wl.Why {
			t.Errorf("manifest workload %d is %q, the benchmark's is %q (or the why differs)", i, m.Workloads[i].Name, wl.Name)
		}
		if !nameRE.MatchString(wl.Name) {
			t.Errorf("workload name %q is not a valid name", wl.Name)
		}
		t.Run(wl.Name, func(t *testing.T) {
			untraced, err := Run(smokeConfig(wl, false, dir))
			if err != nil {
				t.Fatal(err)
			}
			traced, err := Run(smokeConfig(wl, true, dir))
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range []*Record{untraced, traced} {
				if rec.Failed != 0 || !rec.Correct || rec.ExitCode() != 0 {
					t.Errorf("trace=%v: %d of %d failed (samples %v)", rec.Trace, rec.Failed, rec.Attempted, rec.Samples)
				}
				for name := range rec.Metrics {
					if !nameRE.MatchString(name) {
						t.Errorf("metric name %q is not a valid name", name)
					}
				}
			}
			if len(untraced.Metrics) != len(m.EndToEnd) {
				t.Errorf("untraced run emitted %d metrics, manifest lists %d end-to-end", len(untraced.Metrics), len(m.EndToEnd))
			}
			for _, spec := range m.EndToEnd {
				v, ok := untraced.Metrics[spec.Name]
				if !ok || v.Unit != spec.Unit || !(v.Value > 0) {
					t.Errorf("end-to-end %s: got %+v (present=%v), want unit %q and a value above 0", spec.Name, v, ok, spec.Unit)
				}
			}
			if len(traced.Metrics) != len(m.PerLayer) {
				t.Errorf("traced run emitted %d metrics, manifest lists %d per-layer", len(traced.Metrics), len(m.PerLayer))
			}
			for _, spec := range m.PerLayer {
				if v, ok := traced.Metrics[spec.Name]; !ok || v.Unit != spec.Unit {
					t.Errorf("per-layer %s: got %+v (present=%v), want unit %q", spec.Name, v, ok, spec.Unit)
				}
			}
			if untraced.Digest != traced.Digest {
				t.Errorf("same seed, op-stream digests %s and %s", untraced.Digest, traced.Digest)
			}
			if traced.Samples["spans"] == 0 {
				t.Error("traced run recorded no spans")
			}
		})
	}
}

// TestReadbackGateFires corrupts one block behind the tracker's back
// between the window and the read-back: the run must count it as failed
// and ask for a non-zero exit.
func TestReadbackGateFires(t *testing.T) {
	wl, err := WorkloadByName("randwrite_qd1") // reads back every block
	if err != nil {
		t.Fatal(err)
	}
	cfg := smokeConfig(wl, false, t.TempDir())
	cfg.afterWindow = func(e *env) {
		buf := make([]byte, BlockBytes)
		putStamp(buf, 0, 5, 0) // a stamp no write of block 5 ever carried
		if err := e.imgs[0].WriteAt(buf, 5*BlockBytes); err != nil {
			t.Errorf("corrupting write: %v", err)
		}
	}
	rec, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Failed != 1 || rec.Correct || rec.ExitCode() == 0 {
		t.Fatalf("failed=%d correct=%v exit=%d after corrupting one stamp: the gate did not fire",
			rec.Failed, rec.Correct, rec.ExitCode())
	}
	if rec.Samples["readback_bad"] != 1 {
		t.Fatalf("readback_bad = %d, want 1", rec.Samples["readback_bad"])
	}
}

// TestNonFiniteMetricFailsRecord: a NaN or an infinity must fail the run,
// not read as the 0 of a metric that does not apply.
func TestNonFiniteMetricFailsRecord(t *testing.T) {
	rec := &Record{Workload: "w", Metrics: map[string]Metric{}}
	rec.set("fine", 0, "x")
	if err := rec.check(); err != nil {
		t.Fatalf("a zero is a value: %v", err)
	}
	rec.set("broken.nan", math.NaN(), "x")
	rec.set("broken.inf", math.Inf(1), "x")
	err := rec.check()
	if err == nil || !strings.Contains(err.Error(), "broken.nan") || !strings.Contains(err.Error(), "broken.inf") {
		t.Fatalf("check() = %v, want an error naming both metrics", err)
	}
	if _, ok := rec.Metrics["broken.nan"]; ok {
		t.Fatal("a NaN made it into the record")
	}
}

// TestMergeLeavesSlowProcessesOut: the run's rates and quantiles come from
// the processes on the fast level; the per-process values and the counts
// still cover all of them.
func TestMergeLeavesSlowProcessesOut(t *testing.T) {
	proc := func(iops, setup float64) *Record {
		r := &Record{Workload: "w", Seed: 1, Digest: "d", WindowS: 4, Correct: true, Attempted: 10,
			Metrics: map[string]Metric{}, Samples: map[string]int64{"window_ops": 10}}
		for i := 0; i < 4; i++ {
			r.Slices = append(r.Slices, SliceStat{IOPS: iops, P50us: 1e6 / iops, P99us: 1e7 / iops, MinorP50us: 1e6 / iops, CPUusPerOp: 1})
		}
		r.setSliceMetrics()
		r.set("setup_s", setup, "s")
		r.set("waf", 2, "x")
		r.set("peak_rss_mb", 100, "MiB")
		return r
	}
	// Two of five slow: left out.
	out, err := Merge([]*Record{proc(1000, 1), proc(700, 5), proc(1010, 2), proc(720, 4), proc(990, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Slices) != 12 || out.Metrics["iops"].Value != 1000 {
		t.Errorf("slices=%d iops=%v, want the 12 slices of the three fast processes and their median 1000", len(out.Slices), out.Metrics["iops"].Value)
	}
	if out.Samples["processes"] != 5 || out.Samples["processes_slow"] != 2 {
		t.Errorf("processes=%d slow=%d, want 5 and 2", out.Samples["processes"], out.Samples["processes_slow"])
	}
	if out.Metrics["setup_s"].Value != 3 || out.Attempted != 50 || out.WindowS != 20 {
		t.Errorf("setup_s=%v attempted=%d window=%v, want the median 3 and the sums 50 and 20 over all five", out.Metrics["setup_s"].Value, out.Attempted, out.WindowS)
	}
	// None slow: all five count.
	out, err = Merge([]*Record{proc(1000, 1), proc(960, 5), proc(1010, 2), proc(950, 4), proc(990, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Slices) != 20 || out.Metrics["iops"].Value != 990 || out.Samples["processes_slow"] != 0 {
		t.Errorf("slices=%d iops=%v slow=%d, want all 20 slices, their median 990 and no slow process", len(out.Slices), out.Metrics["iops"].Value, out.Samples["processes_slow"])
	}
	// Three slow: the faster majority still counts, one slow process in it.
	out, err = Merge([]*Record{proc(1000, 1), proc(700, 5), proc(710, 2), proc(720, 4), proc(990, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Slices) != 12 || out.Samples["processes_slow"] != 3 {
		t.Errorf("slices=%d slow=%d, want the 12 slices of the faster majority and 3 slow processes", len(out.Slices), out.Samples["processes_slow"])
	}
}

func TestStampRoundTrip(t *testing.T) {
	b := make([]byte, BlockBytes)
	putStamp(b, 3, 77, 12)
	if seq, ok := readStamp(b, 3, 77); !ok || seq != 12 {
		t.Fatalf("readStamp = %d, %v", seq, ok)
	}
	if _, ok := readStamp(b, 3, 78); ok {
		t.Fatal("stamp accepted for another block")
	}
	if _, ok := readStamp(b, 2, 77); ok {
		t.Fatal("stamp accepted for another image")
	}
	b[17] ^= 1
	if _, ok := readStamp(b, 3, 77); ok {
		t.Fatal("stamp with a flipped bit accepted")
	}
}

func TestBlockTrackAdmitsOverlapOnly(t *testing.T) {
	tr := newBlockTrack(4)
	if !tr.admissible(0, 1) || tr.admissible(0, 2) {
		t.Fatal("fresh block must admit exactly the prefill stamp")
	}
	a := tr.issue(0) // 2
	tr.done(0)
	b := tr.issue(0) // 3, issued after 2 was ACKed
	tr.done(0)
	if tr.admissible(0, a) || !tr.admissible(0, b) {
		t.Fatal("sequential writes: only the last ACKed stamp is admissible")
	}
	c := tr.issue(1) // 2
	d := tr.issue(1) // 3, in flight together with 2
	tr.done(1)
	tr.done(1)
	if !tr.admissible(1, c) || !tr.admissible(1, d) || tr.admissible(1, 1) {
		t.Fatal("overlapping writes: either may land last, the prefill stamp may not")
	}
}

func TestCompareVerdicts(t *testing.T) {
	m := &Manifest{
		Workloads: []ManifestWL{{Name: "w"}},
		EndToEnd: []MetricSpec{
			{Name: "iops", Unit: "1/s", Better: "higher", Bound: 0.05},
			{Name: "p50_us", Unit: "us", Better: "lower", Bound: 0.05},
			{Name: "waf", Unit: "x", Better: "lower", Bound: 0.03},
		},
	}
	// p50 is steady across the slices, iops swings by +-swing around its
	// median.
	set := func(iops, p50, swing float64) *Set {
		rec := &Record{Workload: "w", WindowS: 8, Metrics: map[string]Metric{
			"iops": {Value: iops}, "p50_us": {Value: p50},
		}}
		for i := 0; i < 8; i++ {
			rec.Slices = append(rec.Slices, SliceStat{IOPS: iops * (1 + swing*float64(i%3-1)), P50us: p50})
		}
		return &Set{Untraced: []*Record{rec}}
	}
	verdicts := func(a, b *Set) (string, int, int) {
		var out bytes.Buffer
		worse, unresolved := Compare(&out, m, a, b)
		return out.String(), worse, unresolved
	}

	out, worse, unresolved := verdicts(set(1000, 10, 0.01), set(900, 10.2, 0.01))
	if worse != 1 || unresolved != 1 {
		t.Fatalf("worse=%d unresolved=%d, want 1 and 1 (iops -10%% is WORSE, p50 +2%% passes, waf is missing)\n%s", worse, unresolved, out)
	}
	for _, want := range []string{VerdictWorse, VerdictPass, VerdictUnresolved} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %s:\n%s", want, out)
		}
	}

	// Slices that swing by +-20 % cannot resolve a 5 % bound, however
	// close the two medians are.
	out, worse, unresolved = verdicts(set(1000, 10, 0.2), set(1001, 10, 0.2))
	if worse != 0 || unresolved != 2 || !strings.Contains(out, "noise above bound") {
		t.Fatalf("worse=%d unresolved=%d, want 0 and 2 (iops too noisy, waf missing)\n%s", worse, unresolved, out)
	}

	// Records measured over different windows do not compare.
	short := set(1000, 10, 0.01)
	short.Untraced[0].WindowS = 4
	out, worse, unresolved = verdicts(set(1000, 10, 0.01), short)
	if worse != 0 || unresolved != 3 {
		t.Fatalf("worse=%d unresolved=%d, want every row UNRESOLVED across different windows\n%s", worse, unresolved, out)
	}
}
