package benchmarks

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"text/tabwriter"
)

// Manifest is BENCHMARK.json, the contract a later change is judged
// against: the command, the workloads, and for every end-to-end metric
// the share of the parent's median by which it may worsen.
type Manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []ManifestWL  `json:"workloads"`
	EndToEnd   []MetricSpec  `json:"end_to_end"`
	PerLayer   []LayerMetric `json:"per_layer"`
}

// ManifestWL names a workload and why it exists.
type ManifestWL struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// MetricSpec is one end-to-end metric with its regression bound.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// LayerMetric is one per-layer metric; per-layer metrics carry no bound.
type LayerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// LoadManifest reads BENCHMARK.json.
func LoadManifest(path string) (*Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// gitRev is the VCS revision the binary was built from, when the build
// recorded one.
func gitRev() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// ContractLine is the one JSON object the driver reads from the last line
// of standard output.
type ContractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Contract reduces a record to the driver's line.
func (r *Record) Contract() ContractLine {
	return ContractLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics}
}

// ExitCode is what a command reporting this record exits with: non-zero
// as soon as one op failed or one read-back block held the wrong stamp.
func (r *Record) ExitCode() int {
	if r.Correct && r.Failed == 0 {
		return 0
	}
	return 1
}

// Set is one full pass over the workloads: per workload its untraced
// record and, unless tracing was skipped, its traced one.
type Set struct {
	Seed     int64     `json:"seed"`
	WindowS  float64   `json:"window_s"`
	Untraced []*Record `json:"untraced"`
	Traced   []*Record `json:"traced,omitempty"`
}

// WriteJSON writes v to path, indented.
func WriteJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// LoadSet reads a set written by WriteJSON.
func LoadSet(path string) (*Set, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Set
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// PrintSummary renders a set as the table run.sh ends with.
func PrintSummary(w io.Writer, m *Manifest, s *Set) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "workload\t")
	for _, spec := range m.EndToEnd {
		fmt.Fprintf(tw, "%s [%s]\t", spec.Name, spec.Unit)
	}
	fmt.Fprintln(tw, "failed/attempted\t")
	for _, r := range s.Untraced {
		fmt.Fprintf(tw, "%s\t", r.Workload)
		for _, spec := range m.EndToEnd {
			fmt.Fprintf(tw, "%.4g\t", r.Metrics[spec.Name].Value)
		}
		fmt.Fprintf(tw, "%d/%d\t\n", r.Failed, r.Attempted)
	}
	tw.Flush()
	if len(s.Traced) == 0 {
		return
	}
	fmt.Fprintln(w)
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "per-layer\tunit\t")
	for _, r := range s.Traced {
		fmt.Fprintf(tw, "%s\t", r.Workload)
	}
	fmt.Fprintln(tw)
	for _, spec := range m.PerLayer {
		fmt.Fprintf(tw, "%s\t%s\t", spec.Name, spec.Unit)
		for _, r := range s.Traced {
			fmt.Fprintf(tw, "%.4g\t", r.Metrics[spec.Name].Value)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// Verdict of one compared metric.
const (
	VerdictPass       = "PASS"
	VerdictWorse      = "WORSE"
	VerdictUnresolved = "UNRESOLVED"
)

// Compare prints, per workload and end-to-end metric, both values, the
// relative difference of B against A and a verdict against the bound in
// the manifest: WORSE when B is worse than A by more than the bound, PASS
// when it is not, and UNRESOLVED when nothing can be said: a value is
// missing or zero, the two records were not measured alike (window or
// client count differ; seeds may differ, that is the cross-seed check), or
// a side's own slices put the noise of its median (sliceNoise) above the
// bound. It returns how many rows were WORSE and how many UNRESOLVED.
func Compare(w io.Writer, m *Manifest, a, b *Set) (worse, unresolved int) {
	byName := func(s *Set) map[string]*Record {
		out := map[string]*Record{}
		for _, r := range s.Untraced {
			out[r.Workload] = r
		}
		return out
	}
	ra, rb := byName(a), byName(b)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tdiff\tbound\tnoise\tverdict\t")
	for _, wl := range m.Workloads {
		for _, spec := range m.EndToEnd {
			j := judge(spec, ra[wl.Name], rb[wl.Name])
			switch j.verdict {
			case VerdictWorse:
				worse++
			case VerdictUnresolved:
				unresolved++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%+.1f%%\t%.0f%%\t%.1f%%\t%s%s\t\n",
				wl.Name, spec.Name, j.a, j.b, 100*j.diff, 100*spec.Bound, 100*j.noise, j.verdict, j.why)
		}
	}
	tw.Flush()
	return worse, unresolved
}

// judgement is one row of Compare.
type judgement struct {
	a, b, diff, noise float64
	verdict, why      string
}

// judge compares one end-to-end metric of two records of one workload
// (nil: the set has none).
func judge(spec MetricSpec, x, y *Record) judgement {
	j := judgement{verdict: VerdictUnresolved}
	switch {
	case x == nil || y == nil:
		j.why = " (not in both sets)"
		return j
	case x.WindowS != y.WindowS || x.Host.Clients != y.Host.Clients:
		j.why = " (window or clients differ)"
		return j
	}
	j.a, j.b = x.Metrics[spec.Name].Value, y.Metrics[spec.Name].Value
	j.noise = max(x.sliceNoise(spec.Name), y.sliceNoise(spec.Name))
	if !(j.a > 0 && j.b > 0) {
		j.why = " (no value)"
		return j
	}
	j.diff = (j.b - j.a) / j.a
	worseBy := j.diff
	if spec.Better == "higher" {
		worseBy = -j.diff
	}
	switch {
	case j.noise > spec.Bound:
		j.why = " (noise above bound)"
	case worseBy > spec.Bound:
		j.verdict = VerdictWorse
	default:
		j.verdict = VerdictPass
	}
	return j
}
