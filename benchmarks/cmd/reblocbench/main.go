// Command reblocbench runs rebloc's benchmark.
//
//	reblocbench [-seed N] [-window S] [-only W] [-notrace] [-sets K]
//	    every workload, untraced then traced; writes <out>/set<k>.json,
//	    prints the summary table; -sets 2 also self-compares the sets
//	reblocbench --workload W --seed N --seconds S --trace 0|1
//	    one run of one workload; the last line of standard output is the
//	    JSON object the benchmark driver reads (--seconds is the driver's
//	    spelling of -window). Untraced, the S seconds are shared by five
//	    fresh processes; those on the fast level give the figures
//	reblocbench compare A.json B.json
//	    per workload x end-to-end metric: both values, the difference, and
//	    PASS / WORSE / UNRESOLVED against the bounds in BENCHMARK.json
//
// Every measured run happens in a fresh child process (the command
// re-execs itself): back-to-back clusters in one process do not repeat.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"rebloc/benchmarks"
)

// processes is how many fresh processes share one untraced run's window.
// Each boots, provisions and warms its own cluster and measures a fifth of
// the window; benchmarks.Merge takes the run's rates and quantiles from the
// pooled slices of those on the fast level. Throughput settles per process
// on a level that then holds (about one process in six of a write workload
// runs a fifth slower for its whole life), so slices of one process cannot
// average that out, and with three processes two slow ones outvoted the
// third in one run of ten. setup_s is the median of the five set-ups.
const processes = 5

// childTimeout bounds one child process; the driver allows a run 180 s.
const childTimeout = 170 * time.Second

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	child    bool
	only     string
	notrace  bool
	sets     int
	out      string
	manifest string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var o options
	fs := flag.NewFlagSet("reblocbench", flag.ExitOnError)
	fs.StringVar(&o.workload, "workload", "", "run this one workload and print the driver's JSON line")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "window", 0, "measured window in seconds (default: run_seconds of BENCHMARK.json)")
	fs.Float64Var(&o.seconds, "seconds", 0, "the benchmark driver's spelling of -window")
	fs.IntVar(&o.trace, "trace", 0, "with -workload: 0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	fs.StringVar(&o.only, "only", "", "full-set mode: run only this workload")
	fs.BoolVar(&o.notrace, "notrace", false, "full-set mode: skip the traced runs")
	fs.IntVar(&o.sets, "sets", 1, "full-set mode: run everything this many times and compare set 1 with each later set")
	fs.StringVar(&o.out, "out", filepath.Join("benchmarks", "out"), "directory for records, span files and daemon logs")
	fs.StringVar(&o.manifest, "manifest", "BENCHMARK.json", "path of BENCHMARK.json")
	fs.BoolVar(&o.child, "child", false, "internal: measure in this process and print the record")
	fs.Parse(os.Args[1:])

	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fatal(err)
	}
	switch {
	case o.child:
		os.Exit(childMain(o))
	case o.workload != "":
		os.Exit(driverMain(o))
	default:
		os.Exit(fullMain(o))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "reblocbench:", err)
	os.Exit(2)
}

// window resolves the measured duration: the flag, else the manifest's
// run_seconds.
func (o *options) window() (time.Duration, error) {
	if o.seconds > 0 {
		return time.Duration(o.seconds * float64(time.Second)), nil
	}
	m, err := benchmarks.LoadManifest(o.manifest)
	if err != nil {
		return 0, fmt.Errorf("no -window given and no manifest: %w", err)
	}
	return time.Duration(m.RunSeconds) * time.Second, nil
}

// --- child: one measured run in this process ---

func childMain(o options) int {
	wl, err := benchmarks.WorkloadByName(o.workload)
	if err != nil {
		fatal(err)
	}
	// The in-process daemons log through the standard logger; standard
	// output must stay machine-readable.
	logf, err := os.OpenFile(filepath.Join(o.out, wl.Name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		fatal(err)
	}
	defer logf.Close()
	log.SetOutput(logf)

	window, err := o.window()
	if err != nil {
		fatal(err)
	}
	cfg := benchmarks.Config{Workload: wl, Seed: o.seed, Window: window, Trace: o.trace == 1, OutDir: o.out}
	rec, err := benchmarks.Run(cfg)
	if err != nil {
		fatal(err)
	}
	if err := json.NewEncoder(os.Stdout).Encode(rec); err != nil {
		fatal(err)
	}
	return 0
}

// spawn re-execs this binary as a measuring child and decodes its record.
func spawn(o options, trace int, wl string, window time.Duration) (*benchmarks.Record, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe,
		"-child", "-workload", wl, "-seed", strconv.FormatInt(o.seed, 10),
		"-window", strconv.FormatFloat(window.Seconds(), 'f', -1, 64),
		"-trace", strconv.Itoa(trace), "-out", o.out, "-manifest", o.manifest)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child (%s): %w", wl, err)
	}
	var rec benchmarks.Record
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &rec); err != nil {
		return nil, fmt.Errorf("child (%s) output: %w", wl, err)
	}
	return &rec, nil
}

// runWorkload produces one record in fresh processes: one for a traced
// run, processes of them sharing the window for an untraced one.
func runWorkload(o options, wl string, trace int, window time.Duration) (*benchmarks.Record, error) {
	if trace == 1 {
		return spawn(o, 1, wl, window)
	}
	var recs []*benchmarks.Record
	for i := 0; i < processes; i++ {
		rec, err := spawn(o, 0, wl, window/processes)
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	return benchmarks.Merge(recs)
}

func printRecord(w io.Writer, rec *benchmarks.Record) {
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s seed=%d window=%.4gs trace=%v digest=%s ops=%d failed=%d\n",
		rec.Workload, rec.Seed, rec.WindowS, rec.Trace, rec.Digest, rec.Attempted, rec.Failed)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", n, rec.Metrics[n].Value, rec.Metrics[n].Unit)
	}
}

// --- driver mode: one workload, one contract line ---

func driverMain(o options) int {
	if _, err := benchmarks.WorkloadByName(o.workload); err != nil {
		fatal(err)
	}
	window, err := o.window()
	if err != nil {
		fatal(err)
	}
	rec, err := runWorkload(o, o.workload, o.trace, window)
	if err != nil {
		fatal(err)
	}
	printRecord(os.Stdout, rec)
	line, err := json.Marshal(rec.Contract())
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
	return rec.ExitCode()
}

// --- full-set mode ---

func fullMain(o options) int {
	m, err := benchmarks.LoadManifest(o.manifest)
	if err != nil {
		fatal(err)
	}
	window, err := o.window()
	if err != nil {
		fatal(err)
	}
	var sets []*benchmarks.Set
	failed := false
	for k := 1; k <= o.sets; k++ {
		set := &benchmarks.Set{Seed: o.seed, WindowS: window.Seconds()}
		for _, wl := range benchmarks.Workloads {
			if o.only != "" && o.only != wl.Name {
				continue
			}
			for trace := 0; trace <= 1; trace++ {
				if trace == 1 && o.notrace {
					continue
				}
				fmt.Fprintf(os.Stderr, "set %d: %s trace=%d ...\n", k, wl.Name, trace)
				rec, err := runWorkload(o, wl.Name, trace, window)
				if err != nil {
					fatal(err)
				}
				failed = failed || rec.ExitCode() != 0
				if trace == 0 {
					set.Untraced = append(set.Untraced, rec)
				} else {
					set.Traced = append(set.Traced, rec)
				}
			}
		}
		path := filepath.Join(o.out, fmt.Sprintf("set%d.json", k))
		if err := benchmarks.WriteJSON(path, set); err != nil {
			fatal(err)
		}
		fmt.Printf("== set %d (seed %d, window %gs) -> %s\n", k, o.seed, window.Seconds(), path)
		benchmarks.PrintSummary(os.Stdout, m, set)
		sets = append(sets, set)
	}
	for k := 1; k < len(sets); k++ {
		fmt.Printf("\n== compare set 1 with set %d\n", k+1)
		worse, unresolved := benchmarks.Compare(os.Stdout, m, sets[0], sets[k])
		failed = failed || worse+unresolved > 0
	}
	if failed {
		return 1
	}
	return 0
}

func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	manifest := fs.String("manifest", "BENCHMARK.json", "path of BENCHMARK.json")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: reblocbench compare [-manifest BENCHMARK.json] A.json B.json")
		return 2
	}
	m, err := benchmarks.LoadManifest(*manifest)
	if err != nil {
		fatal(err)
	}
	a, err := benchmarks.LoadSet(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	b, err := benchmarks.LoadSet(fs.Arg(1))
	if err != nil {
		fatal(err)
	}
	worse, unresolved := benchmarks.Compare(os.Stdout, m, a, b)
	if worse+unresolved > 0 {
		return 1
	}
	return 0
}
