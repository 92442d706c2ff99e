// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload through the engines' public APIs, checks every
// answer against core.RunReference, and prints each end-to-end metric
// (untraced run) or each per-layer metric (traced run). The last line
// of standard output is a JSON object with the keys correct, attempted,
// failed and metrics; the lines before it are a human-readable report
// and a JSON record stamped with the host and provenance.
//
// Usage, from the repository root:
//
//	python3 perfbench/run.py --workload paged-analytics --seed 1 --seconds 20 --trace 0
//
// See perfbench/README.md for the workloads, the metrics and what each
// per-layer metric is expected to move.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef is one metric as BENCHMARK.json lists it.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// definition is the part of BENCHMARK.json the program reads: the
// metrics an untraced run (end_to_end) and a traced run (per_layer)
// print. Every workload prints all of them; a layer a workload does not
// exercise reports 0.
type definition struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readDefinition(root string) (*definition, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var def definition
	if err := json.Unmarshal(data, &def); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &def, nil
}

// workloads maps each workload name to the function that runs it and to the
// workload's own name for each end-to-end metric.
var workloads = map[string]struct {
	run     func(*run) error
	aliases map[string]string
}{
	"paged-analytics": {runPaged, map[string]string{
		"readings_per_s": "analysed_readings_per_s",
		"op1_s":          "histogram_s", "op2_s": "threeline_s", "op3_s": "par_s",
	}},
	"rowstore-cold": {runRowCold, map[string]string{
		"readings_per_s": "analysed_readings_per_s",
		"op1_s":          "histogram_s", "op2_s": "threeline_s", "op3_s": "similarity_s",
	}},
	"durable-ingest": {runIngest, map[string]string{
		"readings_per_s": "ingest_rps",
		"op1_s":          "append_p50", "op2_s": "fresh_query", "op3_s": "recover_s",
	}},
}

// setupRepeats is how many times a workload sets up; setup_s is the
// median, so a single slow set-up does not move it.
const setupRepeats = 5

// clients is the number of client goroutines or engine workers each
// workload drives: the core count of the 2-CPU host the workloads were
// sized on.
const clients = 2

// run is one benchmark run: its arguments, scratch directory, tracer
// and what it measured.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	dir      string
	tr       *tracer

	attempted, failed int
	samples           map[string][]float64 // end-to-end metric -> samples
	layer             map[string]float64
	breakdowns        []breakdown
	notes             []string
}

func (r *run) add(metric string, v float64) { r.samples[metric] = append(r.samples[metric], v) }

// fail counts one failed operation and keeps its reason for the report.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.notes) < 20 {
		r.notes = append(r.notes, "FAILED: "+fmt.Sprintf(format, args...))
	}
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	workload := flag.String("workload", "", "workload to run: paged-analytics, rowstore-cold or durable-ingest")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "seconds the closed loop measures")
	trace := flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	flag.Parse()
	var def *definition
	wl, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload paged-analytics|rowstore-cold|durable-ingest, --seconds > 0 and --trace 0|1")
		return 2
	}
	root, err := repoRoot()
	if err == nil {
		def, err = readDefinition(root)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		dir:      filepath.Join(root, ".bench_work", fmt.Sprintf("%s-%d", *workload, os.Getpid())),
		tr:       newTracer(*trace == 1),
		samples:  map[string][]float64{},
		layer:    map[string]float64{},
	}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(r.dir)
	// Write back what earlier processes left dirty in the page cache, so
	// it does not compete with this run's disk traffic.
	syscall.Sync()
	prov := provenance(root, r, *trace == 1)
	runErr := wl.run(r)
	if runErr != nil {
		r.fail("%v", runErr)
	}
	if r.tr != nil {
		r.layer["trace.spans"] = float64(len(r.tr.spans))
		path := filepath.Join(root, ".bench_work", fmt.Sprintf("trace-%s-seed%d.json", r.workload, r.seed))
		if err := r.tr.write(path, prov); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
		} else {
			r.note("spans written to %s", path)
		}
	}
	// Every metric must be measured, and every measured metric must be
	// defined: a gap is a bug in the workload code, not a zero.
	defined := map[string]bool{}
	for _, d := range def.PerLayer {
		defined[d.Name] = true
	}
	for name := range r.layer {
		if !defined[name] {
			r.fail("per-layer metric %s is not in BENCHMARK.json", name)
		}
	}
	if runErr == nil {
		for _, d := range def.EndToEnd {
			if median(r.samples[d.Name]) <= 0 {
				r.fail("end-to-end metric %s was not measured", d.Name)
			}
		}
	}
	correct := runErr == nil && r.failed == 0 && r.attempted > 0
	out := bufio.NewWriter(os.Stdout)
	report(out, r, def, wl.aliases, prov)
	metrics := map[string]any{}
	if r.tr == nil {
		for _, d := range def.EndToEnd {
			metrics[d.Name] = map[string]any{"value": median(r.samples[d.Name]), "unit": d.Unit}
		}
	} else {
		for _, d := range def.PerLayer {
			metrics[d.Name] = map[string]any{"value": r.layer[d.Name], "unit": d.Unit}
		}
	}
	last, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": r.attempted, "failed": r.failed, "metrics": metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(out, string(last))
	if err := out.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !correct {
		fmt.Fprintln(os.Stderr, "perfbench: run failed; see the report above")
		return 1
	}
	return 0
}

// repoRoot finds the repository root: the nearest directory at or
// above the working directory holding internal/core.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "internal", "core")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no repository root (a directory holding internal/core) at or above the working directory")
		}
		dir = parent
	}
}

// provenance stamps the host, toolchain, source and run parameters.
func provenance(root string, r *run, traced bool) map[string]any {
	p := map[string]any{
		"workload":   r.workload,
		"seed":       r.seed,
		"seconds":    r.seconds.Seconds(),
		"traced":     traced,
		"cpus":       runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p["commit"] = s.Value
			case "vcs.modified":
				p["commit_modified"] = s.Value
			}
		}
	}
	if sum, err := sourceDigest(root); err == nil {
		p["source_sha256"] = sum
	}
	if us, err := fsyncProbe(r.dir); err == nil {
		p["fsync_probe_p50_us"] = us
	} else {
		p["fsync_probe_error"] = err.Error()
	}
	return p
}

// sourceDigest hashes every Go source and module file of the checkout,
// identifying the code when no commit is available.
func sourceDigest(root string) (string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		rel, _ := filepath.Rel(root, p)
		data, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		h.Write([]byte(fmt.Sprintf("%s %d\n", rel, len(data))))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// fsyncProbe times 20 write+fsync pairs of 4 KiB in dir and returns the
// median in microseconds, so a slower disk is not read as a wal
// regression.
func fsyncProbe(dir string) (float64, error) {
	f, err := os.Create(filepath.Join(dir, "fsync-probe"))
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	buf := make([]byte, 4096)
	var lat []float64
	for i := 0; i < 20; i++ {
		if _, err := f.Write(buf); err != nil {
			_ = f.Close()
			return 0, err
		}
		start := time.Now()
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return 0, err
		}
		lat = append(lat, float64(time.Since(start).Microseconds()))
	}
	return median(lat), f.Close()
}

// report prints the human-readable report and the JSON record.
func report(w *bufio.Writer, r *run, def *definition, aliases map[string]string, prov map[string]any) {
	fmt.Fprintf(w, "perfbench %s seed=%d traced=%v cpus=%v gomaxprocs=%v %v commit=%v fsync_probe_p50=%vus\n",
		r.workload, r.seed, r.tr != nil, prov["cpus"], prov["gomaxprocs"], prov["go"], prov["commit"], prov["fsync_probe_p50_us"])
	fmt.Fprintf(w, "operations: %d attempted, %d failed\n", r.attempted, r.failed)
	fmt.Fprintln(w, "end-to-end (median, tail, samples):")
	record := map[string]any{}
	for _, d := range def.EndToEnd {
		xs := r.samples[d.Name]
		name := d.Name
		if a, ok := aliases[d.Name]; ok {
			name += " = " + a
		}
		label, tv := tail(xs)
		fmt.Fprintf(w, "  %-36s %14.6g %-10s %s %.6g  n=%d\n", name, median(xs), d.Unit, label, tv, len(xs))
		record[d.Name] = map[string]any{"alias": aliases[d.Name], "unit": d.Unit, "median": median(xs), label: tv, "n": len(xs),
			"q1": quantile(xs, 0.25), "q3": quantile(xs, 0.75)}
	}
	var layer map[string]any
	if r.tr != nil {
		fmt.Fprintln(w, "per-layer:")
		layer = map[string]any{}
		for _, d := range def.PerLayer {
			fmt.Fprintf(w, "  %-44s %14.6g %s\n", d.Name, r.layer[d.Name], d.Unit)
			layer[d.Name] = r.layer[d.Name]
		}
		fmt.Fprintln(w, "breakdown of each end-to-end timing (rows + unattributed = total):")
		for _, b := range r.breakdowns {
			b.print(w)
		}
		fmt.Fprintln(w, "span self time by name:")
		for _, s := range r.tr.selfTimes() {
			fmt.Fprintf(w, "  %-44s n=%-7d total %10.4f s  self %10.4f s\n", s.Name, s.Count, s.Total, s.Self)
		}
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "note:", n)
	}
	rec, err := json.Marshal(map[string]any{"record": map[string]any{
		"provenance": prov, "attempted": r.attempted, "failed": r.failed,
		"end_to_end": record, "per_layer": layer, "breakdowns": r.breakdowns,
	}})
	if err == nil {
		fmt.Fprintln(w, string(rec))
	}
}
