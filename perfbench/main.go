// Command perfbench is the repository's benchmark: it starts a real topkd
// built from this checkout, drives it over loopback TCP with one of three
// workloads generated from a seed, checks every answer against its own
// computations, and prints the end-to-end metrics. With --trace 1 it
// replays the same workload in process instead and times the calls into
// each layer, which gives the per-layer metrics. See README.md.
//
// Run it from the repository root through the wrapper that builds it:
//
//	bash perfbench/run.sh --workload cold --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh steady
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"probtopk/perfbench/check"
)

func main() {
	if len(os.Args) == 2 && os.Args[1] == "steady" {
		if err := steady(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench steady:", err)
			os.Exit(1)
		}
		return
	}
	workload := flag.String("workload", "", "cold, warm or ingest")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 replays the workload in process and reports the per-layer metrics")
	flag.Parse()

	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	var res *result
	switch {
	case *workload != "cold" && *workload != "warm" && *workload != "ingest":
		err = fmt.Errorf("unknown workload %q (want cold, warm or ingest)", *workload)
	case *trace == 1:
		res, err = traced(*workload, *seed, *seconds)
	default:
		res, err = endToEnd(*workload, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	want := spec.EndToEnd
	if *trace == 1 {
		want = spec.PerLayer
	}
	out, err := res.output(want)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.report(os.Stdout)
	fmt.Println(string(out))
}

// buildDir holds the binaries and every file a run writes; it is ignored
// by git. run.sh builds topkd into it.
const (
	buildDir = ".bench_build"
	topkdBin = buildDir + "/topkd"
)

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// metric is one measured value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a run measured.
type result struct {
	workload  string
	correct   bool
	attempted int
	failed    int
	problems  []string
	metrics   map[string]metric
	notes     []string // context printed with the report
}

// output renders the result line with exactly the wanted metrics.
func (res *result) output(want []metricSpec) ([]byte, error) {
	ms := map[string]metric{}
	for _, w := range want {
		m, ok := res.metrics[w.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is not measured by workload %s", w.Name, res.workload)
		}
		if m.Unit != w.Unit {
			return nil, fmt.Errorf("metric %s is measured in %s, BENCHMARK.json says %s", w.Name, m.Unit, w.Unit)
		}
		ms[w.Name] = m
	}
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct, res.attempted, res.failed, ms})
}

// report prints every measured metric, the notes and the first problems.
func (res *result) report(w *os.File) {
	names := make([]string, 0, len(res.metrics))
	for name := range res.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.metrics[name]
		fmt.Fprintf(w, "perfbench %s %-28s %14.6f %s\n", res.workload, name, m.Value, m.Unit)
	}
	for _, n := range res.notes {
		fmt.Fprintf(w, "perfbench %s note: %s\n", res.workload, n)
	}
	for _, p := range res.problems {
		fmt.Fprintf(w, "perfbench %s PROBLEM: %s\n", res.workload, p)
	}
}

// inputs generates a workload's tables and their upload order.
func inputs(workload string, seed int64) (map[string][]check.Tuple, []string) {
	switch workload {
	case "cold":
		return coldInputs(seed)
	case "warm":
		return warmInputs(seed)
	}
	return ingestInputs(seed)
}

// connections is the number of client connections: one per writer for
// ingest, otherwise two, and never more than the machine's CPUs.
func connections(workload string) int {
	n := 2
	if workload == "ingest" {
		n = ingestWriters
	}
	return max(1, min(n, runtime.NumCPU()))
}

func newRun(workload string, seed int64, seconds float64, tables map[string][]check.Tuple) *run {
	r := &run{workload: workload, seed: seed, seconds: seconds, models: map[string]*check.Table{}}
	for name, tuples := range tables {
		r.models[name] = check.NewTable(tuples)
	}
	return r
}

// endToEnd runs one workload against a real topkd over loopback TCP.
// setup_s times the daemon's part of the set-up alone: the inputs, their
// models and the upload requests are made before the daemon is launched,
// and the warm hot set is filled and checked after the clock stops.
func endToEnd(workload string, seed int64, seconds float64) (*result, error) {
	tables, order := inputs(workload, seed)
	r := newRun(workload, seed, seconds, tables)
	puts := uploads(tables, order)
	work, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	dataDir := filepath.Join(work, "data")
	var args []string
	if workload == "ingest" {
		args = []string{"-data-dir", dataDir}
	}

	// Collect the garbage of making the inputs now, so that no collection
	// of this process competes with the daemon for the CPUs in set-up.
	runtime.GC()
	start := time.Now()
	d, err := startDaemon(topkdBin, args...)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	admin := newTCPTarget(d.addr)
	defer admin.close()
	if err := admin.waitHealthy(); err != nil {
		return nil, err
	}
	if err := r.upload(admin, puts); err != nil {
		return nil, err
	}
	setup := time.Since(start)

	for range connections(workload) {
		t := newTCPTarget(d.addr)
		defer t.close()
		r.targets = append(r.targets, t)
	}
	var hot []hotItem
	if workload == "warm" {
		hot = r.warmFill(false)
	}

	st0, err := admin.stats()
	if err != nil {
		return nil, err
	}
	cpu0, err := d.cpu()
	if err != nil {
		return nil, err
	}
	self0 := selfCPU()
	var dur time.Duration
	switch workload {
	case "cold":
		dur = r.runCold(false)
	case "warm":
		dur = r.runWarm(hot, false)
	case "ingest":
		dur = r.runIngest(order, false)
	}
	cpu1, err := d.cpu()
	if err != nil {
		return nil, err
	}
	self1 := selfCPU()
	rss, err := d.peakRSS()
	if err != nil {
		return nil, err
	}
	st1, err := admin.stats()
	if err != nil {
		return nil, err
	}

	res := &result{workload: workload, metrics: map[string]metric{}}
	set := func(name string, v float64, unit string) { res.metrics[name] = metric{v, unit} }
	r.mu.Lock()
	queries, ops := len(r.queryLat), r.timedOps
	set("setup_s", setup.Seconds(), "s")
	set("query_p50_ms", quantile(r.queryLat, 0.5), "ms")
	if queries >= 1000 {
		// A 99th percentile over fewer queries rests on under ten samples.
		set("query_p99_ms", quantile(r.queryLat, 0.99), "ms")
	}
	set("query_rate", float64(queries)/dur.Seconds(), "queries/s")
	set("cpu_ms_per_op", float64(cpu1-cpu0)/float64(time.Millisecond)/float64(max(1, ops)), "ms")
	set("peak_rss_mb", rss, "MB")
	res.notes = append(res.notes, fmt.Sprintf("%d queries and %d requests in a %.2fs timed phase over %d connections", queries, ops, dur.Seconds(), len(r.targets)))
	res.notes = append(res.notes, fmt.Sprintf("daemon CPU %.2fs, benchmark client CPU %.2fs in the timed phase", (cpu1-cpu0).Seconds(), (self1-self0).Seconds()))
	if workload == "warm" {
		res.notes = append(res.notes, fmt.Sprintf("generator lateness p50 %.3fms p99 %.3fms max %.3fms", quantile(r.lateness, 0.5), quantile(r.lateness, 0.99), quantile(r.lateness, 1)))
	}
	res.notes = append(res.notes, fmt.Sprintf("query latency p25 %.3f p50 %.3f p75 %.3f p90 %.3f ms",
		quantile(r.queryLat, 0.25), quantile(r.queryLat, 0.5), quantile(r.queryLat, 0.75), quantile(r.queryLat, 0.9)))
	appendLat := r.appendLat
	r.mu.Unlock()
	delta := func(path ...string) float64 { return statNum(st1, path...) - statNum(st0, path...) }
	res.notes = append(res.notes, fmt.Sprintf("answer cache hits %.0f misses %.0f evictions %.0f; prepared cache hits %.0f misses %.0f; sheds %.0f; coalesced %.0f",
		delta("answerCache", "hits"), delta("answerCache", "misses"), delta("answerCache", "evictions"),
		delta("preparedCache", "hits"), delta("preparedCache", "misses"),
		delta("fairness", "sheds"), delta("coalescedQueries", "count")))

	if workload == "ingest" {
		set("append_p50_ms", quantile(appendLat, 0.5), "ms")
		set("append_p99_ms", quantile(appendLat, 0.99), "ms")
		res.notes = append(res.notes, fmt.Sprintf("%d appends; %.0f WAL fsyncs, %.0f checkpoints", len(appendLat),
			delta("durability", "walSyncs"), delta("durability", "checkpoints")))
		before := r.verifyDurable(admin, order)
		admin.close()
		if err := d.stop(); err != nil {
			r.problem("graceful stop: %v", err)
		}
		size, err := dirSize(dataDir)
		if err != nil {
			return nil, err
		}
		live := 0
		for _, name := range order {
			live += r.models[name].Len()
		}
		set("disk_bytes_per_tuple", float64(size)/float64(live), "bytes")
		t0 := time.Now()
		d2, err := startDaemon(topkdBin, args...)
		if err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		defer d2.stop()
		admin2 := newTCPTarget(d2.addr)
		defer admin2.close()
		if err := admin2.waitHealthy(); err != nil {
			return nil, err
		}
		set("recover_s", time.Since(t0).Seconds(), "s")
		r.compareAnswers(before, r.verifyDurable(admin2, order))
		if err := d2.stop(); err != nil {
			r.problem("graceful stop after restart: %v", err)
		}
	}
	return r.finish(res), nil
}

// finish copies the run's counts and problems into res.
func (r *run) finish(res *result) *result {
	r.mu.Lock()
	defer r.mu.Unlock()
	res.attempted, res.failed = r.attempted, r.failed
	res.problems = r.problems
	res.correct = r.wrong == 0
	return res
}

// selfCPU returns this process's user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.Type().IsRegular() {
			info, err := e.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// quantile returns the q-quantile of xs as Python's
// statistics.quantiles does with its default, exclusive method: the value
// at rank q·(len(xs)+1), counted from 1 and interpolated linearly between
// neighbours (type 6 of Hyndman and Fan), but clamped to the smallest and
// largest sample where Python would extrapolate. It returns 0 for no
// samples. Every quantile the benchmark reports, of latencies and of runs,
// uses this one definition.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q*float64(len(s)+1) - 1
	switch {
	case pos <= 0:
		return s[0]
	case pos >= float64(len(s)-1):
		return s[len(s)-1]
	}
	lo := int(pos)
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
