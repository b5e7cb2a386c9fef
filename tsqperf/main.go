// Command tsqperf is the repository's benchmark. From a seed it generates
// one workload's inputs, writes a TSQ3 snapshot, cold-starts the server
// the way cmd/tsqd wires it, drives it with one closed-loop client, checks
// every kept answer against an independent brute-force oracle, and prints
// one JSON line: the end-to-end metrics (--trace 0) or the per-layer
// metrics of a separate traced pass (--trace 1).
//
// Usage, from the repository root:
//
//	bash tsqperf/run.sh --workload cached-reads --seed 1 --seconds 20 --trace 0
//	bash tsqperf/run.sh steady --workload disk-analytics --runs 10 --seconds 20
//
// See tsqperf/README.md for the workloads, the metrics and the figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// coldStartRuns is how many times a run starts the server from its
// snapshot; setup_s reports their median.
const coldStartRuns = 7

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steadyMain(os.Args[2:]))
	}
	fs := flag.NewFlagSet("tsqperf", flag.ExitOnError)
	name := fs.String("workload", "", "cached-reads, stream-ingest or disk-analytics")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs and request sequence")
	seconds := fs.Int("seconds", 20, "length of the timed loop")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of the traced pass instead of the end-to-end metrics")
	fs.Parse(os.Args[1:])
	// One P: every goroutine of client and server runs on one core at a
	// time. On a shared 2-vCPU VM, handing work between cores (the shard
	// fan-out, client/server wake-ups, the collector's dedicated worker)
	// made identical runs differ by up to half in wall time and by a
	// quarter in CPU time; on one P the same runs agree within a few
	// percent, and the figures are the program's own work. A change to
	// intra-query parallelism therefore does not show here.
	runtime.GOMAXPROCS(1)
	res, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err == nil {
		for k, m := range res.Metrics {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				err = fmt.Errorf("metric %s has no samples", k)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tsqperf:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tsqperf:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tsqperf: "+format+"\n", args...)
}

func run(name string, seed int64, dur time.Duration, traced bool) (*result, error) {
	dir := filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	w, err := newWorkload(name, seed, dir)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := w.prepare(); err != nil {
		return nil, fmt.Errorf("preparing inputs: %w", err)
	}
	series, snap := w.store()
	fi, err := os.Stat(snap)
	if err != nil {
		return nil, err
	}
	logf("%s seed %d: %d series x %d, snapshot %d bytes, prepared in %.2fs", name, seed, series, length, fi.Size(), time.Since(t0).Seconds())

	su, err := coldStarts(coldStartRuns, snap, w.storeOpts)
	if err != nil {
		return nil, fmt.Errorf("cold start: %w", err)
	}
	in := su.in
	defer in.close()
	if err := w.attach(in); err != nil {
		return nil, err
	}
	defer w.detach()

	var log []op
	var checks []checked
	warm := closedLoop(w, in, w.warmup(), 1, &log, &checks)
	st0, pool0, ev0 := in.srv.Stats(), in.db.PoolStats(), evictions(in)
	loop := closedLoop(w, in, dur, 1, &log, &checks)
	st1, pool1, ev1 := in.srv.Stats(), in.db.PoolStats(), evictions(in)
	for _, e := range append(warm.errs, loop.errs...) {
		logf("request failed: %s", e)
	}
	wrong, first := w.verify(in, log, checks)
	if wrong > 0 {
		logf("%d wrong answers or states; first: %s", wrong, first)
	}
	logf("timed loop %.2fs, %d requests, %d answers checked", loop.wall.Seconds(), loop.attempted, len(checks))

	res := &result{
		Correct:   wrong == 0,
		Attempted: warm.attempted + loop.attempted,
		Failed:    warm.failed + loop.failed + wrong,
		Metrics:   map[string]metric{},
	}
	done := float64(len(loop.samples))
	if !traced {
		// The time metrics are process CPU time (see cpuNow); the wall
		// figures go to standard error beside them.
		var rng, nn, focus, rngW, nnW, focusW []float64
		for _, s := range loop.samples {
			switch {
			case w.focus(s):
				focus, focusW = append(focus, s.cpuMs), append(focusW, s.ms)
			case s.cached:
			case s.cls == clsRange:
				rng, rngW = append(rng, s.cpuMs), append(rngW, s.ms)
			case s.cls == clsNN:
				nn, nnW = append(nn, s.cpuMs), append(nnW, s.ms)
			}
		}
		logf("samples: range misses %d, nn misses %d, focus %d", len(rng), len(nn), len(focus))
		logf("wall: %.1f ops/s, range p50 %.4g ms, nn p50 %.4g ms, focus p50 %.4g ms, p95 %.4g ms; loop used %.2f CPU-s in %.2f s",
			done/loop.wall.Seconds(), median(rngW), median(nnW), median(focusW), percentile(focusW, 0.95), loop.cpu.Seconds(), loop.wall.Seconds())
		res.Metrics["setup_s"] = metric{median(su.setupS), "s"}
		res.Metrics["ops_per_cpu_s"] = metric{done / loop.cpu.Seconds(), "ops/cpu-s"}
		res.Metrics["range_cpu_p50_ms"] = metric{median(rng), "ms"}
		res.Metrics["nn_cpu_p50_ms"] = metric{median(nn), "ms"}
		res.Metrics["focus_cpu_p50_ms"] = metric{median(focus), "ms"}
		res.Metrics["focus_cpu_p95_ms"] = metric{percentile(focus, 0.95), "ms"}
		res.Metrics["heap_mb"] = metric{su.heapMiB, "MiB"}
		res.Metrics["allocs_per_op"] = metric{float64(loop.mallocs) / done, "allocs/op"}
		if n := len(focus); n < 200 {
			logf("warning: %d focus samples leave fewer than 10 beyond p95", n)
		}
		return res, nil
	}

	m, err := tracedPass(w, in, seed, loop.wall)
	if err != nil {
		return nil, err
	}
	hits, misses := st1.CacheHits-st0.CacheHits, st1.CacheMisses-st0.CacheMisses
	m["tsq.cache_hit_ratio"] = metric{ratio(float64(hits), float64(hits+misses)), "ratio"}
	m["tsq.evictions_per_write"] = metric{ratio(ev1-ev0, float64(st1.Appends-st0.Appends)), "evictions/write"}
	ph, pm := pool1.Hits-pool0.Hits, pool1.Misses-pool0.Misses
	m["pagefile.pool_hit_ratio"] = metric{ratio(float64(ph), float64(ph+pm)), "ratio"}
	m["pagefile.pool_misses_per_op"] = metric{float64(pm) / done, "misses/op"}
	m["persist.load_s"] = metric{median(su.loadS), "s"}
	values := float64(series * length)
	m["persist.snapshot_bytes_per_value"] = metric{float64(fi.Size()) / values, "B/value"}
	m["pagefile.backing_bytes_per_value"] = metric{float64(w.backingBytes()) / values, "B/value"}
	m["runtime.alloc_bytes_per_op"] = metric{float64(loop.allocB) / done, "B/op"}
	m["runtime.gc_per_kop"] = metric{float64(loop.gcs) * 1000 / done, "GC/kop"}
	logf("timed loop: cache hits %d misses %d; pool hits %d misses %d (%d frames); GOMAXPROCS %d, %s",
		hits, misses, ph, pm, pool1.Capacity, runtime.GOMAXPROCS(0), runtime.Version())
	res.Metrics = m
	return res, nil
}

// evictions reads the selective and purge cache evictions from /metrics.
func evictions(in *instance) float64 {
	text, err := in.client.Metrics()
	if err != nil {
		logf("GET /metrics: %v", err)
		return 0
	}
	samples, err := telemetry.ParseText(strings.NewReader(text))
	if err != nil {
		logf("parsing /metrics: %v", err)
		return 0
	}
	return samples[telemetry.Key("tsq_cache_evictions_total", "reason", "selective")] +
		samples[telemetry.Key("tsq_cache_evictions_total", "reason", "purge")]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile interpolates linearly between the order statistics.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
