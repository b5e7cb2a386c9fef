package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// steadyMain runs one workload several times, each run with its own seed,
// and prints every metric's median, quartiles and relative spread — the
// figures a bound must sit above. With -alt it alternates two checkouts
// (two builds) run by run and compares their medians; without it, it
// compares the medians of the first and second half of the runs, which
// shows drift of the machine between two sets of runs.
func steadyMain(args []string) int {
	fs := flag.NewFlagSet("tsqperf steady", flag.ExitOnError)
	name := fs.String("workload", "", "workload to run")
	runs := fs.Int("runs", 10, "number of runs")
	seconds := fs.Int("seconds", 20, "timed loop length of each run")
	firstSeed := fs.Int("seed", 1, "seed of the first run; run i uses seed+i")
	trace := fs.Int("trace", 0, "passed through to each run")
	alt := fs.String("alt", "", "root of a second checkout to alternate with this one")
	fs.Parse(args)
	if *name == "" {
		fmt.Fprintln(os.Stderr, "tsqperf steady: -workload is required")
		return 2
	}
	roots := []string{"."}
	if *alt != "" {
		roots = append(roots, *alt)
	}
	type run struct {
		group int
		res   result
	}
	var done []run
	for i := 0; i < *runs; i++ {
		g := i % len(roots)
		if len(roots) == 1 && i >= (*runs+1)/2 {
			g = 1
		}
		root := roots[i%len(roots)]
		seed := *firstSeed + i
		cmd := exec.Command("bash", filepath.Join("tsqperf", "run.sh"),
			"--workload", *name, "--seed", strconv.Itoa(seed),
			"--seconds", strconv.Itoa(*seconds), "--trace", strconv.Itoa(*trace))
		cmd.Dir = root
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "tsqperf steady: run %d (%s, seed %d): %v\n", i, root, seed, err)
			return 1
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			fmt.Fprintf(os.Stderr, "tsqperf steady: run %d: bad result line: %v\n", i, err)
			return 1
		}
		fmt.Printf("run %d %s seed %d: %s\n", i, root, seed, lines[len(lines)-1])
		done = append(done, run{g, res})
	}
	names := map[string]string{}
	for _, r := range done {
		for k, m := range r.res.Metrics {
			names[k] = m.Unit
		}
	}
	keys := make([]string, 0, len(names))
	for k := range names {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	label := "half2/half1"
	if len(roots) == 2 {
		label = "alt/this"
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "%-34s %-16s %12s %12s %12s %8s %10s\n", "metric", "unit", "q1", "median", "q3", "iqr/med", label)
	for _, k := range keys {
		var all []float64
		var grp [2][]float64
		for _, r := range done {
			if m, ok := r.res.Metrics[k]; ok {
				all = append(all, m.Value)
				grp[r.group] = append(grp[r.group], m.Value)
			}
		}
		q1, med, q3 := quartiles(all)
		rel := (median(grp[1]) - median(grp[0])) / median(grp[0])
		fmt.Fprintf(&b, "%-34s %-16s %12.5g %12.5g %12.5g %8.4f %+10.4f\n", k, names[k], q1, med, q3, (q3-q1)/med, rel)
	}
	os.Stdout.Write(b.Bytes())
	return 0
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(values, n=4) computes them (the
// "exclusive" method).
func quartiles(xs []float64) (float64, float64, float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	q := func(j int) float64 {
		// Position j*(n+1)/4 in 1-based order statistics.
		num := j * (n + 1)
		i := num / 4
		frac := float64(num%4) / 4
		if i < 1 {
			return s[0]
		}
		if i >= n {
			return s[n-1]
		}
		return s[i-1] + frac*(s[i]-s[i-1])
	}
	return q(1), q(2), q(3)
}
