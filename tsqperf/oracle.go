package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// The oracle answers the benchmark's statements by brute force, in code
// written apart from the program: its own normal form, circular moving
// average, reversal and Euclidean distance over the raw values. It never
// calls into the engine, so an engine fault cannot hide in both answers.

// tol is the distance tolerance of every comparison. The program and the
// oracle agree to about 1e-14; a series whose distance lies within tol
// of a threshold may be reported either way.
const tol = 1e-9

// normalForm returns (s - mean) / std with the population standard
// deviation; a constant series maps to all zeros.
func normalForm(s []float64) []float64 {
	n := float64(len(s))
	var sum float64
	for _, v := range s {
		sum += v
	}
	mean := sum / n
	var ss float64
	for _, v := range s {
		ss += (v - mean) * (v - mean)
	}
	out := make([]float64, len(s))
	sd := math.Sqrt(ss / n)
	if sd == 0 {
		return out
	}
	for i, v := range s {
		out[i] = (v - mean) / sd
	}
	return out
}

// movingAverage is the l-day circular moving average: out[i] is the mean
// of s[i], s[i-1], ..., s[i-l+1] with indices taken modulo len(s).
func movingAverage(s []float64, l int) []float64 {
	n := len(s)
	out := make([]float64, n)
	for i := range out {
		var sum float64
		for j := 0; j < l; j++ {
			sum += s[((i-j)%n+n)%n]
		}
		out[i] = sum / float64(l)
	}
	return out
}

// negate is the reversal transformation: opposite movement.
func negate(s []float64) []float64 {
	out := make([]float64, len(s))
	for i, v := range s {
		out[i] = -v
	}
	return out
}

func euclid(a, b []float64) float64 {
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// shape is a statement's transformation: identity or mavg(20), on the
// stored side only or on both sides.
type shape struct {
	mavg bool
	both bool
}

func (sh shape) clause() string {
	switch {
	case sh.mavg && sh.both:
		return " TRANSFORM mavg(20) BOTH"
	case sh.mavg:
		return " TRANSFORM mavg(20)"
	}
	return ""
}

// oracleStore holds the raw values of every series and, built on first
// use, their normal forms and 20-day moving averages — the only two forms
// the benchmark's statements compare. release drops the forms, so the
// benchmark's own heap stays small while the server is measured (the
// client and the server share one process and one garbage collector).
type oracleStore struct {
	names []string
	index map[string]int
	raw   [][]float64
	nf    [][]float64
	mv    [][]float64
}

// newOracle adopts values without copying; the caller must not change
// them.
func newOracle(names []string, values [][]float64) *oracleStore {
	o := &oracleStore{names: names, index: make(map[string]int, len(names)), raw: values}
	for i, name := range names {
		o.index[name] = i
	}
	return o
}

func (o *oracleStore) forms() {
	if o.nf != nil {
		return
	}
	o.nf = make([][]float64, len(o.raw))
	o.mv = make([][]float64, len(o.raw))
	for i := range o.raw {
		o.derive(i)
	}
}

func (o *oracleStore) derive(i int) {
	o.nf[i] = normalForm(o.raw[i])
	o.mv[i] = movingAverage(o.nf[i], 20)
}

func (o *oracleStore) release() { o.nf, o.mv = nil, nil }

// appendPoints slides series i's window forward, the way an append does.
func (o *oracleStore) appendPoints(i int, pts []float64) {
	w := make([]float64, 0, len(o.raw[i]))
	w = append(w, o.raw[i][len(pts):]...)
	w = append(w, pts...)
	o.raw[i] = w
	if o.nf != nil {
		o.derive(i)
	}
}

// query returns the query-side form of q under sh, and the stored-side
// forms the statement compares it against.
func (o *oracleStore) sides(q []float64, sh shape) ([]float64, [][]float64) {
	o.forms()
	qn := normalForm(q)
	if sh.both {
		qn = movingAverage(qn, 20)
	}
	if sh.mavg {
		return qn, o.mv
	}
	return qn, o.nf
}

type answer struct {
	name string
	dist float64
}

// distances returns every stored series' distance to the query.
func (o *oracleStore) distances(q []float64, sh shape) []answer {
	qf, stored := o.sides(q, sh)
	out := make([]answer, len(stored))
	for i, s := range stored {
		out[i] = answer{o.names[i], euclid(s, qf)}
	}
	return out
}

// checkRange compares a range answer against the brute-force distances:
// every reported series lies within eps at the oracle's distance, and
// every series clearly within eps is reported.
func checkRange(all []answer, eps float64, got []answer) error {
	byName := make(map[string]float64, len(got))
	for _, g := range got {
		byName[g.name] = g.dist
	}
	if len(byName) != len(got) {
		return fmt.Errorf("range answer repeats a series")
	}
	for _, a := range all {
		d, ok := byName[a.name]
		switch {
		case ok && a.dist > eps+tol:
			return fmt.Errorf("range reported %s at %.6g, oracle distance %.12g > eps %g", a.name, d, a.dist, eps)
		case ok && math.Abs(d-a.dist) > tol:
			return fmt.Errorf("range distance of %s is %.15g, oracle %.15g", a.name, d, a.dist)
		case !ok && a.dist <= eps-tol:
			return fmt.Errorf("range missed %s at oracle distance %.12g <= eps %g", a.name, a.dist, eps)
		}
		delete(byName, a.name)
	}
	if len(byName) > 0 {
		return fmt.Errorf("range reported %d unknown series", len(byName))
	}
	return nil
}

// checkNN compares a k-NN answer with the k smallest oracle distances,
// ties broken by name: the i-th distances must agree, and every reported
// name must be one whose distance ties the oracle's i-th.
func checkNN(all []answer, k int, got []answer) error {
	sorted := append([]answer(nil), all...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].dist != sorted[j].dist {
			return sorted[i].dist < sorted[j].dist
		}
		return sorted[i].name < sorted[j].name
	})
	if k > len(sorted) {
		k = len(sorted)
	}
	if len(got) != k {
		return fmt.Errorf("nn returned %d answers, want %d", len(got), k)
	}
	dist := make(map[string]float64, len(all))
	for _, a := range all {
		dist[a.name] = a.dist
	}
	for i, g := range got {
		want := sorted[i]
		if math.Abs(g.dist-want.dist) > tol {
			return fmt.Errorf("nn %d-th distance %.15g, oracle %.15g (%s)", i+1, g.dist, want.dist, want.name)
		}
		if g.name != want.name {
			if d, ok := dist[g.name]; !ok || math.Abs(d-want.dist) > tol {
				return fmt.Errorf("nn %d-th answer %s, oracle %s", i+1, g.name, want.name)
			}
		}
	}
	return nil
}

// pairForms are the per-series forms a join compares: left(x) against
// right(y).
type pairForms struct {
	names       []string
	left, right [][]float64
}

// joinCandidates returns every pair of a join under cutoff, once: for a
// self join the unordered pairs i < j of one form; for a two-sided join
// the ordered pairs (i, j), i != j, of left against right.
type joinPair struct {
	a, b string
	dist float64
}

func joinCandidates(f pairForms, twoSided bool, cutoff float64) []joinPair {
	var out []joinPair
	for i := range f.left {
		j0 := i + 1
		if twoSided {
			j0 = 0
		}
		for j := j0; j < len(f.right); j++ {
			if twoSided && i == j {
				continue
			}
			if d, ok := within(f.left[i], f.right[j], cutoff); ok {
				out = append(out, joinPair{f.names[i], f.names[j], d})
			}
		}
	}
	return out
}

// within is the Euclidean distance with early abandoning past cutoff.
func within(a, b []float64, cutoff float64) (float64, bool) {
	lim := cutoff * cutoff
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
		if sum > lim {
			return 0, false
		}
	}
	return math.Sqrt(sum), true
}

// pairKey identifies a pair: ordered for two-sided joins, by sorted names
// for self joins (the program reports each unordered pair once, in its
// own ID order).
func pairKey(a, b string, ordered bool) string {
	if !ordered && b < a {
		a, b = b, a
	}
	return a + "\x00" + b
}

// checkJoin compares a join's complete pair set with the oracle's
// candidates (computed at a cutoff above every eps the workload uses).
func checkJoin(cands []joinPair, eps float64, ordered bool, got []joinPair) error {
	byKey := make(map[string]float64, len(got))
	for _, g := range got {
		byKey[pairKey(g.a, g.b, ordered)] = g.dist
	}
	if len(byKey) != len(got) {
		return fmt.Errorf("join repeats a pair")
	}
	for _, c := range cands {
		k := pairKey(c.a, c.b, ordered)
		d, ok := byKey[k]
		switch {
		case ok && c.dist > eps+tol:
			return fmt.Errorf("join reported (%s,%s) at oracle distance %.12g > eps %g", c.a, c.b, c.dist, eps)
		case ok && math.Abs(d-c.dist) > tol:
			return fmt.Errorf("join distance of (%s,%s) is %.15g, oracle %.15g", c.a, c.b, d, c.dist)
		case !ok && c.dist <= eps-tol:
			return fmt.Errorf("join missed (%s,%s) at oracle distance %.12g", c.a, c.b, c.dist)
		}
		delete(byKey, k)
	}
	if len(byKey) > 0 {
		var some []string
		for k := range byKey {
			some = append(some, strings.ReplaceAll(k, "\x00", ","))
			break
		}
		return fmt.Errorf("join reported %d pairs beyond the oracle's cutoff, e.g. %v", len(byKey), some)
	}
	return nil
}
