package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	tsq "repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/server"
	"repro/internal/transform"
)

// Workload sizes. The README records why each was chosen.
const (
	walkCount  = 20000 // resident store: random walks
	walkShards = 4
	length     = 128

	ensembleCount = 1067 // disk store: the paper's Table 1 relation size
	poolShare     = 0.10 // buffer-pool frames per relation page

	hotSet    = 64  // cached-reads: hot statements, well inside the 256-entry cache
	freshPool = 512 // cached-reads: fresh statements, cycled
	roundSize = 512 // cached-reads: 448 hot + 64 fresh requests

	appendTargets = 256 // stream-ingest: nearest series of the watched query, a third of the appends land on them
	appendPoints  = 4
	rangeMonitors = 16 // identity range monitors, one of them watched
	nnMonitors    = 2  // identity NN monitors
	nnMonitorK    = 5
	nnMonitorWork = 5000 // candidates each NN monitor's search verifies
	monitorEps    = 6.0
	repeatReads   = 16  // stream-ingest: by-name reads that recur
	streamPool    = 384 // stream-ingest: fresh by-name reads, cycled
)

// workload is one traffic mix over one store.
type workload interface {
	// prepare generates the seeded inputs, writes the snapshot and builds
	// the oracle.
	prepare() error
	// storeOpts gives cold start i its load options.
	storeOpts(i int) (storeOpts, func(), error)
	// attach registers what the workload needs beside the store
	// (monitors, the watch stream) on the kept instance.
	attach(in *instance) error
	// nextRound returns the next round of the seeded op sequence.
	nextRound() []op
	// warmup is how long whole rounds run before timing starts: long
	// enough for the adaptive parts (planner feedback, the spectrum
	// refresh cadence, the caches) to settle.
	warmup() time.Duration
	// focus reports whether a completed request is the workload's
	// defining operation.
	focus(s sample) bool
	// verify checks the kept answers and the end state; it returns the
	// number of failed operations and a description of the first failure.
	verify(in *instance, log []op, checks []checked) (int, string)
	// detach releases what attach started.
	detach()
	// traceSample returns n fresh by-name range and n NN statements for
	// the traced pass; traceJoins the join statements it replays.
	traceSample(n int) []op
	traceJoins() []op
	// store reports the store's size and snapshot path; backingBytes the
	// size of the kept instance's page files (0 for resident stores).
	store() (series int, snapPath string)
	backingBytes() int64
}

func newWorkload(name string, seed int64, dir string) (workload, error) {
	switch name {
	case "cached-reads":
		return &cachedReads{base: base{seed: seed, dir: dir}}, nil
	case "stream-ingest":
		return &streamIngest{base: base{seed: seed, dir: dir}}, nil
	case "disk-analytics":
		return &diskAnalytics{base: base{seed: seed, dir: dir}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want cached-reads, stream-ingest or disk-analytics)", name)
}

// base is the state every workload shares.
type base struct {
	seed  int64
	dir   string
	snap  string
	names []string
	or    *oracleStore
	rng   *rand.Rand
}

func (b *base) store() (int, string) { return len(b.names), b.snap }

func (b *base) storeOpts(int) (storeOpts, func(), error) { return storeOpts{}, func() {}, nil }

func (b *base) backingBytes() int64 { return 0 }

func (b *base) attach(*instance) error { return nil }

func (b *base) detach() {}

// traceJoins probes the join layer of a resident 20,000-series store with
// one selective self join: a join there takes seconds, so the traced pass
// replays one rather than a sample.
func (b *base) traceJoins() []op {
	return []op{{kind: opStmt, cls: clsJoin, eps: 0.2, stmt: "SELFJOIN EPS 0.2 TRANSFORM mavg(20)"}}
}

// writeSnapshot builds a store from the batch the way tsqd builds one from
// CSV data and writes its TSQ3 snapshot. inspect, when set, sees the
// built store first.
func (b *base) writeSnapshot(batch []tsq.NamedSeries, shards int, inspect func(*tsq.DB) error) error {
	db, err := tsq.Open(tsq.Options{Length: length, Shards: shards})
	if err != nil {
		return err
	}
	defer db.Close()
	if err := db.InsertBulk(batch); err != nil {
		return err
	}
	if inspect != nil {
		if err := inspect(db); err != nil {
			return err
		}
	}
	b.snap = filepath.Join(b.dir, "store.tsq")
	f, err := os.Create(b.snap)
	if err != nil {
		return err
	}
	if _, err := db.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// setData adopts the generated batch as the oracle's raw values.
func (b *base) setData(batch []tsq.NamedSeries) {
	b.names = make([]string, len(batch))
	values := make([][]float64, len(batch))
	for i, s := range batch {
		b.names[i] = s.Name
		values[i] = s.Values
	}
	b.or = newOracle(b.names, values)
}

func nnStmt(name string, k int, sh shape) string {
	return fmt.Sprintf("NN SERIES '%s' K %d%s", name, k, sh.clause())
}

var (
	smoothBoth = shape{mavg: true, both: true}
	identity   = shape{}
)

// readAnswers is the answer size of every by-name read on the resident
// workloads: NN reads ask for it, range reads get an eps halfway between
// the oracle's readAnswers-th and next distance. Range answer sizes over
// random walks are heavy-tailed (1 to 780 series at one fixed eps), and
// encoding and decoding an answer is most of a cache hit's cost and a good
// part of a miss's; equal sizes keep both, and allocations per request,
// the same from seed to seed.
const readAnswers = 20

// read builds a by-name read of series i and returns it with the oracle's
// nearest series under its transformation — all a check needs: a series
// reported beyond them is reported as unknown, i.e. wrong.
func (b *base) read(i int, cls class, sh shape) (op, []answer) {
	all := b.or.distances(b.or.raw[i], sh)
	name := b.names[i]
	o := op{kind: opStmt, cls: cls, name: name, sh: sh}
	if cls == clsRange {
		o.eps, _ = strconv.ParseFloat(fmt.Sprintf("%.9f", epsFor(all, readAnswers)), 64)
		o.stmt = fmt.Sprintf("RANGE SERIES '%s' EPS %.9f%s", name, o.eps, sh.clause())
	} else {
		o.k = readAnswers
		o.stmt = nnStmt(name, o.k, sh)
	}
	return o, nearest(all, readAnswers+16)
}

func epsFor(all []answer, n int) float64 {
	d := make([]float64, len(all))
	for i, a := range all {
		d[i] = a.dist
	}
	sort.Float64s(d)
	return (d[n-1] + d[n]) / 2
}

func nearest(all []answer, n int) []answer {
	s := append([]answer(nil), all...)
	sort.Slice(s, func(i, j int) bool { return s[i].dist < s[j].dist })
	return s[:n]
}

// checkAnswer verifies one range or NN answer against the oracle store's
// current state.
func (o *oracleStore) checkAnswer(x *op, got reply) error {
	q := o.raw[o.index[x.name]]
	all := o.distances(q, x.sh)
	if x.cls == clsRange {
		return checkRange(all, x.eps, got.matches)
	}
	return checkNN(all, x.k, got.matches)
}

// ---------------------------------------------------------------------
// cached-reads: a resident 4-shard store; seven of every eight requests
// repeat one of 64 hot statements, the eighth is a fresh one.

type cachedReads struct {
	base
	hot   []op
	perm  []int
	round int
	fresh int
	pool  []op
	want  map[string][]answer // oracle's nearest series of every statement
}

func (w *cachedReads) prepare() error {
	batch := tsq.RandomWalks(walkCount, length, w.seed)
	w.setData(batch)
	if err := w.writeSnapshot(batch, walkShards, nil); err != nil {
		return err
	}
	w.rng = rand.New(rand.NewSource(w.seed*7919 + 1))
	w.perm = w.rng.Perm(walkCount)
	w.want = make(map[string][]answer)
	// Hot statements: RANGE and NN alternately, half under mavg(20) BOTH
	// and half untransformed. Fresh statements: a pool of freshPool reads
	// under mavg(20) BOTH, cycled; between two uses of one, freshPool-1
	// others enter the 256-entry cache, so it has always been evicted.
	for i := 0; i < hotSet+freshPool; i++ {
		cls, sh := clsRange, smoothBoth
		if i%2 == 1 {
			cls = clsNN
		}
		if i < hotSet && i%4 >= 2 {
			sh = identity
		}
		o, want := w.read(w.perm[i], cls, sh)
		w.want[o.stmt] = want
		if i < hotSet {
			w.hot = append(w.hot, o)
		} else {
			w.pool = append(w.pool, o)
		}
	}
	w.or.release()
	return nil
}

func (w *cachedReads) warmup() time.Duration { return 2 * time.Second }

func (w *cachedReads) focus(s sample) bool { return s.cached }

// nextRound interleaves every hot statement exactly seven times (seeded
// order) with one fresh statement at every eighth position. Between two
// uses of a hot statement fewer than 192 fresh entries enter the cache,
// so hot statements always hit and fresh ones always miss.
func (w *cachedReads) nextRound() []op {
	r := rand.New(rand.NewSource(w.seed*104729 + int64(w.round)))
	w.round++
	hot := make([]int, 0, hotSet*7)
	for i := 0; i < 7; i++ {
		for j := 0; j < hotSet; j++ {
			hot = append(hot, j)
		}
	}
	r.Shuffle(len(hot), func(i, j int) { hot[i], hot[j] = hot[j], hot[i] })
	out := make([]op, 0, roundSize)
	next := 0
	for p := 0; p < roundSize; p++ {
		if p%8 == 7 {
			out = append(out, w.freshOp())
			continue
		}
		o := w.hot[hot[next]]
		next++
		o.check = p%16 == 0
		out = append(out, o)
	}
	return out
}

// freshOp returns the next statement of the fresh pool.
func (w *cachedReads) freshOp() op {
	o := w.pool[w.fresh%len(w.pool)]
	w.fresh++
	o.check = true
	return o
}

func (w *cachedReads) verify(_ *instance, log []op, checks []checked) (int, string) {
	failed, first := 0, ""
	for _, c := range checks {
		o := &log[c.idx]
		var err error
		if o.cls == clsRange {
			err = checkRange(w.want[o.stmt], o.eps, c.got.matches)
		} else {
			err = checkNN(w.want[o.stmt], o.k, c.got.matches)
		}
		if err != nil {
			failed++
			if first == "" {
				first = o.stmt + ": " + err.Error()
			}
		}
	}
	return failed, first
}

// traceSample returns reads of the fresh kind on series no statement of
// the run names, so every one misses.
func (w *cachedReads) traceSample(n int) []op {
	var out []op
	for i := 0; i < 2*n; i++ {
		cls := clsRange
		if i%2 == 1 {
			cls = clsNN
		}
		o, _ := w.read(w.perm[hotSet+freshPool+i], cls, smoothBoth)
		out = append(out, o)
	}
	return out
}

// ---------------------------------------------------------------------
// stream-ingest: the same kind of store under standing monitors and one
// /watch stream; three of every four requests append a few points.

type streamIngest struct {
	base
	targets   []int       // indices of the series appends land on
	windows   [][]float64 // the benchmark's own replay of every window
	initial   [][]float64 // windows at registration, for the oracle replay
	repeat    []op
	pool      []op
	perm      []int
	nnQueries []string
	// rangeQueries are the range monitors' query series, the watched
	// one first.
	rangeQueries []string
	fresh        int
	reads        int
	watched      struct {
		name    string
		query   []float64
		id      int64
		members map[string]bool
		seq     int64
		gap     bool
	}
	ws      *server.WatchStream
	drained chan struct{}
}

func (w *streamIngest) prepare() error {
	batch := tsq.RandomWalks(walkCount, length, w.seed)
	w.setData(batch)
	// Rows are replaced, never written, on append: the three views share
	// the generated values until a series is appended to.
	w.initial = w.or.raw
	w.windows = append([][]float64(nil), w.initial...)
	w.rng = rand.New(rand.NewSource(w.seed*7919 + 2))
	w.perm = w.rng.Perm(walkCount)
	var near []answer
	if err := w.writeSnapshot(batch, walkShards, func(db *tsq.DB) (err error) {
		c := newCoverage(db)
		if near, err = w.chooseRangeMonitors(c); err != nil {
			return err
		}
		return w.chooseNNMonitors(c)
	}); err != nil {
		return err
	}
	sort.Slice(near, func(i, j int) bool { return near[i].dist < near[j].dist })
	for _, a := range near[:appendTargets] {
		w.targets = append(w.targets, w.or.index[a.name])
	}
	// Reads name series outside the watched neighbourhood: a recurring
	// set, whose cached answers survive the appends or not by the cache's
	// tags, and a pool of fresh reads, cycled.
	isTarget := make(map[int]bool, len(w.targets))
	for _, i := range w.targets {
		isTarget[i] = true
	}
	for j := len(w.perm) - 1; len(w.repeat)+len(w.pool) < repeatReads+streamPool; j-- {
		if isTarget[w.perm[j]] {
			continue
		}
		cls, kind := clsRange, opRange
		if (len(w.repeat)+len(w.pool))%2 == 1 {
			cls, kind = clsNN, opNN
		}
		o, _ := w.read(w.perm[j], cls, smoothBoth)
		o.kind = kind
		if kind == opRange {
			// Left to the planner, these reads ran on the scan in some
			// processes and on the index in others (6 of 48 on the scan
			// in one traced process on a 2-vCPU VM), and range_cpu_p50_ms
			// read either 0.80–0.86 or 0.98–1.16 ms; forced, it measures
			// the index.
			o.using = "index"
		}
		if len(w.repeat) < repeatReads {
			w.repeat = append(w.repeat, o)
		} else {
			w.pool = append(w.pool, o)
		}
	}
	w.or.release()
	return nil
}

// coverage measures the share of a store whose feature points pass a
// monitor's Lemma 1 prefilter — the test the monitor hub runs on every
// append to decide whether a monitor must look at the appended series.
type coverage struct {
	eng    core.Engine
	points []geom.Point
}

func newCoverage(db *tsq.DB) *coverage {
	c := &coverage{eng: db.Engine()}
	for _, id := range c.eng.IDs() {
		if p, ok := c.eng.FeaturePoint(id); ok {
			c.points = append(c.points, p)
		}
	}
	return c
}

func (c *coverage) share(q []float64, eps float64) (float64, error) {
	pf, err := c.eng.PlanPrefilter(core.RangeQuery{Values: q, Transform: transform.CachedIdentity(length)})
	if err != nil {
		return 0, err
	}
	hit := 0
	for _, p := range c.points {
		if pf.Hit(p, eps) {
			hit++
		}
	}
	return float64(hit) / float64(len(c.points)), nil
}

// fullCover is the share of the store a monitor's prefilter must pass for
// the monitor to be chosen. Monitors whose rectangles cover the store look
// at every append, so the work an append does — one CheckOne per range
// monitor, one k-NN search per NN monitor — is the same on every seed;
// with rectangles that cover part of the store it depends on where the
// appends land, and allocations per append ranged 430–800 from seed to
// seed.
const fullCover = 0.97

// chooseRangeMonitors picks the range monitors' queries from the seeded
// order, among series whose rectangle at monitorEps covers the store: the
// watched one is the first with a neighbourhood worth watching (24 to 200
// series within monitorEps, whose distances it returns); appends land on
// its nearest series, so members enter and leave.
func (w *streamIngest) chooseRangeMonitors(c *coverage) ([]answer, error) {
	var near []answer
	for _, i := range w.perm {
		if len(w.rangeQueries) == rangeMonitors {
			return near, nil
		}
		if cov, err := c.share(w.or.raw[i], monitorEps); err != nil {
			return nil, err
		} else if cov < fullCover {
			continue
		}
		if near != nil {
			w.rangeQueries = append(w.rangeQueries, w.names[i])
			continue
		}
		all := w.or.distances(w.or.raw[i], identity)
		n := 0
		for _, a := range all {
			if a.dist <= monitorEps {
				n++
			}
		}
		if n >= 24 && n <= 200 {
			w.watched.name = w.names[i]
			w.watched.query = w.or.raw[i]
			w.rangeQueries = append([]string{w.names[i]}, w.rangeQueries...)
			near = all
		}
	}
	return nil, fmt.Errorf("found %d of %d range monitor queries (watched: %v)", len(w.rangeQueries), rangeMonitors, near != nil)
}

// chooseNNMonitors picks the NN monitors' queries. An NN monitor re-runs
// its k-NN search for every append whose feature point passes its
// rectangle at the current k-th distance, and the number of candidates
// that search verifies differs widely between otherwise alike queries
// (3,700 to 9,500). Among 60 seeded candidates whose rectangle covers the
// store, it takes the two whose search verifies closest to nnMonitorWork
// candidates, so the searches cost the same on every seed. The monitors
// evaluate with the index strategy, as NNIndexed does here; the count is
// a property of the store, not a timing.
func (w *streamIngest) chooseNNMonitors(c *coverage) error {
	type cand struct {
		i, work int
	}
	var ok []cand
	for _, i := range w.perm[len(w.perm)/2 : len(w.perm)/2+60] {
		all := w.or.distances(w.or.raw[i], identity)
		d := make([]float64, len(all))
		for j, a := range all {
			d[j] = a.dist
		}
		sort.Float64s(d)
		if cov, err := c.share(w.or.raw[i], d[nnMonitorK-1]); err != nil {
			return err
		} else if cov < fullCover {
			continue
		}
		_, st, err := c.eng.NNIndexed(core.NNQuery{Values: w.or.raw[i], K: nnMonitorK, Transform: transform.CachedIdentity(length)})
		if err != nil {
			return err
		}
		ok = append(ok, cand{i, st.Candidates})
	}
	if len(ok) < nnMonitors {
		return fmt.Errorf("only %d NN monitor queries among 60 candidates cover the store", len(ok))
	}
	off := func(c cand) int {
		if c.work > nnMonitorWork {
			return c.work - nnMonitorWork
		}
		return nnMonitorWork - c.work
	}
	sort.Slice(ok, func(a, b int) bool { return off(ok[a]) < off(ok[b]) })
	for _, c := range ok[:nnMonitors] {
		w.nnQueries = append(w.nnQueries, w.names[c.i])
		logf("nn monitor query %s verifies %d candidates (%d of 60 cover the store)", w.names[c.i], c.work, len(ok))
	}
	return nil
}

// attach registers the monitors — identity range monitors, which the
// hub indexes in its R-tree, and two NN monitors — and opens the /watch
// stream on the first range monitor, drained by a goroutine.
func (w *streamIngest) attach(in *instance) error {
	for i, name := range w.rangeQueries {
		resp, err := in.client.CreateMonitor(server.MonitorRequest{Kind: "range", Series: name, Eps: monitorEps})
		if err != nil {
			return fmt.Errorf("range monitor: %w", err)
		}
		if i == 0 {
			w.watched.id = resp.ID
		}
	}
	for _, q := range w.nnQueries {
		if _, err := in.client.CreateMonitor(server.MonitorRequest{Kind: "nn", Series: q, K: nnMonitorK}); err != nil {
			return fmt.Errorf("nn monitor: %w", err)
		}
	}
	ws, err := in.client.Watch(context.Background(), w.watched.id, -1)
	if err != nil {
		return fmt.Errorf("watch: %w", err)
	}
	w.ws = ws
	w.watched.seq = ws.Seq
	w.watched.members = make(map[string]bool)
	for _, m := range ws.Members {
		w.watched.members[m.Name] = true
	}
	w.drained = make(chan struct{})
	go func() {
		defer close(w.drained)
		for ev := range ws.Events {
			w.applyEvent(ev)
		}
	}()
	return nil
}

// applyEvent folds one watch event into the watched membership; the
// fields are read only after the drain goroutine has caught up (see
// waitEvents), under the channel handshake.
func (w *streamIngest) applyEvent(ev server.WatchEvent) {
	if ev.Seq != w.watched.seq+1 {
		w.watched.gap = true
	}
	w.watched.seq = ev.Seq
	switch ev.Kind {
	case "enter":
		w.watched.members[ev.Name] = true
	case "leave":
		delete(w.watched.members, ev.Name)
	}
}

func (w *streamIngest) detach() {
	if w.ws != nil {
		w.ws.Close()
		<-w.drained
		w.ws = nil
	}
}

// Append latency falls by about a third over the first ten seconds of
// appends, as the store adapts its spectrum refresh cadence to the mix.
func (w *streamIngest) warmup() time.Duration { return 8 * time.Second }

func (w *streamIngest) focus(s sample) bool { return s.cls == clsAppend }

// nextRound is 48 appends of four points (continuing each walk with
// steps in [-4, 4]) and 16 by-name reads: half from a recurring set of 16,
// half fresh. A third of the appends land on the watched query's nearest
// series, so its members enter and leave; the rest on any series. Each
// append runs every cached answer's invalidation predicate, and how many
// answers stay cached depends on where appends land: spread over the
// store, that is a store-wide average rather than a property of one
// neighbourhood, and allocations per request stay the same from seed to
// seed.
func (w *streamIngest) nextRound() []op {
	out := make([]op, 0, 64)
	for p := 0; p < 64; p++ {
		if p%4 != 3 {
			i := w.rng.Intn(walkCount)
			if p%4 == 0 {
				i = w.targets[w.rng.Intn(len(w.targets))]
			}
			out = append(out, w.appendOp(i))
			continue
		}
		j := w.reads
		w.reads++
		var o op
		if j%2 == 0 {
			o = w.repeat[w.rng.Intn(len(w.repeat))]
		} else {
			o = w.pool[w.fresh%len(w.pool)]
			w.fresh++
		}
		o.check = (j/4)%2 == 0
		out = append(out, o)
	}
	return out
}

func (w *streamIngest) appendOp(i int) op {
	win := w.windows[i]
	pts := make([]float64, appendPoints)
	last := win[len(win)-1]
	for j := range pts {
		last += -4 + 8*w.rng.Float64()
		pts[j] = last
	}
	next := make([]float64, 0, length)
	next = append(next, win[appendPoints:]...)
	w.windows[i] = append(next, pts...)
	return op{kind: opAppend, cls: clsAppend, name: w.names[i], pts: pts}
}

// verify replays the op log against the oracle: every checked read is
// compared with a brute-force answer over the store as it stood when the
// read was sent (the loop is closed, so every earlier append had been
// acknowledged). Then every appended window must equal the server's, and
// the watched membership must equal the oracle's final answer.
func (w *streamIngest) verify(in *instance, log []op, checks []checked) (int, string) {
	failed, first := 0, ""
	fail := func(msg string) {
		failed++
		if first == "" {
			first = msg
		}
	}
	or := newOracle(w.names, append([][]float64(nil), w.initial...))
	ci := 0
	for i := range log {
		o := &log[i]
		if o.kind == opAppend {
			or.appendPoints(or.index[o.name], o.pts)
			continue
		}
		for ci < len(checks) && checks[ci].idx == i {
			if err := or.checkAnswer(o, checks[ci].got); err != nil {
				fail(fmt.Sprintf("%s read of %s at op %d: %v", o.cls, o.name, i, err))
			}
			ci++
		}
	}
	touched := map[string]bool{}
	for i := range log {
		if log[i].kind == opAppend {
			touched[log[i].name] = true
		}
	}
	names := make([]string, 0, len(touched))
	for n := range touched {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		got, err := in.client.Series(n)
		if err != nil {
			fail(fmt.Sprintf("GET /series/%s: %v", n, err))
			continue
		}
		want := w.windows[w.or.index[n]]
		if !equalFloats(got, want) {
			fail(fmt.Sprintf("window of %s differs from the replay of its appends", n))
		}
		if !equalFloats(or.raw[or.index[n]], want) {
			fail(fmt.Sprintf("oracle replay of %s differs from the generated appends", n))
		}
	}
	if err := w.waitEvents(in); err != nil {
		fail(err.Error())
		return failed, first
	}
	all := or.distances(w.watched.query, identity)
	var got []answer
	for _, a := range all {
		if w.watched.members[a.name] {
			got = append(got, a)
		}
	}
	if len(got) != len(w.watched.members) {
		fail("watched membership names a series the store does not hold")
	}
	if err := checkRange(all, monitorEps, got); err != nil {
		fail("watched monitor membership (init snapshot + events): " + err.Error())
	}
	return failed, first
}

// waitEvents waits until the watch stream has delivered every event the
// monitor emitted: a second subscription reports the monitor's current
// sequence number.
func (w *streamIngest) waitEvents(in *instance) error {
	probe, err := in.client.Watch(context.Background(), w.watched.id, -1)
	if err != nil {
		return fmt.Errorf("watch probe: %w", err)
	}
	target := probe.Seq
	probe.Close()
	_ = probe.Err() // waits for the probe's reader; a closed probe reports no error
	w.ws.Close()
	<-w.drained
	if w.watched.gap {
		return fmt.Errorf("watch stream skipped events")
	}
	if w.watched.seq != target {
		return fmt.Errorf("watch stream ended at seq %d, monitor at %d", w.watched.seq, target)
	}
	w.ws = nil
	return nil
}

// traceSample returns by-name statements of the reads' kind on series
// the run never read, so every one misses.
func (w *streamIngest) traceSample(n int) []op {
	w.or.forms()
	var out []op
	for i := 0; i < 2*n; i++ {
		cls := clsRange
		if i%2 == 1 {
			cls = clsNN
		}
		o, _ := w.read(w.perm[i], cls, smoothBoth)
		out = append(out, o)
	}
	return out
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------
// disk-analytics: a single-shard disk-backed store of the paper's Table 1
// shape with planted pairs; joins, ranges and NN that all miss the cache.

type diskAnalytics struct {
	base
	ens        *dataset.StockEnsemble
	cachePages int
	backing    string // the page-file directory of the latest cold start
	used       map[string]bool
	selfCands  []joinPair // mavg(20) self join pairs under joinCutoff
	twoCands   []joinPair // mavg(20) against reverse()|mavg(20)
	n          int
}

// joinCutoff bounds the oracle's precomputed join candidates; every join
// eps the workload draws lies below it.
const joinCutoff = 2.0

func (w *diskAnalytics) prepare() error {
	ens, err := dataset.StockLike(ensembleCount, length, w.seed, 3, 9, 4)
	if err != nil {
		return err
	}
	w.ens = ens
	batch := make([]tsq.NamedSeries, len(ens.Series))
	for i, s := range ens.Series {
		batch[i] = tsq.NamedSeries{Name: s.Name, Values: s.Values}
	}
	w.setData(batch)
	if err := w.writeSnapshot(batch, 1, nil); err != nil {
		return err
	}
	pages, err := w.relationPages()
	if err != nil {
		return err
	}
	w.cachePages = int(poolShare*float64(pages) + 0.5)
	w.rng = rand.New(rand.NewSource(w.seed*7919 + 4))
	w.used = make(map[string]bool)
	w.or.forms()
	neg := make([][]float64, len(w.or.mv))
	for i, m := range w.or.mv {
		neg[i] = negate(m)
	}
	w.selfCands = joinCandidates(pairForms{w.names, w.or.mv, w.or.mv}, false, joinCutoff)
	w.twoCands = joinCandidates(pairForms{w.names, w.or.mv, neg}, true, joinCutoff)
	return nil
}

// relationPages loads the snapshot into a disk-backed store once and
// counts the pages of one relation file, to size the measured pool.
func (w *diskAnalytics) relationPages() (int, error) {
	dir := filepath.Join(w.dir, "probe")
	defer os.RemoveAll(dir)
	f, err := os.Open(w.snap)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	db, err := tsq.ReadFromOptions(f, tsq.Options{Backing: dir})
	if err != nil {
		return 0, err
	}
	defer db.Close()
	size, files := dirBytes(dir)
	if files == 0 {
		return 0, fmt.Errorf("disk store wrote no page files")
	}
	return int(size / int64(files) / 4096), nil
}

// dirBytes sums the sizes of the page files under dir.
func dirBytes(dir string) (int64, int) {
	var total int64
	files := 0
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
			files++
		}
		return nil
	})
	return total, files
}

func (w *diskAnalytics) storeOpts(i int) (storeOpts, func(), error) {
	dir := filepath.Join(w.dir, fmt.Sprintf("backing-%d", i))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return storeOpts{}, nil, err
	}
	w.backing = dir
	return storeOpts{backing: dir, cachePages: w.cachePages}, func() { os.RemoveAll(dir) }, nil
}

func (w *diskAnalytics) backingBytes() int64 {
	n, _ := dirBytes(w.backing)
	return n
}

func (w *diskAnalytics) warmup() time.Duration { return 3 * time.Second }

func (w *diskAnalytics) focus(s sample) bool { return s.cls == clsJoin }

// diskRound is one round of disk-analytics: a self join, a two-sided join
// and four range and four k-NN queries, which cost about a fiftieth of a
// join each and so get more samples for their medians.
var diskRound = []class{clsJoin, clsRange, clsNN, clsRange, clsNN, clsJoin, clsRange, clsNN, clsRange, clsNN}

// nextRound returns one diskRound. Every statement text is new, so every
// request misses the cache.
func (w *diskAnalytics) nextRound() []op {
	out := make([]op, 0, len(diskRound))
	for i, c := range diskRound {
		for {
			o := w.draw(c, i == 5)
			if !w.used[o.stmt] {
				w.used[o.stmt] = true
				o.check = true
				out = append(out, o)
				break
			}
		}
	}
	return out
}

func (w *diskAnalytics) draw(c class, two bool) op {
	name := w.names[w.rng.Intn(len(w.names))]
	switch {
	case c == clsJoin && !two:
		eps := 0.9 + 0.2*w.rng.Float64()
		return op{kind: opStmt, cls: clsJoin, eps: eps, stmt: fmt.Sprintf("SELFJOIN EPS %.6f TRANSFORM mavg(20)", eps)}
	case c == clsJoin:
		eps := 0.9 + 0.2*w.rng.Float64()
		return op{kind: opStmt, cls: clsJoin, eps: eps, two: true, stmt: fmt.Sprintf("JOIN EPS %.6f LEFT mavg(20) RIGHT reverse()|mavg(20)", eps)}
	case c == clsRange:
		eps := 5 + w.rng.Float64()
		return op{kind: opStmt, cls: clsRange, name: name, eps: eps, sh: smoothBoth, stmt: fmt.Sprintf("RANGE SERIES '%s' EPS %.6f%s", name, eps, smoothBoth.clause())}
	default:
		// USING INDEX: on this store the planner prices the scan and the
		// index for an identity NN within a hair of each other, and the
		// per-process calibration picks one or the other for every NN
		// of the process (on a 2-vCPU VM: index at ScanUnit 0.2504, scan
		// at 0.2508), so nn_cpu_p50_ms read 1.77 or 2.45 ms by the toss. Forced, it
		// measures the NN path through the buffer pool on every run.
		k := 3 + w.rng.Intn(8)
		return op{kind: opStmt, cls: clsNN, name: name, k: k, sh: identity, stmt: nnStmt(name, k, identity) + " USING INDEX"}
	}
}

// verify checks every answer: range and NN by brute force, joins against
// the complete oracle pair sets, and the planted pairs the generator
// guarantees — the raw and smooth pairs in every self join, the reversed
// pairs (both orders) in every two-sided join.
func (w *diskAnalytics) verify(_ *instance, log []op, checks []checked) (int, string) {
	failed, first := 0, ""
	for _, c := range checks {
		o := &log[c.idx]
		var err error
		switch o.cls {
		case clsJoin:
			cands := w.selfCands
			planted := w.ens.AllMavgPairs()
			if o.two {
				cands = w.twoCands
				planted = nil
				for _, p := range w.ens.ReversedPairs {
					planted = append(planted, p, dataset.Pair{A: p.B, B: p.A})
				}
			}
			err = checkJoin(cands, o.eps, o.two, c.got.pairs)
			if err == nil {
				err = w.checkPlanted(planted, o.two, c.got.pairs)
			}
		default:
			err = w.or.checkAnswer(o, c.got)
		}
		if err != nil {
			failed++
			if first == "" {
				first = o.stmt + ": " + err.Error()
			}
		}
	}
	return failed, first
}

func (w *diskAnalytics) checkPlanted(planted []dataset.Pair, ordered bool, got []joinPair) error {
	have := make(map[string]bool, len(got))
	for _, g := range got {
		have[pairKey(g.a, g.b, ordered)] = true
	}
	for _, p := range planted {
		a, b := w.names[p.A], w.names[p.B]
		if !have[pairKey(a, b, ordered)] {
			return fmt.Errorf("planted pair (%s,%s) not found", a, b)
		}
	}
	return nil
}

func (w *diskAnalytics) traceJoins() []op {
	var out []op
	for len(out) < 16 {
		for _, o := range w.nextRound() {
			if o.cls == clsJoin {
				out = append(out, o)
			}
		}
	}
	return out
}

func (w *diskAnalytics) traceSample(n int) []op {
	var out []op
	for len(out) < 2*n {
		for _, o := range w.nextRound() {
			if o.cls != clsJoin {
				o.check = false
				out = append(out, o)
			}
		}
	}
	return out
}
