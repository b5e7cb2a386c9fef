package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/transform"
)

// The traced pass replays fresh seeded statements of the workload through
// each layer's public entry point, outermost first, and times each call
// from outside:
//
//	server.Client (HTTP) → tsq.Server.Query → tsq.DB.Query → query.Parse
//	→ Engine.PlanRange/PlanNN/PlanJoin → Engine.ExecRangeInto/ExecNNInto/ExecJoin
//	server.Client.Append → tsq.Server.Append → Engine.Append
//
// A layer's self time is the median, over the replayed statements, of its
// call's time minus the time of the call it wraps for the same statement
// at the same cache state. It runs after the end-to-end loop, so tracing
// never touches the end-to-end numbers.

// tracePerKind is the number of fresh range and NN statements (each) and
// of appends the traced pass replays.
const tracePerKind = 48

type tracer struct {
	in   *instance
	eng  core.Engine
	n    int
	cnt  *countingTransport
	hc   *server.Client
	dur  map[string][]float64 // microseconds per timed call
	tot  map[string]*execTotals
	mix  map[string]int // strategy mix, by kind and strategy
	cerr []float64      // |actual - est| / max(est, 1) candidates
}

type execTotals struct {
	ops                          int
	nodes, cands, results, pages int64
	terms                        int64
}

// countingTransport counts response body bytes.
type countingTransport struct {
	base  http.RoundTripper
	bytes atomic.Int64
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := c.base.RoundTrip(r)
	if err == nil {
		resp.Body = &countingBody{resp.Body, c}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	c *countingTransport
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.c.bytes.Add(int64(n))
	return n, err
}

func (t *tracer) time(key string, f func() error) error {
	t0 := time.Now()
	err := f()
	t.dur[key] = append(t.dur[key], float64(time.Since(t0))/float64(time.Microsecond))
	return err
}

// self records, under key, the last timing of outer minus the last of
// inner: one paired sample of a layer's self time.
func (t *tracer) self(key, outer, inner string) {
	o, i := t.dur[outer], t.dur[inner]
	t.dur[key] = append(t.dur[key], o[len(o)-1]-i[len(i)-1])
}

func (t *tracer) observe(kind string, pl *plan.Plan, st core.ExecStats) {
	tt := t.tot[kind]
	if tt == nil {
		tt = &execTotals{}
		t.tot[kind] = tt
	}
	tt.ops++
	tt.nodes += int64(st.NodeAccesses)
	tt.cands += int64(st.Candidates)
	tt.results += int64(st.Results)
	tt.pages += st.PageReads
	tt.terms += st.DistanceTerms
	t.mix[kind+"/"+pl.Strategy.String()]++
	est := pl.Est.Candidates
	t.cerr = append(t.cerr, math.Abs(float64(st.Candidates)-est)/math.Max(est, 1))
}

func (t *tracer) transformOf(sh shape) transform.T {
	if sh.mavg {
		return transform.MovingAverage(t.n, 20)
	}
	return transform.CachedIdentity(t.n)
}

// statement replays one fresh by-name RANGE or NN statement through every
// layer. The DB and Server misses alternate order between samples so
// that neither always runs on caches the other warmed.
func (t *tracer) statement(i int, o *op) error {
	db := t.in.db
	srv := t.in.srv
	dbQuery := func() error { _, err := db.Query(o.stmt); return err }
	srvQuery := func() error { _, err := srv.Query(o.stmt); return err }
	if i%2 == 0 {
		if err := t.time("db", dbQuery); err != nil {
			return err
		}
		if err := t.time("server_miss", srvQuery); err != nil {
			return err
		}
	} else {
		if err := t.time("server_miss", srvQuery); err != nil {
			return err
		}
		if err := t.time("db", dbQuery); err != nil {
			return err
		}
	}
	t.self("self/server_miss", "server_miss", "db")
	// query.Parse takes microseconds: time a batch.
	const batch = 16
	t0 := time.Now()
	for j := 0; j < batch; j++ {
		if _, err := query.Parse(o.stmt); err != nil {
			return err
		}
	}
	t.dur["parse"] = append(t.dur["parse"], float64(time.Since(t0))/float64(time.Microsecond)/batch)

	id, ok := t.eng.IDByName(o.name)
	if !ok {
		return fmt.Errorf("unknown series %s", o.name)
	}
	values, err := t.eng.Series(id)
	if err != nil {
		return err
	}
	prep, _ := t.eng.QueryPrep(id)
	tr := t.transformOf(o.sh)
	var dst []core.Result
	if o.cls == clsRange {
		rq := core.RangeQuery{Values: values, Eps: o.eps, Transform: tr, BothSides: o.sh.both, Prep: prep}
		var pl *plan.Plan
		if err := t.time("plan/range", func() (err error) { pl, err = t.eng.PlanRange(rq, plan.Auto); return }); err != nil {
			return err
		}
		var st core.ExecStats
		if err := t.time("exec/range", func() (err error) { dst, st, err = t.eng.ExecRangeInto(rq, pl, dst[:0]); return }); err != nil {
			return err
		}
		t.observe("range", pl, st)
	} else {
		nq := core.NNQuery{Values: values, K: o.k, Transform: tr, BothSides: o.sh.both, Prep: prep}
		var pl *plan.Plan
		if err := t.time("plan/nn", func() (err error) { pl, err = t.eng.PlanNN(nq, plan.Auto); return }); err != nil {
			return err
		}
		var st core.ExecStats
		if err := t.time("exec/nn", func() (err error) { dst, st, err = t.eng.ExecNNInto(nq, pl, dst[:0]); return }); err != nil {
			return err
		}
		t.observe("nn", pl, st)
	}
	// The statement is cached now: the same statement at the hit state,
	// in process and over HTTP.
	if err := t.time("server_hit", srvQuery); err != nil {
		return err
	}
	before := t.cnt.bytes.Load()
	if err := t.time("http_hit", func() error { _, err := t.hc.Query(o.stmt); return err }); err != nil {
		return err
	}
	t.dur["resp_bytes"] = append(t.dur["resp_bytes"], float64(t.cnt.bytes.Load()-before))
	t.self("self/http_hit", "http_hit", "server_hit")
	return nil
}

// join replays one join statement through the engine's join entry points.
func (t *tracer) join(o *op) error {
	mavg := transform.MovingAverage(t.n, 20)
	jq := core.JoinQuery{Eps: o.eps, Left: mavg, Right: mavg}
	if o.two {
		rev, err := transform.Reverse(t.n).Compose(mavg)
		if err != nil {
			return err
		}
		jq = core.JoinQuery{Eps: o.eps, Left: mavg, Right: rev, TwoSided: true}
	}
	var pl *plan.Plan
	if err := t.time("plan/join", func() (err error) { pl, err = t.eng.PlanJoin(jq, plan.Auto); return }); err != nil {
		return err
	}
	var st core.ExecStats
	if err := t.time("exec/join", func() (err error) { _, st, err = t.eng.ExecJoin(jq, pl); return }); err != nil {
		return err
	}
	t.observe("join", pl, st)
	return nil
}

// appendAt replays three appends to one series, one per layer.
func (t *tracer) appendAt(name string, pts [3][]float64) error {
	if err := t.time("append/http", func() error { return t.hc.Append(name, pts[0]) }); err != nil {
		return err
	}
	if err := t.time("append/server", func() error { return t.in.srv.Append(name, pts[1]) }); err != nil {
		return err
	}
	if err := t.time("append/engine", func() error { _, err := t.eng.Append(name, pts[2]); return err }); err != nil {
		return err
	}
	t.self("self/append_http", "append/http", "append/server")
	t.self("self/append_server", "append/server", "append/engine")
	return nil
}

// tracedPass runs the pass and returns the per-layer metrics it timed.
func tracedPass(w workload, in *instance, seed int64, untraced time.Duration) (map[string]metric, error) {
	start := time.Now()
	cnt := &countingTransport{base: &http.Transport{MaxIdleConnsPerHost: 4}}
	t := &tracer{
		in: in, eng: in.db.Engine(), n: length, cnt: cnt,
		hc:  &server.Client{BaseURL: in.base, HTTPClient: &http.Client{Timeout: 60 * time.Second, Transport: cnt}},
		dur: map[string][]float64{}, tot: map[string]*execTotals{}, mix: map[string]int{},
	}
	defer cnt.base.(*http.Transport).CloseIdleConnections()
	for i, o := range w.traceSample(tracePerKind) {
		o := o
		if err := t.statement(i, &o); err != nil {
			return nil, fmt.Errorf("traced %s: %w", o.stmt, err)
		}
	}
	joins := w.traceJoins()
	for _, o := range joins {
		o := o
		if err := t.join(&o); err != nil {
			return nil, fmt.Errorf("traced %s: %w", o.stmt, err)
		}
	}
	r := rand.New(rand.NewSource(seed*7919 + 9))
	names := in.db.Names()
	for i := 0; i < tracePerKind; i++ {
		name := names[r.Intn(len(names))]
		cur, err := in.srv.Series(name)
		if err != nil {
			return nil, err
		}
		last := cur[len(cur)-1]
		var pts [3][]float64
		for l := range pts {
			pts[l] = make([]float64, appendPoints)
			for j := range pts[l] {
				last += -4 + 8*r.Float64()
				pts[l][j] = last
			}
		}
		if err := t.appendAt(name, pts); err != nil {
			return nil, fmt.Errorf("traced append to %s: %w", name, err)
		}
	}
	wall := time.Since(start)

	m := map[string]metric{}
	med := func(k string) float64 { return median(t.dur[k]) }
	m["server.http_self_us"] = metric{med("self/http_hit"), "us"}
	m["server.append_self_us"] = metric{med("self/append_http"), "us"}
	m["server.resp_bytes"] = metric{mean(t.dur["resp_bytes"]), "B"}
	m["tsq.hit_us"] = metric{med("server_hit"), "us"}
	m["tsq.miss_self_us"] = metric{med("self/server_miss"), "us"}
	m["tsq.append_self_us"] = metric{med("self/append_server"), "us"}
	m["query.parse_us"] = metric{med("parse"), "us"}
	m["plan.range_us"] = metric{med("plan/range"), "us"}
	m["plan.nn_us"] = metric{med("plan/nn"), "us"}
	m["plan.join_us"] = metric{med("plan/join"), "us"}
	m["plan.cost_error"] = metric{median(t.cerr), "ratio"}
	m["core.range_exec_us"] = metric{med("exec/range"), "us"}
	m["core.nn_exec_us"] = metric{med("exec/nn"), "us"}
	m["core.join_exec_us"] = metric{med("exec/join"), "us"}
	m["core.append_us"] = metric{med("append/engine"), "us"}
	var all execTotals
	for _, tt := range t.tot {
		all.cands += tt.cands
		all.results += tt.results
		all.terms += tt.terms
	}
	m["core.results_per_candidate"] = metric{ratio(float64(all.results), float64(all.cands)), "ratio"}
	m["core.terms_per_candidate"] = metric{ratio(float64(all.terms), float64(all.cands)), "terms/candidate"}
	for _, kind := range []string{"range", "nn", "join"} {
		tt := t.tot[kind]
		if tt == nil {
			tt = &execTotals{}
		}
		ops := float64(tt.ops)
		m["index.nodes_per_"+kind] = metric{ratio(float64(tt.nodes), ops), "nodes/op"}
		m["index.candidates_per_"+kind] = metric{ratio(float64(tt.cands), ops), "candidates/op"}
		m["relation.pages_per_"+kind] = metric{ratio(float64(tt.pages), ops), "pages/op"}
	}

	// Context for attributing a move: the strategy mix of the traced
	// statements, the process's calibrated cost constants, and the
	// traced pass's own wall time beside the untraced loop's.
	keys := make([]string, 0, len(t.mix))
	for k := range t.mix {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(os.Stderr, "trace: strategy mix")
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, " %s=%d", k, t.mix[k])
	}
	fmt.Fprintf(os.Stderr, "\ntrace: plan.Calibrated() = %+v\n", plan.Calibrated())
	fmt.Fprintf(os.Stderr, "trace: traced pass %.2fs (%d statements, %d joins, %d appends); untraced timed loop %.2fs\n",
		wall.Seconds(), 2*tracePerKind, len(joins), tracePerKind, untraced.Seconds())
	return m, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
