package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/server"
)

// clockProcessCPUTime is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTime = 2

// cpuNow returns the CPU time every thread of the process has used so
// far, in nanoseconds. Client and server share the process and the loop
// is closed, so the CPU time that passes during one request is the
// request's cost on both sides (plus the garbage collector's share).
// Unlike wall time it leaves out the time the process waits for a CPU:
// runs of other processes, and, in a VM, time the hypervisor gives the
// host's cores to other guests. That waiting moved the wall-clock
// figures of identical runs by up to half on a shared host.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(fmt.Sprintf("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): %v", e))
	}
	return time.Duration(ts.Nano())
}

type opKind uint8

const (
	opStmt   opKind = iota // POST /query with a query-language statement
	opRange                // POST /query/range, typed by-name range query
	opNN                   // POST /query/nn, typed by-name k-NN query
	opAppend               // POST /series/{name}/append
)

// class is what an operation does, for the per-kind latency metrics.
type class uint8

const (
	clsRange class = iota
	clsNN
	clsJoin
	clsAppend
)

func (c class) String() string {
	return [...]string{"range", "nn", "join", "append"}[c]
}

// op is one request of a workload's seeded sequence.
type op struct {
	kind  opKind
	cls   class
	stmt  string // opStmt
	name  string // by-name query series or append target
	sh    shape
	eps   float64
	k     int
	pts   []float64 // opAppend
	using string    // opRange: forced strategy, empty for the planner's
	two   bool      // two-sided JOIN (ordered pairs)
	check bool      // verify the answer against the oracle
}

// reply is what the client got back.
type reply struct {
	cached  bool
	matches []answer
	pairs   []joinPair
}

func (in *instance) do(o *op) (reply, error) {
	switch o.kind {
	case opStmt:
		resp, err := in.client.Query(o.stmt)
		if err != nil {
			return reply{}, err
		}
		return fromResponse(resp, o.check), nil
	case opRange:
		var resp server.QueryResponse
		req := server.RangeRequest{Series: o.name, Eps: o.eps, Transform: transformSpec(o.sh), Both: o.sh.both, Using: o.using}
		if err := in.postJSON("/query/range", req, &resp); err != nil {
			return reply{}, err
		}
		return fromResponse(&resp, o.check), nil
	case opNN:
		var resp server.QueryResponse
		req := server.NNRequest{Series: o.name, K: o.k, Transform: transformSpec(o.sh), Both: o.sh.both}
		if err := in.postJSON("/query/nn", req, &resp); err != nil {
			return reply{}, err
		}
		return fromResponse(&resp, o.check), nil
	case opAppend:
		return reply{}, in.client.Append(o.name, o.pts)
	}
	return reply{}, fmt.Errorf("unknown op kind %d", o.kind)
}

func transformSpec(sh shape) string {
	if sh.mavg {
		return "mavg(20)"
	}
	return ""
}

// fromResponse keeps the answer only when it is to be checked, so the
// loop does not pay for copies it never reads.
func fromResponse(resp *server.QueryResponse, keep bool) reply {
	r := reply{cached: resp.Stats.Cached}
	if !keep {
		return r
	}
	r.matches = make([]answer, len(resp.Matches))
	for i, m := range resp.Matches {
		r.matches[i] = answer{m.Name, m.Distance}
	}
	r.pairs = make([]joinPair, len(resp.Pairs))
	for i, p := range resp.Pairs {
		r.pairs[i] = joinPair{p.A, p.B, p.Distance}
	}
	return r
}

// checked is one answer kept for verification: the index of its op in
// the run's op log, and what came back.
type checked struct {
	idx int
	got reply
}

// sample is one completed request of the timed loop: its wall time and
// the process CPU time that passed during it.
type sample struct {
	cls    class
	cached bool
	ms     float64
	cpuMs  float64
}

// loopResult is what a closed loop measured.
type loopResult struct {
	samples   []sample
	attempted int
	failed    int
	errs      []string
	wall      time.Duration
	cpu       time.Duration
	mallocs   uint64
	allocB    uint64
	gcs       uint32
}

// closedLoop sends the workload's rounds one request at a time, each
// after the previous reply, until dur has passed at a round boundary
// (whole rounds keep every run's operation mix identical). Answers of
// ops marked for checking are appended to checks with their index in
// log, which receives every op sent.
func closedLoop(w workload, in *instance, dur time.Duration, minRounds int, log *[]op, checks *[]checked) loopResult {
	var res loopResult
	res.samples = make([]sample, 0, 1<<16)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start, cpuStart := time.Now(), cpuNow()
	for r := 0; r < minRounds || time.Since(start) < dur; r++ {
		for _, o := range w.nextRound() {
			o := o
			res.attempted++
			t0, c0 := time.Now(), cpuNow()
			rep, err := in.do(&o)
			c1 := cpuNow()
			ms := float64(time.Since(t0)) / float64(time.Millisecond)
			cpuMs := float64(c1-c0) / float64(time.Millisecond)
			*log = append(*log, o)
			if err != nil {
				res.failed++
				if len(res.errs) < 5 {
					res.errs = append(res.errs, fmt.Sprintf("%s %s%s: %v", o.cls, o.stmt, o.name, err))
				}
				continue
			}
			res.samples = append(res.samples, sample{o.cls, rep.cached, ms, cpuMs})
			if o.check {
				*checks = append(*checks, checked{len(*log) - 1, rep})
			}
		}
	}
	res.wall, res.cpu = time.Since(start), cpuNow()-cpuStart
	runtime.ReadMemStats(&m1)
	res.mallocs = m1.Mallocs - m0.Mallocs
	res.allocB = m1.TotalAlloc - m0.TotalAlloc
	res.gcs = m1.NumGC - m0.NumGC
	return res
}
