package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	tsq "repro"
	"repro/internal/server"
)

// instance is one cold-started server: the snapshot loaded with
// tsq.ReadFromOptions, wrapped by tsq.NewServer with tsqd's defaults
// (result cache, monitor retention, slow-query threshold and flight
// recorder all at their defaults, telemetry on), and served by
// internal/server on a loopback listener — the wiring of cmd/tsqd.
type instance struct {
	db     *tsq.DB
	srv    *tsq.Server
	http   *http.Server
	hc     *http.Client
	client *server.Client
	base   string
	done   chan error
	loadD  time.Duration
}

// storeOpts are the load options of a workload's store: Backing and
// CachePages for the disk tier, zero for resident stores.
type storeOpts struct {
	backing    string
	cachePages int
}

// startInstance loads the snapshot and serves it; the returned durations
// are the load alone and the whole set-up up to the first answered
// request.
func startInstance(snapPath string, so storeOpts) (*instance, time.Duration, error) {
	t0 := time.Now()
	f, err := os.Open(snapPath)
	if err != nil {
		return nil, 0, err
	}
	db, err := tsq.ReadFromOptions(f, tsq.Options{Backing: so.backing, CachePages: so.cachePages})
	f.Close()
	if err != nil {
		return nil, 0, fmt.Errorf("loading snapshot: %w", err)
	}
	loadD := time.Since(t0)
	srv := tsq.NewServer(db, tsq.ServerOptions{CacheSize: tsq.DefaultCacheSize, MonitorRetain: tsq.DefaultMonitorRetain})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.Close()
		return nil, 0, err
	}
	in := &instance{db: db, srv: srv, loadD: loadD, done: make(chan error, 1)}
	in.http = &http.Server{Handler: server.New(srv), ReadHeaderTimeout: 10 * time.Second}
	go func() { in.done <- in.http.Serve(ln) }()
	in.base = "http://" + ln.Addr().String()
	in.hc = &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	in.client = &server.Client{BaseURL: in.base, HTTPClient: in.hc}
	if _, err := in.client.Health(); err != nil {
		in.close()
		return nil, 0, fmt.Errorf("first request: %w", err)
	}
	return in, time.Since(t0), nil
}

// close stops the HTTP server, waits for its serve loop to end, and
// releases the store's backing files.
func (in *instance) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := in.http.Shutdown(ctx)
	<-in.done
	in.hc.CloseIdleConnections()
	if cerr := in.db.Close(); err == nil {
		err = cerr
	}
	return err
}

// postJSON sends one typed request the way server.Client does, for the
// endpoints the client has no method for (/query/range, /query/nn).
func (in *instance) postJSON(path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	r, err := in.hc.Post(in.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer r.Body.Close()
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		return err
	}
	if r.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", path, r.StatusCode, bytes.TrimSpace(raw))
	}
	return json.Unmarshal(raw, resp)
}

// setupResult is what the set-up phase measured.
type setupResult struct {
	in      *instance
	setupS  []float64 // each cold start, snapshot file to first answer
	loadS   []float64 // each tsq.ReadFromOptions alone
	heapMiB float64   // live heap of the kept instance, net of the benchmark's
}

// liveHeap returns the live heap after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// coldStarts starts the server n times from the snapshot, each after a
// forced GC, keeping the last instance. newOpts gives each start its own
// store options (a fresh backing directory for disk stores).
func coldStarts(n int, snapPath string, newOpts func(i int) (storeOpts, func(), error)) (*setupResult, error) {
	base := liveHeap()
	res := &setupResult{}
	for i := 0; i < n; i++ {
		so, cleanup, err := newOpts(i)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		in, d, err := startInstance(snapPath, so)
		if err != nil {
			cleanup()
			return nil, err
		}
		res.setupS = append(res.setupS, d.Seconds())
		res.loadS = append(res.loadS, in.loadD.Seconds())
		if i == n-1 {
			res.in = in
			break
		}
		if err := in.close(); err != nil {
			cleanup()
			return nil, err
		}
		cleanup()
	}
	res.heapMiB = (float64(liveHeap()) - float64(base)) / (1 << 20)
	return res, nil
}
