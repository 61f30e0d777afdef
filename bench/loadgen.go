package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/httptrace"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dnastore/internal/client"
	"dnastore/internal/rng"
	"dnastore/internal/server"
)

// The open-loop load generator. It runs in a process of its own: in the
// servers' process it would need one of their two Ps to fire on time, and
// while simulations hold both, Go's scheduler lets it run only at the next
// 10 ms preemption tick (measured: p95 lateness 6.3 ms at 50 arrivals/s).
// Users of the service are other processes, too.

// arrival is one planned job of an open-loop run.
type arrival struct {
	spec  server.JobSpec
	class string // the spec class, or "repeat"
	// distinct indexes the simulate spec the arrival carries among the
	// run's distinct specs.
	distinct int
}

// segmentBounds splits n arrivals into k consecutive segments and returns
// the k+1 boundaries.
func segmentBounds(n, k int) []int {
	b := make([]int, k+1)
	for j := range b {
		b[j] = j * n / k
	}
	return b
}

// planArrivals lays n arrivals, split into k segments, on the traffic
// pattern; the seed picks each first-time spec's seed. Each segment is
// served by a target of its own, so a repeat whose original would fall in
// an earlier segment is a first-time job instead.
func planArrivals(p openParams, seed uint64, n, k int) ([]arrival, []server.SimulateSpec) {
	var (
		out      []arrival
		distinct []server.SimulateSpec
		bounds   = segmentBounds(n, k)
		seg      = 0
	)
	for i := 0; i < n; i++ {
		for i >= bounds[seg+1] {
			seg++
		}
		sl := p.Pattern[i%len(p.Pattern)]
		if sl.Lag > 0 && i-sl.Lag >= bounds[seg] {
			a := out[i-sl.Lag]
			a.class = "repeat"
			if p.Nodes > 0 {
				sim := *a.spec.Simulate
				a.spec = server.JobSpec{Kind: server.KindSimulate, TimeoutMS: timeoutFor(i), Simulate: &sim}
			}
			out = append(out, a)
			continue
		}
		sim := p.class(sl.Class)
		sim.Seed = subSeed(seed, uint64(1<<32+i))
		spec := server.JobSpec{Kind: server.KindSimulate, Simulate: &sim}
		if p.Nodes > 0 {
			spec.TimeoutMS = timeoutFor(i)
		}
		out = append(out, arrival{spec: spec, class: sl.Class, distinct: len(distinct)})
		distinct = append(distinct, sim)
	}
	return out, distinct
}

// class returns the named class's spec.
func (p openParams) class(name string) server.SimulateSpec {
	for _, c := range p.Classes {
		if c.Name == name {
			return c.Spec
		}
	}
	panic("bench: pattern names unknown class " + name) // a definition bug
}

// timeoutFor gives fleet arrival i its own generous job timeout, which is
// what makes a re-run a new job.
func timeoutFor(i int) int64 { return 600_000 + int64(i) }

// arrivalCount is the run's number of arrivals.
func arrivalCount(p openParams, seconds float64) int { return int(p.Rate*seconds + 0.5) }

// newTransport is an HTTP transport holding at most conns keep-alive
// connections per host.
func newTransport(conns int) *http.Transport {
	return &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
}

// countingTransport counts the HTTP requests a client makes, retries
// included.
type countingTransport struct {
	base http.RoundTripper
	n    atomic.Int64
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return c.base.RoundTrip(r)
}

// arrivalResult is how one arrival went.
type arrivalResult struct {
	LatencyMs float64 `json:"latency_ms"`
	Hash      string  `json:"hash"`
	Err       string  `json:"err,omitempty"`
	Polls     int     `json:"polls"`
	// Calls counts logical client calls: submit, status polls, result.
	Calls    int       `json:"calls"`
	Bytes    int       `json:"bytes"`
	ConnWait []float64 `json:"conn_wait_ms,omitempty"` // traced runs only
}

// fire drives one arrival to its verified result: Submit, Status until
// terminal, Result, then hash the bytes. Polls wait a uniform draw from
// [poll/2, 3·poll/2) made with r. Latency runs from the arrival's
// scheduled send time.
func fire(ctx context.Context, c *client.Client, tr *tracer, op int, a arrival, due time.Time, poll time.Duration, r *rng.RNG) (res arrivalResult) {
	root := tr.start("op."+a.class, op, 0)
	defer func() { tr.end(root, res.Bytes) }()
	if tr != nil {
		var mu sync.Mutex
		var began time.Time
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			GetConn: func(string) { mu.Lock(); began = time.Now(); mu.Unlock() },
			GotConn: func(httptrace.GotConnInfo) {
				mu.Lock()
				res.ConnWait = append(res.ConnWait, msSince(began))
				mu.Unlock()
			},
		})
	}
	id := tr.start("client.submit", op, root)
	st, _, err := c.Submit(ctx, a.spec)
	tr.end(id, 0)
	res.Calls++
	for err == nil && !st.State.Terminal() {
		time.Sleep(poll/2 + time.Duration(r.Float64()*float64(poll)))
		id = tr.start("client.status", op, root)
		st, err = c.Status(ctx, st.ID)
		tr.end(id, 0)
		res.Calls++
		res.Polls++
	}
	if err == nil && st.State != server.StateDone {
		err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	var data []byte
	if err == nil {
		id = tr.start("client.result", op, root)
		data, err = c.Result(ctx, st.ID)
		tr.end(id, len(data))
		res.Calls++
	}
	if err != nil {
		res.Err = err.Error()
	}
	sum := sha256.Sum256(data)
	res.Hash, res.Bytes = hex.EncodeToString(sum[:]), len(data)
	res.LatencyMs = msSince(due)
	return res
}

// loadRequest is what the load generator process is told to do: fire
// arrivals [First, First+Count) of the run's plan of Total arrivals.
type loadRequest struct {
	URL        string     `json:"url"`
	Params     openParams `json:"params"`
	Seed       uint64     `json:"seed"`
	Total      int        `json:"total"`
	First      int        `json:"first"`
	Count      int        `json:"count"`
	MaxConns   int        `json:"max_conns"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	Traced     bool       `json:"traced"`
}

// loadResult is what it reports back.
type loadResult struct {
	// Results holds the arrivals in plan order.
	Results []arrivalResult `json:"results"`
	// LateMs is how late the generator sent each arrival.
	LateMs []float64 `json:"late_ms"`
	// Requests counts HTTP requests, retries included.
	Requests int64 `json:"requests"`
	// StartUnixNano is when the first arrival was due.
	StartUnixNano int64  `json:"start_unix_nano"`
	Spans         []Span `json:"spans,omitempty"`
}

// scheduleSeed seeds the arrival phases and every client's poll waits and
// retry jitter, the coordinator's node client included. Like the traffic
// pattern they are part of the workload's definition, not drawn from the
// run's seed: runs of every seed offer the same load at the same times and
// differ only in the jobs' contents, so which arrivals collide is not one
// more thing that differs between them.
const scheduleSeed = 0x5eed

// drive fires the schedule, whether or not earlier arrivals have finished:
// arrival i is due at a uniform point of its slot [i, i+1)/Rate. Exact
// slot starts would hold job completions and later arrivals in the same
// phase relation for a whole run; a random phase samples many.
func drive(ctx context.Context, req loadRequest) *loadResult {
	p := req.Params
	arrivals, _ := planArrivals(p, req.Seed, req.Total, p.segments())
	arrivals = arrivals[req.First : req.First+req.Count]
	transport := &countingTransport{base: newTransport(req.MaxConns)}
	cli := client.New(client.Config{BaseURL: req.URL, HTTPClient: &http.Client{Transport: transport}, Seed: scheduleSeed})
	var tr *tracer
	if req.Traced {
		tr = newTracer()
	}
	poll := time.Duration(p.PollMS) * time.Millisecond
	res := &loadResult{Results: make([]arrivalResult, len(arrivals)), LateMs: make([]float64, len(arrivals))}
	interval := time.Duration(float64(time.Second) / p.Rate)
	start := time.Now().Add(10 * time.Millisecond)
	res.StartUnixNano = start.UnixNano()
	var wg sync.WaitGroup
	phase := rng.New(subSeed(scheduleSeed, uint64(5<<32+req.First)))
	for i := range arrivals {
		due := start.Add(time.Duration((float64(i) + phase.Float64()) * float64(interval)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		res.LateMs[i] = msSince(due)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			op := req.First + i
			res.Results[i] = fire(ctx, cli, tr, op, arrivals[i], due, poll, rng.New(subSeed(scheduleSeed, uint64(2<<32+op))))
		}(i)
	}
	wg.Wait()
	transport.base.(*http.Transport).CloseIdleConnections()
	res.Requests = transport.n.Load()
	res.Spans = tr.snapshot()
	return res
}

// childEnv names the request file that turns the benchmark binary (or its
// test binary) into a child process: the load generator, or the target of
// one segment of an open-loop run.
const childEnv = "BENCH_CHILD_REQUEST"

// childRequest is what a child process is told to do; one of Drive and
// Segment is set.
type childRequest struct {
	Drive      *loadRequest    `json:"drive,omitempty"`
	Segment    *segmentRequest `json:"segment,omitempty"`
	ResultPath string          `json:"result_path"`
}

// childMain is a child process: it reads the request file named by
// childEnv, does what it asks and writes the result file.
func childMain(reqPath string) int {
	var (
		req childRequest
		res any
	)
	err := readJSON(reqPath, &req)
	switch {
	case err != nil:
	case req.Drive != nil:
		runtime.GOMAXPROCS(req.Drive.GOMAXPROCS)
		res = drive(context.Background(), *req.Drive)
	case req.Segment != nil:
		runtime.GOMAXPROCS(req.Segment.Def.GOMAXPROCS)
		res, err = req.Segment.measure(context.Background())
	default:
		err = fmt.Errorf("%s: empty request", reqPath)
	}
	if err == nil {
		err = writeJSON(req.ResultPath, res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// runChild runs req in a child process, waits for it and reads its result
// into res. The request and result files are dir/<kind>-*.json.
func runChild(ctx context.Context, dir, kind string, req childRequest, res any) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	reqPath := filepath.Join(dir, kind+"-request.json")
	req.ResultPath = filepath.Join(dir, kind+"-result.json")
	if err := writeJSON(reqPath, req); err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), childEnv+"="+reqPath)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s process: %w", kind, err)
	}
	return readJSON(req.ResultPath, res)
}
