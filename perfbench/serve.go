package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	congest "repro"
	"repro/internal/obs"
	"repro/internal/serve"
)

const (
	// servePayloads is the size of the seeded request pool; requests cycle
	// through it in a seeded order.
	servePayloads = 1024
	// serveMaxRows bounds the feature rows of one request (1..16).
	serveMaxRows = 16
	// serveFixedRowsPerS is the fixed offered load request latency
	// (op_ms_p50, serve_ms_p50, serve_ms_tail) is measured at: low enough
	// that the two connections seldom overlap, so the figure is the serve
	// path's own latency rather than how requests happened to collide.
	serveFixedRowsPerS = 2000
	// serveLimit is the latency limit a ladder rung's tail must meet.
	serveLimit = 10 * time.Millisecond
	// ladderBase and ladderStep define the rate ladder in rows/s: rung k
	// offers ladderBase × ladderStep^k, for k below ladderTop. The search
	// climbs ladderCoarse rungs at a time, then bisects.
	ladderBase   = 8000
	ladderStep   = 1.05
	ladderCoarse = 5
	ladderTop    = 80
	// serveTailBlock is the request count a window's tail is taken over;
	// the window's tail is its median block's.
	serveTailBlock = 500
	// serveWarmup is the untimed traffic the traced run's congserve gets
	// before its measured window.
	serveWarmup = time.Second
	// failedLatency stands in for the latency of a failed, shed or
	// mismatched request, so it always misses the limit.
	failedLatency = time.Hour
)

// payload is one request: its feature rows, the complete HTTP request,
// the binary body alone, and the response body in-process prediction
// gives for the same rows.
type payload struct {
	rows [][]float64
	body []byte
	req  []byte
	want []byte
}

// makePayloads draws the seeded request pool from the training designs'
// real feature rows: 1..serveMaxRows rows per request.
func makePayloads(seed int64, src [][]float64) []payload {
	rng := rand.New(rand.NewSource(seed))
	pl := make([]payload, servePayloads)
	for i := range pl {
		rows := make([][]float64, 1+rng.Intn(serveMaxRows))
		for r := range rows {
			rows[r] = src[rng.Intn(len(src))]
		}
		body := make([]byte, 8, 8+8*len(rows)*len(rows[0]))
		binary.LittleEndian.PutUint32(body, uint32(len(rows)))
		binary.LittleEndian.PutUint32(body[4:], uint32(len(rows[0])))
		for _, row := range rows {
			for _, v := range row {
				body = binary.LittleEndian.AppendUint64(body, math.Float64bits(v))
			}
		}
		head := "POST /predict HTTP/1.1\r\nHost: perfbench\r\nContent-Type: " + serve.ContentF64 +
			"\r\nContent-Length: " + strconv.Itoa(len(body)) + "\r\n\r\n"
		pl[i] = payload{rows: rows, body: body, req: append([]byte(head), body...)}
	}
	return pl
}

// expect fills each payload's expected response from in-process
// PredictBatchInto, encoded in the binary wire format.
func expect(p *congest.Predictor, pl []payload) error {
	for i := range pl {
		n := len(pl[i].rows)
		v, h, a := make([]float64, n), make([]float64, n), make([]float64, n)
		if err := congest.PredictBatchInto(p, v, h, a, pl[i].rows); err != nil {
			return err
		}
		pl[i].want = encodeResponse(v, h, a)
	}
	return nil
}

// encodeResponse is the binary response: uint32 row count, then the vert,
// horiz and avg sections as little-endian float64.
func encodeResponse(v, h, a []float64) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(v)))
	for _, s := range [3][]float64{v, h, a} {
		for _, x := range s {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
	}
	return b
}

// meanRows is the mean rows per request of the pool.
func meanRows(pl []payload) float64 {
	n := 0
	for _, p := range pl {
		n += len(p.rows)
	}
	return float64(n) / float64(len(pl))
}

// client is one persistent HTTP/1.1 connection speaking just enough of
// the protocol for /predict, so the load generator spends little CPU of
// its own on a host it shares with the server.
type client struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	body []byte
}

func dial(addr string) (*client, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &client{addr: addr, c: c, br: bufio.NewReaderSize(c, 16<<10)}, nil
}

// do sends one request and returns the status and the response body,
// which stays valid until the next call.
func (c *client) do(req []byte) (int, []byte, error) {
	if c.c == nil {
		nc, err := dial(c.addr)
		if err != nil {
			return 0, nil, err
		}
		*c = *nc
	}
	status, body, err := c.roundTrip(req)
	if err != nil {
		c.c.Close()
		c.c = nil
	}
	return status, body, err
}

func (c *client) roundTrip(req []byte) (int, []byte, error) {
	if _, err := c.c.Write(req); err != nil {
		return 0, nil, err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 {
		return 0, nil, fmt.Errorf("short status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	n := -1
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(line) <= 2 {
			break
		}
		if k, v, ok := bytes.Cut(line, []byte(":")); ok && bytes.EqualFold(bytes.TrimSpace(k), []byte("Content-Length")) {
			if n, err = strconv.Atoi(string(bytes.TrimSpace(v))); err != nil {
				return 0, nil, fmt.Errorf("bad Content-Length %q", v)
			}
		}
	}
	if n < 0 {
		return 0, nil, errors.New("response without Content-Length")
	}
	if cap(c.body) < n {
		c.body = make([]byte, n)
	}
	c.body = c.body[:n]
	if _, err := io.ReadFull(c.br, c.body); err != nil {
		return 0, nil, err
	}
	return status, c.body, nil
}

func (c *client) close() {
	if c.c != nil {
		c.c.Close()
	}
}

// phase is the outcome of one open-loop window.
type phase struct {
	lat     []time.Duration // per request, in due order: due (or fire) time to response
	late    []time.Duration // how late the generator fired requests it was ready for
	failed  int
	overrun time.Duration // last response after the window's end
}

// openLoop offers rate requests/s for dur from conns connections. Request
// i is due at start + i/rate whatever happened before it; a connection
// takes the next due request when it is free, so a stall delays later
// requests and their latency, counted from the due time, shows it.
func openLoop(addr string, conns int, rate float64, dur time.Duration, pl []payload, seq []int) phase {
	total := int(rate * dur.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	var next atomic.Int64
	lat := make([]time.Duration, total) // each request's slot is written by the worker that sent it
	parts := make([]phase, conns)
	var wg sync.WaitGroup
	start := time.Now().Add(time.Millisecond)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(ph *phase) {
			defer wg.Done()
			c := &client{addr: addr}
			defer c.close()
			var last time.Time
			for {
				i := int(next.Add(1) - 1)
				if i >= total {
					break
				}
				// A request is timed from its due time, so waiting for a busy
				// connection counts. When the connection was idle and only the
				// generator's timer woke late (the runtime's timers are good
				// to about a millisecond), it is timed from when it fired;
				// that lateness is reported on its own.
				due := start.Add(time.Duration(i) * interval)
				from := due
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
					from = time.Now()
					ph.late = append(ph.late, from.Sub(due))
				}
				p := &pl[seq[i%len(seq)]]
				status, body, err := c.do(p.req)
				last = time.Now()
				if err != nil || status != http.StatusOK || !bytes.Equal(body, p.want) {
					ph.failed++
					lat[i] = failedLatency
					continue
				}
				lat[i] = last.Sub(from)
			}
			ph.overrun = last.Sub(start.Add(dur))
		}(&parts[w])
	}
	wg.Wait()
	out := phase{lat: lat}
	for _, ph := range parts {
		out.late = append(out.late, ph.late...)
		out.failed += ph.failed
		out.overrun = max(out.overrun, ph.overrun)
	}
	return out
}

// ladderRate is rung k's offered load in rows/s.
func ladderRate(k int) float64 { return ladderBase * math.Pow(ladderStep, float64(k)) }

// blockTail is the median, over consecutive blocks of serveTailBlock
// requests, of each block's tail (the highest percentile with tailBeyond
// samples beyond it), and that percentile. A host stall then moves one
// block's tail, not the window's.
func (ph phase) blockTail() (time.Duration, float64) {
	var tails []time.Duration
	var pct float64
	block := min(serveTailBlock, len(ph.lat))
	for b := 0; b+block <= len(ph.lat); b += block {
		var tail time.Duration
		_, tail, pct = summarize(ph.lat[b : b+block])
		tails = append(tails, tail)
	}
	return medianDur(tails), pct
}

// passes reports whether a rung met the limit: no failures, a tail within
// serveLimit, and no backlog left when the window closed.
func (ph phase) passes() bool {
	tail, _ := ph.blockTail()
	return ph.failed == 0 && tail <= serveLimit && ph.overrun <= serveLimit
}

// server is a congserve subprocess.
type server struct {
	cmd    *exec.Cmd
	addr   string
	exited chan struct{}
}

// startServer launches congserve on the artifact and returns once it has
// written its address and answered a first request correctly.
func startServer(e *env, first *payload) (*server, error) {
	f, err := os.CreateTemp(e.work, "addr-")
	if err != nil {
		return nil, err
	}
	f.Close()
	addrFile := f.Name()
	cmd := exec.Command(e.congserve, "-model", e.fx.modelPath, "-addr", "127.0.0.1:0",
		"-addr-file", addrFile, "-log-level", "warn")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(s.exited)
	}()
	deadline := time.Now().Add(60 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
			s.addr = string(bytes.TrimSpace(b))
			break
		}
		select {
		case <-s.exited:
			return nil, errors.New("congserve exited during start-up")
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("congserve did not write its address")
		}
	}
	c, err := dial(s.addr)
	if err != nil {
		s.stop()
		return nil, err
	}
	defer c.close()
	if status, _, err := c.do(first.req); err != nil || status != http.StatusOK {
		s.stop()
		return nil, fmt.Errorf("first request: status %d, %v", status, err)
	}
	return s, nil
}

// stop drains the server with SIGTERM, waits for it to exit and returns
// its peak resident set size.
func (s *server) stop() float64 {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
	if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// serveInputs generates the request pool, its expected responses and
// the seeded request order. It returns how long generating the requests
// took; the in-process predictor that computes the expected responses is
// the checker, loaded outside that time.
func serveInputs(e *env) ([]payload, []int, time.Duration, error) {
	t0 := time.Now()
	src, err := readRows(e.fx.rowsPath)
	if err != nil {
		return nil, nil, 0, err
	}
	pl := makePayloads(e.seed, src)
	gen := time.Since(t0)
	p, err := congest.LoadPredictorFile(e.fx.modelPath)
	if err != nil {
		return nil, nil, 0, err
	}
	if err := expect(p, pl); err != nil {
		return nil, nil, 0, err
	}
	rng := rand.New(rand.NewSource(e.seed + 1))
	seq := make([]int, 1<<16)
	for i := range seq {
		seq[i] = rng.Intn(len(pl))
	}
	return pl, seq, gen, nil
}

// conns is the load generator's connection count: no more than nproc.
func conns() int { return runtime.NumCPU() }

// runServeHTTP is serve_http: after a warm-up, fixed-rate windows for
// latency on setupReps congserve processes, then a rate-ladder search for
// the highest rate that meets serveLimit on the last of them.
func runServeHTTP(e *env) (*report, error) {
	rep := newReport()
	// One scheduler thread is plenty for the generator's two connections
	// and leaves the host's CPUs to congserve.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	pl, seq, gen, err := serveInputs(e)
	if err != nil {
		return nil, err
	}
	// Each set-up repetition starts one congserve and times it until its
	// first correct answer. All of them stay up: the fixed-rate window is
	// spread over every process, because a process's latency depends on
	// start-up state (which shard each connection's requests settle on)
	// as much as on the code, and pooling samples that state setupReps
	// times per run.
	var srvs []*server
	defer func() {
		for _, s := range srvs {
			s.stop()
		}
	}()
	var starts []time.Duration
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		srv, err := startServer(e, &pl[0])
		if err != nil {
			return nil, err
		}
		starts = append(starts, time.Since(t0))
		srvs = append(srvs, srv)
	}
	rep.set("setup_s", "s", (gen + medianDur(starts)).Seconds())
	rowsPerReq := meanRows(pl)
	rate := serveFixedRowsPerS / rowsPerReq
	// Warm each server up first: its pools fill and the garbage of loading
	// the artifact is collected before anything is timed.
	for _, srv := range srvs {
		countPhase(rep, openLoop(srv.addr, conns(), rate, e.seconds/10/setupReps, pl, seq))
	}
	var fixed phase
	for _, srv := range srvs {
		ph := openLoop(srv.addr, conns(), rate, e.seconds/2/setupReps, pl, seq)
		countPhase(rep, ph)
		fixed.lat = append(fixed.lat, ph.lat...)
	}
	rep.opMetric(fixed.lat)
	// The tail and the ladder's highest rate are printed but not bounded:
	// on a 2-CPU host they spread too widely from one run to the next.
	p50, _, _ := summarize(fixed.lat)
	tail, pct := fixed.blockTail()
	rep.note("serve_ms_p50", "ms", p50.Seconds()*1e3)
	rep.note("serve_ms_tail", "ms", tail.Seconds()*1e3)
	rep.detail["serve_ms_tail_percentile"] = pct

	// Only the last server takes part in the ladder.
	var rss []float64
	for _, s := range srvs[:len(srvs)-1] {
		rss = append(rss, s.stop())
	}
	srv := srvs[len(srvs)-1]
	srvs = srvs[len(srvs)-1:]

	// Ladder search over rung indices: climb ladderCoarse rungs at a time
	// until one fails, then bisect between the last pass and that failure.
	// A failed rung gets one retry, so a single stall does not end the
	// search.
	var rungs []map[string]any
	rung := e.seconds / 40
	tryRung := func(k int) bool {
		for try := 0; try < 2; try++ {
			time.Sleep(50 * time.Millisecond) // let the previous rung drain
			ph := openLoop(srv.addr, conns(), ladderRate(k)/rowsPerReq, rung, pl, seq)
			countPhase(rep, ph)
			tail, _ := ph.blockTail()
			ok := ph.passes()
			rungs = append(rungs, map[string]any{"rows_per_s": ladderRate(k), "tail_ms": tail.Seconds() * 1e3,
				"failed": ph.failed, "overrun_ms": ph.overrun.Seconds() * 1e3, "pass": ok})
			if ok {
				return true
			}
		}
		return false
	}
	lo, hi := -1, ladderTop
	for k := 0; k < ladderTop; k += ladderCoarse {
		if !tryRung(k) {
			hi = k
			break
		}
		lo = k
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if tryRung(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	rep.note("serve_max_rows_per_s", "rows/s", 0)
	if lo >= 0 {
		rep.note("serve_max_rows_per_s", "rows/s", ladderRate(lo))
	}
	rss = append(rss, srv.stop())
	srvs = nil
	sort.Float64s(rss)
	rep.set("peak_rss_mb", "MB", rss[len(rss)/2])
	rep.detail["ladder"] = rungs
	rep.detail["rows_per_request"] = rowsPerReq
	rep.detail["connections"] = conns()
	return rep, nil
}

// countPhase adds a window's requests to the operation counts. Failures
// stay in the latency samples as misses; only correctness is counted here.
func countPhase(rep *report, ph phase) {
	rep.attempted += len(ph.lat)
	rep.failed += ph.failed
}

// fetchMetrics reads congserve's /debug/metrics snapshot.
func fetchMetrics(addr string) (*obs.Snapshot, error) {
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	resp, err := (&http.Client{Transport: tr, Timeout: 10 * time.Second}).Get("http://" + addr + "/debug/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

func counterDelta(before, after *obs.Snapshot, name string) float64 {
	b, _ := before.Counter(name)
	a, _ := after.Counter(name)
	return float64(a - b)
}

// traceServeHTTP splits a request's cost by layer: the server's own
// coalescing counters over a fixed-rate window, then, over the same
// payloads, client latency on one connection, in-process ServeBytes,
// in-process PredictBatchInto and the traced scaler/forest mirror.
func traceServeHTTP(e *env) (*report, error) {
	rep := newReport()
	pl, seq, _, err := serveInputs(e)
	if err != nil {
		return nil, err
	}
	srv, err := startServer(e, &pl[0])
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	countPhase(rep, openLoop(srv.addr, conns(), serveFixedRowsPerS/meanRows(pl), serveWarmup, pl, seq))
	before, err := fetchMetrics(srv.addr)
	if err != nil {
		return nil, err
	}
	// The coalescer's counters are read over a window at the ladder's first
	// rung, where the two connections' requests overlap often enough to
	// share batches.
	fixed := openLoop(srv.addr, conns(), ladderRate(0)/meanRows(pl), e.seconds/4, pl, seq)
	after, err := fetchMetrics(srv.addr)
	if err != nil {
		return nil, err
	}
	countPhase(rep, fixed)
	batches := counterDelta(before, after, obs.MetricServeBatches)
	rep.setTraced("serve.batches", batches)
	rep.setTraced("serve.batch_rows_mean", counterDelta(before, after, obs.MetricServePredictions)/batches)
	rep.setTraced("serve.shed", counterDelta(before, after, obs.MetricServeShed))
	_, late, _ := summarize(fixed.late)
	rep.setTraced("loadgen.late_ms_tail", late.Seconds()*1e3)

	p, err := congest.LoadPredictorFile(e.fx.modelPath)
	if err != nil {
		return nil, err
	}
	pm, err := newPredictMirror(p, e.fx.modelPath)
	if err != nil {
		return nil, err
	}
	inproc := serve.New(serve.Options{})
	defer inproc.Stop(context.Background())
	if _, err := inproc.LoadModel(e.fx.modelPath); err != nil {
		return nil, err
	}
	c, err := dial(srv.addr)
	if err != nil {
		return nil, err
	}
	defer c.close()

	tr := newTracer()
	var clientT, serveT, predictT time.Duration
	var reqs, rows int
	var mallocs uint64
	var ms0, ms1 runtime.MemStats
	v, h, a := make([]float64, serveMaxRows), make([]float64, serveMaxRows), make([]float64, serveMaxRows)
	var dst []byte
	start := time.Now()
	// At least two passes: the first warms the in-process server's pools
	// and is left out of the allocation count.
	for pass := 0; pass < 2 || time.Since(start) < e.seconds*3/4; pass++ {
		for i := range pl {
			t0 := time.Now()
			status, body, err := c.do(pl[i].req)
			clientT += time.Since(t0)
			rep.op(err == nil && status == http.StatusOK && bytes.Equal(body, pl[i].want))
		}
		runtime.ReadMemStats(&ms0)
		for i := range pl {
			t0 := time.Now()
			dst, err = inproc.ServeBytes(pl[i].body, true, dst[:0])
			serveT += time.Since(t0)
			rep.op(err == nil && bytes.Equal(dst, pl[i].want))
		}
		runtime.ReadMemStats(&ms1)
		if pass > 0 {
			mallocs += ms1.Mallocs - ms0.Mallocs
		}
		for i := range pl {
			n := len(pl[i].rows)
			t0 := time.Now()
			err := p.PredictBatchInto(v[:n], h[:n], a[:n], pl[i].rows)
			predictT += time.Since(t0)
			rep.op(err == nil && bytes.Equal(encodeResponse(v[:n], h[:n], a[:n]), pl[i].want))
		}
		for i := range pl {
			n := len(pl[i].rows)
			err := pm.predictBatch(tr, -1, reqs+i, v[:n], h[:n], a[:n], pl[i].rows)
			rep.op(err == nil && bytes.Equal(encodeResponse(v[:n], h[:n], a[:n]), pl[i].want))
			rows += n
		}
		reqs += len(pl)
	}
	b := tr.analyze()
	n := float64(reqs)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) / n }
	rep.setTraced("serve.serve_bytes_us", us(serveT))
	rep.setTraced("core.predict_batch_us", us(predictT))
	rep.setTraced("serve.codec_coalesce_us", us(serveT-predictT))
	rep.setTraced("http.overhead_us", us(clientT-serveT))
	rep.setTraced("serve.allocs_per_req", float64(mallocs)/float64(reqs-len(pl)))
	rep.setTraced("ml.scaler_ms", us(b.self["ml.scaler"])/1e3)
	rep.setTraced("ml.forest_ms", us(b.self["ml.forest"])/1e3)
	rep.setTraced("ml.forest_rows_per_s", float64(rows)/b.self["ml.forest"].Seconds())
	rep.setTraced("trace.coverage", b.coverage())
	rep.setTraced("trace.unattributed_ms", us(b.rootSelf)/1e3)
	rep.setTraced("trace.overhead_pct", 100*(float64(b.rootTotal)/float64(predictT)-1))
	rep.detail["requests_per_layer"] = reqs
	rep.detail["fixed_window_requests"] = len(fixed.lat)
	return rep, writeTrace(e, tr, "serve_http")
}
