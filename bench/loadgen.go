package main

import (
	"bytes"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// client is one load-generating connection. Not safe for concurrent use.
type client struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newClients(n int) []*client {
	tr := &http.Transport{MaxIdleConnsPerHost: n, DisableCompression: true}
	hc := &http.Client{Transport: tr}
	out := make([]*client, n)
	for i := range out {
		out[i] = &client{hc: hc}
	}
	return out
}

func closeClients(cs []*client) { cs[0].hc.CloseIdleConnections() }

// do sends one request and returns the status and the whole body; the body
// is valid until the client's next call.
func (c *client) do(method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

func (c *client) post(url string, body []byte) (int, []byte, error) {
	return c.do(http.MethodPost, url, body)
}

// answers reports whether a POST was answered 200 with exactly want.
func (c *client) answers(url string, body, want []byte) bool {
	status, got, err := c.post(url, body)
	return err == nil && status == http.StatusOK && bytes.Equal(got, want)
}

// round is one closed-loop pass over a fixed number of ops.
type round struct {
	lat     []time.Duration // by op index
	failed  int
	elapsed time.Duration
}

// runClosed issues ops [0,n): each client takes the next op as soon as its
// previous one completes. op reports whether the answer was correct.
func runClosed(clients []*client, n int, op func(c *client, i int) bool) round {
	r := round{lat: make([]time.Duration, n)}
	var next, failed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				t0 := time.Now()
				ok := op(c, i)
				r.lat[i] = time.Since(t0)
				if !ok {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	r.elapsed = time.Since(start)
	r.failed = int(failed.Load())
	return r
}

// closedLoopMetrics runs warm-up and then up to `rounds` rounds of perRound
// ops each. op receives the op's index in the whole stream, warm-up included.
//
// Each timing metric is the BEST round's value. On the shared two-core box
// this was written on, interference (other tenants evicting a 50 MB working
// set from the shared cache) only ever slows a round down, in phases that last
// seconds: across ten same-seed runs the median round swung by ±15 % and the
// best round by ±5 %. The fastest round is the closest the run gets to the
// program's own speed. Every round does the same ops on every commit; a slow
// machine or commit is not made to run all of them: no round starts after
// 1.25 × --seconds of timed work, which bounds the run's length.
func closedLoopMetrics(e *env, warm, perRound int, op func(c *client, i int) bool) error {
	clients := newClients(clientCount)
	defer closeClients(clients)
	if w := runClosed(clients, warm, op); w.failed > 0 {
		return fmt.Errorf("%d of %d warm-up ops failed", w.failed, warm)
	}
	var thr, p50 []float64
	budget := time.Duration(1.25 * e.cfg.seconds * float64(time.Second))
	for r, start := 0, time.Now(); r < rounds && (r < minRounds || time.Since(start) < budget); r++ {
		base := warm + r*perRound
		rd := runClosed(clients, perRound, func(c *client, i int) bool { return op(c, base+i) })
		e.res.Attempted += perRound
		e.res.Failed += rd.failed
		thr = append(thr, float64(perRound-rd.failed)/rd.elapsed.Seconds())
		p50 = append(p50, percentileMS(rd.lat, 0.50))
	}
	e.m.setFrom("throughput_ops", slices.Max(thr), thr, len(thr)*perRound)
	e.m.setFrom("latency_p50_ms", slices.Min(p50), p50, len(p50)*perRound)
	return nil
}

// minRounds is how many rounds a run does however slow it is.
const minRounds = 3
