package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// client posts JSON bodies to the server over a bounded connection pool.
type client struct {
	base string
	tr   *http.Transport
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{base: base, tr: tr, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// post sends body to path and returns the status and the response body.
// A seq ≥ 0 is sent as the X-Bench-Seq header, which the traced run's
// timing wrapper uses to pair a handler time with this round trip.
func (c *client) post(ctx context.Context, path string, body []byte, seq int) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if seq >= 0 {
		req.Header.Set(seqHeader, strconv.Itoa(seq))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

func (c *client) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

const seqHeader = "X-Bench-Seq"

// sample is the outcome of one query request.
type sample struct {
	q *query
	// lat is the latency: from when the request was due (open loop) or
	// sent (closed loop) to when its response was read.
	lat time.Duration
	// rtt is the round trip from sending to the response read.
	rtt time.Duration
	// late is how far behind its due time the generator sent the request.
	late   time.Duration
	seq    int
	index  int // position in the open-loop schedule
	status int
	body   []byte
	err    error
}

// latencyStart is the instant an open-loop request's latency is measured
// from. A request the generator reached before it was due waits on a
// timer and is timed from when that timer woke: timer wake-up lateness on
// a busy virtual machine is the generator's, not the server's, and would
// otherwise swamp a tens-of-microseconds answer. A request reached after
// it was due — every connection was still busy with earlier requests — is
// timed from its due time, so the wait a server stall imposes on the
// requests queued behind it counts (no coordinated omission).
func latencyStart(due, reached, woke time.Time) time.Time {
	if reached.Before(due) {
		return woke
	}
	return due
}

// dueTime is the send time of request i in an open loop at rate per second.
func dueTime(start time.Time, i int, rate float64) time.Time {
	return start.Add(time.Duration(float64(i) * float64(time.Second) / rate))
}

// openLoop sends qs in order on a fixed schedule of rate requests per
// second over conns connections, whatever the server's progress, and
// stops after n requests or when ctx ends. The samples come back in
// schedule order. seqBase ≥ 0 numbers the requests for the traced
// run's handler timer.
func openLoop(ctx context.Context, c *client, qs []*query, n int, rate float64, conns int, seqBase int) []sample {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		mu   sync.Mutex
		out  []sample
	)
	start := time.Now().Add(10 * time.Millisecond)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					break
				}
				due := dueTime(start, i, rate)
				reached := time.Now()
				woke := reached
				if reached.Before(due) {
					time.Sleep(due.Sub(reached))
					woke = time.Now()
				}
				s := send(ctx, c, qs[i%len(qs)], seqOf(seqBase, i))
				s.index = i
				s.lat = s.rtt + woke.Sub(latencyStart(due, reached, woke))
				s.late = woke.Sub(due)
				mine = append(mine, s)
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	sort.Slice(out, func(a, b int) bool { return out[a].index < out[b].index })
	return out
}

// closedLoop runs conns clients, each sending its next request as soon as
// the previous one is answered, for d. Client j starts at a different
// offset of qs so the clients do not send the same request in lockstep.
func closedLoop(ctx context.Context, c *client, qs []*query, conns int, d time.Duration, seqBase int) ([]sample, time.Duration) {
	var (
		mu  sync.Mutex
		out []sample
		wg  sync.WaitGroup
		seq atomic.Int64
	)
	start := time.Now()
	stop := start.Add(d)
	for j := 0; j < conns; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			var mine []sample
			for i := j * len(qs) / conns; time.Now().Before(stop) && ctx.Err() == nil; i++ {
				s := send(ctx, c, qs[i%len(qs)], seqOf(seqBase, int(seq.Add(1)-1)))
				s.lat = s.rtt
				mine = append(mine, s)
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}(j)
	}
	wg.Wait()
	return out, time.Since(start)
}

func seqOf(base, i int) int {
	if base < 0 {
		return -1
	}
	return base + i
}

func send(ctx context.Context, c *client, q *query, seq int) sample {
	t := time.Now()
	status, body, err := c.post(ctx, "/v1/query", q.body, seq)
	return sample{q: q, rtt: time.Since(t), seq: seq, status: status, body: body, err: err}
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of xs,
// or NaN for no samples. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := int(math.Ceil(p / 100 * float64(len(s))))
	if r < 1 {
		r = 1
	}
	if r > len(s) {
		r = len(s)
	}
	return s[r-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
