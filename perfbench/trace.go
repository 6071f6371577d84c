package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	tlx "tlevelindex"
	"tlevelindex/internal/geom"
	"tlevelindex/internal/lp"
	"tlevelindex/internal/store"
)

// The traced run measures each layer from outside the program: a timing
// wrapper around the handler Handler.Mux() returns, the client's round
// trip and response bytes, counters scraped from /v1/metrics, and replays
// of the engine calls (tlevelindex's public API, internal/store) on an
// identical index or store after the load has stopped. Nothing inside the
// program is changed or switched on for it.

// handlerTimer times every request that carries an X-Bench-Seq header.
type handlerTimer struct {
	mu    sync.Mutex
	times map[int]time.Duration
}

func newHandlerTimer() *handlerTimer { return &handlerTimer{times: map[int]time.Duration{}} }

func (t *handlerTimer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seq, err := strconv.Atoi(r.Header.Get(seqHeader))
		start := time.Now()
		h.ServeHTTP(w, r)
		if err == nil {
			d := time.Since(start)
			t.mu.Lock()
			t.times[seq] = d
			t.mu.Unlock()
		}
	})
}

func (t *handlerTimer) get(seq int) (time.Duration, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	d, ok := t.times[seq]
	return d, ok
}

// replayShare is the number of reads replayed per pass: a uniform
// subsample of the served reads, so that handler and replay statistics
// describe the same population.
const replayShare = 2400

// readReplay accumulates the engine-side replay of served reads.
type readReplay struct {
	locate  []float64
	family  map[string][]float64 // µs per replayed call, by family
	visited []float64
	lpCalls []float64
	// engine is the replayed engine time of each traced request: the
	// locate a top-k pays even on a cache hit, plus the traversal on a miss.
	engine        map[int]time.Duration
	solves        uint64
	dykstraCycles uint64
	queries       int
	// pick selects a read for replay with probability 1/stride; a random
	// choice, because a regular stride can alias with the mixes' period.
	stride int
	pick   *rand.Rand
}

func newReadReplay(reads int) *readReplay {
	return &readReplay{family: map[string][]float64{}, engine: map[int]time.Duration{},
		stride: max(1, reads/replayShare), pick: rand.New(rand.NewSource(1))}
}

// replay re-runs the served reads in ss whose envelope LSN is lsn on ix,
// which must hold exactly the state of that LSN.
func (rr *readReplay) replay(ix *tlx.Index, ss []sample, lsn uint64) error {
	ctx := context.Background()
	for _, s := range ss {
		var env envelope
		if rr.pick.Intn(rr.stride) != 0 || s.err != nil || json.Unmarshal(s.body, &env) != nil || env.LSN != lsn {
			continue
		}
		q := s.q
		var engine time.Duration
		if q.Family == "topk" {
			t := time.Now()
			if _, _, err := ix.LocateDepth(q.W, q.K); err != nil {
				return err
			}
			engine = time.Since(t)
			rr.locate = append(rr.locate, micros(engine))
		}
		s0 := lp.Solves()
		_, c0 := geom.DykstraStats()
		t := time.Now()
		st, err := replayOne(ctx, ix, q)
		d := time.Since(t)
		if err != nil {
			return fmt.Errorf("replay %s: %w", q.body, err)
		}
		_, c1 := geom.DykstraStats()
		rr.solves += lp.Solves() - s0
		rr.dykstraCycles += c1 - c0
		rr.queries++
		rr.family[q.Family] = append(rr.family[q.Family], micros(d))
		rr.visited = append(rr.visited, float64(st.VisitedCells))
		rr.lpCalls = append(rr.lpCalls, float64(st.LPCalls))
		if !env.Cached {
			engine += d
		}
		if s.seq >= 0 {
			rr.engine[s.seq] = engine
		}
	}
	return nil
}

func replayOne(ctx context.Context, ix *tlx.Index, q *query) (tlx.QueryStats, error) {
	switch q.Family {
	case "topk":
		r, err := ix.TopKContext(ctx, q.W, q.K)
		if err != nil {
			return tlx.QueryStats{}, err
		}
		return r.Stats, nil
	case "kspr":
		r, err := ix.KSPRContext(ctx, q.K, *q.Focal)
		if err != nil {
			return tlx.QueryStats{}, err
		}
		return r.Stats, nil
	case "utk":
		r, err := ix.UTKContext(ctx, q.K, q.Lo, q.Hi)
		if err != nil {
			return tlx.QueryStats{}, err
		}
		return r.Stats, nil
	case "oru":
		r, err := ix.ORUContext(ctx, q.K, q.W, q.M)
		if err != nil {
			return tlx.QueryStats{}, err
		}
		return r.Stats, nil
	}
	return tlx.QueryStats{}, fmt.Errorf("unexpected family %q", q.Family)
}

// writeReplay accumulates the engine-side replay of the write stream.
type writeReplay struct {
	batchMs, thawMs, finalizeMs, accepted []float64
	republishMs                           []float64
	storeMs                               []float64
}

// tracedRun serves the workload again with the handler timer installed,
// replays the engine calls, and returns the per-layer metrics. It prints
// the per-layer table and the tracing overhead against the untraced pass.
func tracedRun(ctx context.Context, wl *workload, cfg *config, jan *janitor, out io.Writer,
	p *plan, untraced map[string]metric, builds []float64) (map[string]metric, error) {
	timer := newHandlerTimer()
	srv, data, _, err := startServer(wl, cfg.workdir, jan, timer)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	fmt.Fprintf(out, "# serving %s\n", srv.url)
	pass, runErr := runPass(ctx, srv, wl, cfg, p, true)
	buildStats := srv.index().Stats()
	cells := srv.index().NumCells()
	closeErr := srv.close(jan)
	jan.remove(srv.dir)
	if runErr != nil || closeErr != nil {
		return nil, fmt.Errorf("traced run: %v %v", runErr, closeErr)
	}
	notes(out, "traced", pass)
	reads := append(append(append([]sample(nil), pass.ingest...), pass.open...), pass.closed...)

	rr := newReadReplay(len(reads))
	wr := &writeReplay{}
	if wl.durable {
		if err := replayDurable(wl, cfg, jan, data, pass, reads, rr, wr); err != nil {
			return nil, err
		}
	} else {
		// Filtered arrivals leave the index unchanged, so the writer index
		// the pass served is identical to the one every read saw; nothing
		// uses it once the server is closed.
		if err := rr.replay(srv.ix, reads, 0); err != nil {
			return nil, err
		}
		for _, w := range pass.writes {
			replayBatch(srv.ix, w.batch, wr, false)
		}
	}

	var handlerUs, selfUs, httpUs, bytesN []float64
	hits := 0
	for _, s := range reads {
		h, ok := srv.timer.get(s.seq)
		if !ok || s.err != nil {
			continue
		}
		handlerUs = append(handlerUs, micros(h))
		httpUs = append(httpUs, micros(s.rtt-h))
		bytesN = append(bytesN, float64(len(s.body)))
		var env envelope
		if json.Unmarshal(s.body, &env) == nil && env.Cached {
			hits++
		}
		if e, ok := rr.engine[s.seq]; ok {
			selfUs = append(selfUs, micros(h-e))
		}
	}
	var engineUs, engineHandlerUs []float64
	for seq, e := range rr.engine {
		if h, ok := srv.timer.get(seq); ok {
			engineUs = append(engineUs, micros(e))
			engineHandlerUs = append(engineHandlerUs, micros(h))
		}
	}
	var insertUs []float64
	records := 0
	for _, w := range pass.writes {
		records += len(w.batch)
		if h, ok := srv.timer.get(w.seq); ok {
			insertUs = append(insertUs, millis(h))
		}
	}
	var ingestUs []float64
	for _, s := range pass.ingest {
		ingestUs = append(ingestUs, micros(s.lat))
	}
	nq := float64(rr.queries)
	m := map[string]metric{
		"http.overhead_us":              {median(httpUs), "us"},
		"serve.handler_us":              {median(handlerUs), "us"},
		"serve.self_us":                 {median(selfUs), "us"},
		"serve.engine_share":            {ratio(sum(engineUs), sum(engineHandlerUs)), "ratio"},
		"serve.response_bytes":          {mean(bytesN), "bytes"},
		"serve.insert_handler_ms":       {median(insertUs), "ms"},
		"cache.hit_ratio":               {ratio(float64(hits), float64(len(handlerUs))), "ratio"},
		"cache.evictions_per_query":     {ratio(pass.evictions, float64(len(pass.open)+len(pass.closed))), "count"},
		"index.locate_us":               {median(rr.locate), "us"},
		"index.topk_us":                 {median(rr.family["topk"]), "us"},
		"index.kspr_us":                 {median(rr.family["kspr"]), "us"},
		"index.utk_us":                  {median(rr.family["utk"]), "us"},
		"index.oru_us":                  {median(rr.family["oru"]), "us"},
		"index.visited_cells":           {mean(rr.visited), "count"},
		"index.lp_calls":                {mean(rr.lpCalls), "count"},
		"lp.solves_per_query":           {ratio(float64(rr.solves), nq), "count"},
		"geom.dykstra_cycles_per_query": {ratio(float64(rr.dykstraCycles), nq), "count"},
		"build.s":                       {median(builds), "s"},
		"build.lp_calls":                {float64(buildStats.LPCalls), "count"},
		"build.verdict_hit_ratio":       {buildStats.VerdictHitRate(), "ratio"},
		"index.cells":                   {float64(cells), "count"},
		"index.insert_batch_ms":         {median(wr.batchMs), "ms"},
		"index.thaw_ms":                 {mean(wr.thawMs), "ms"},
		"index.finalize_ms":             {mean(wr.finalizeMs), "ms"},
		"index.accepted_per_batch":      {mean(wr.accepted), "count"},
		"store.insert_batch_ms":         {median0(wr.storeMs), "ms"},
		"wal.fsyncs_per_record":         {ratio(pass.fsyncs, float64(records)), "count"},
		"wal.bytes_per_record":          {ratio(float64(pass.walBytes), float64(records)), "bytes"},
		"replica.republish_ms":          {median0(wr.republishMs), "ms"},
		"ingest.read_p50_us":            {median0(ingestUs), "us"},
	}
	// The traced pass's own end-to-end figures, against the untraced ones.
	traced := endToEnd(pass, nil)
	fmt.Fprintf(out, "# tracing overhead (traced - untraced):")
	for _, name := range sortedKeys(traced) {
		fmt.Fprintf(out, " %s %+.3g%s", name, traced[name].Value-untraced[name].Value, traced[name].Unit)
	}
	fmt.Fprintln(out)
	return m, nil
}

// replayBatch applies one batch to ix, recording the engine's batch time
// and, when republish is set and the batch changed the index, the cost of
// republishing a replica (serialize, then deserialize).
func replayBatch(ix *tlx.Index, batch [][]float64, wr *writeReplay, republish bool) (logged int) {
	t := time.Now()
	res, bs := ix.InsertBatch(batch)
	wr.batchMs = append(wr.batchMs, millis(time.Since(t)))
	wr.thawMs = append(wr.thawMs, float64(bs.ThawNS)/1e6)
	wr.finalizeMs = append(wr.finalizeMs, float64(bs.FinalizeNS)/1e6)
	wr.accepted = append(wr.accepted, float64(bs.Accepted))
	for _, r := range res {
		if r.Err == nil && r.ID >= 0 {
			logged++
		}
	}
	if republish && logged > 0 {
		t := time.Now()
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err == nil {
			_, _ = tlx.ReadIndex(&buf)
		}
		wr.republishMs = append(wr.republishMs, millis(time.Since(t)))
	}
	return logged
}

// replayDurable rebuilds the durable workload's starting index in memory
// and replays the write stream batch by batch, replaying between batches
// the reads the server answered at that LSN; then it replays the write
// stream through an identical store to time the durable write path.
func replayDurable(wl *workload, cfg *config, jan *janitor, data [][]float64, pass *passResult,
	reads []sample, rr *readReplay, wr *writeReplay) error {
	build := func() (*tlx.Index, error) { return tlx.Build(data, wl.tau) }
	ix, err := build()
	if err != nil {
		return err
	}
	var lsn uint64
	for _, w := range pass.writes {
		if err := rr.replay(ix, reads, lsn); err != nil {
			return err
		}
		lsn += uint64(replayBatch(ix, w.batch, wr, true))
	}
	if err := rr.replay(ix, reads, lsn); err != nil {
		return err
	}

	dir, err := jan.tempDir(cfg.workdir, "replay-")
	if err != nil {
		return err
	}
	defer jan.remove(dir)
	st, err := store.Open(storeOptions(dir), build)
	if err != nil {
		return fmt.Errorf("replay store: %w", err)
	}
	for _, w := range pass.writes {
		t := time.Now()
		if _, _, err := st.InsertBatchLSN(w.batch); err != nil {
			st.Close()
			return fmt.Errorf("replay store insert: %w", err)
		}
		wr.storeMs = append(wr.storeMs, millis(time.Since(t)))
	}
	return st.Close()
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median0 is median with 0 for a layer the workload never reached.
func median0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}
