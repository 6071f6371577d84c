package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	tlx "tlevelindex"
	"tlevelindex/internal/store"
)

const (
	// conns is the number of client connections: nproc on the reference
	// machine, so the generator never outnumbers the server's CPUs.
	conns = 2
	// openShare, closedShare and writeShare split --seconds between the
	// open-loop phase, the closed-loop phase the query metrics come from,
	// and the read workloads' write stream.
	openShare   = 0.1
	closedShare = 0.7
	writeShare  = 0.2
	// ingestPasses is how many times an untraced durable run ingests its
	// stream, each time into a fresh store: one pass has only 16 batch
	// acknowledgements, too few for a steady median.
	ingestPasses = 3
	// utkExact and oruExact cap the answers per run checked against the
	// from-scratch baselines (the rest get the property checks); oruExactK
	// is the largest k for which the ORU expansion baseline stays cheap.
	utkExact  = 24
	oruExact  = 6
	oruExactK = 2
	// maxWrong caps the wrong-answer messages kept for the report.
	maxWrong = 10
)

// plan is a workload's generated inputs for one seed.
type plan struct {
	open   []*query // open-loop read stream
	closed []*query // closed-loop pool
	writes [][][]float64
	ingest []*query // reads alongside the write stream, cycled
}

func makePlan(wl *workload, cfg *config, data [][]float64) *plan {
	rng := rand.New(rand.NewSource(cfg.seed))
	p := &plan{
		open:   wl.mix(rng, data, int(wl.rate*cfg.seconds*openShare)),
		closed: wl.mix(rng, data, 8192),
		writes: wl.arrivals(rng.Int63(), data),
	}
	if wl.ingestRate > 0 {
		// The reader runs for as long as the fixed stream takes to ingest;
		// its stream covers about twenty seconds and is cycled after that.
		p.ingest = ingestReader(rng, data, int(wl.ingestRate*20))
	}
	return p
}

// passResult is everything one pass over a plan observed.
type passResult struct {
	ingest     []sample // reads that ran alongside the write stream
	open       []sample
	closed     []sample
	closedTime time.Duration
	writes     []writeSample
	writeTime  time.Duration
	evictions  float64 // answer-cache evictions during the reads
	fsyncs     float64 // WAL fsyncs during the writes
	walBytes   int64
}

// seq bases keep the traced run's request numbers of the phases apart.
const (
	seqOpen   = 0
	seqClosed = 1 << 24
	seqWrite  = 2 << 24
	seqIngest = 3 << 24
)

// runPass drives one served index through the plan. In the memory
// workloads that is an open-loop read phase, a closed-loop read phase and
// then the write stream. The durable workload ingests its write stream
// first, with an open-loop top-k reader running alongside, then runs the
// two read phases on the grown index.
func runPass(ctx context.Context, s *server, wl *workload, cfg *config, p *plan, traced bool) (*passResult, error) {
	base := func(b int) int {
		if traced {
			return b
		}
		return -1
	}
	c := newClient(s.url, conns)
	defer c.close()
	r := &passResult{}
	ev0, err := scrape(ctx, c, "tlx_cache_evictions_total")
	if err != nil {
		return nil, err
	}
	if wl.durable {
		if err := ingest(ctx, s, c, wl, p, base, r); err != nil {
			return nil, err
		}
	}
	r.open = openLoop(ctx, c, p.open, len(p.open), wl.rate, conns, base(seqOpen))
	r.closed, r.closedTime = closedLoop(ctx, c, p.closed, conns,
		time.Duration(cfg.seconds*closedShare*float64(time.Second)), base(seqClosed))
	ev1, err := scrape(ctx, c, "tlx_cache_evictions_total")
	if err != nil {
		return nil, err
	}
	r.evictions = ev1 - ev0
	if !wl.durable {
		// Every arrival of this stream is filtered, so the order in which
		// concurrent writers apply the batches changes no outcome.
		r.writes, r.writeTime = postBatches(ctx, c, p.writes, conns,
			time.Duration(cfg.seconds*writeShare*float64(time.Second)), base(seqWrite))
	}
	return r, ctx.Err()
}

// ingest posts the durable workload's stream through one writer
// connection while the open-loop reader runs on the other, and records the
// WAL's fsyncs and bytes.
func ingest(ctx context.Context, s *server, c *client, wl *workload, p *plan, base func(int) int, r *passResult) error {
	fs0, err := scrape(ctx, c, "tlx_wal_fsyncs_total")
	if err != nil {
		return err
	}
	wc := newClient(s.url, 1)
	defer wc.close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.writes, r.writeTime = postBatches(ctx, wc, p.writes, 1, 0, base(seqWrite))
	}()
	r.ingest = openLoopUntil(ctx, c, p.ingest, wl.ingestRate, 1, base(seqIngest), done)
	<-done
	fs1, err := scrape(ctx, c, "tlx_wal_fsyncs_total")
	if err != nil {
		return err
	}
	r.fsyncs = fs1 - fs0
	r.walBytes = s.st.Status().WALBytes
	return nil
}

// extraIngest runs the durable workload's ingest on a fresh store, then
// closes it; its samples are checked and pooled into the insert metrics.
func extraIngest(ctx context.Context, wl *workload, cfg *config, jan *janitor, p *plan) (*passResult, time.Duration, error) {
	s, _, t, err := startServer(wl, cfg.workdir, jan, nil)
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	defer jan.remove(s.dir)
	c := newClient(s.url, conns)
	r := &passResult{}
	err = ingest(ctx, s, c, wl, p, func(int) int { return -1 }, r)
	c.close()
	return r, t, errors.Join(err, s.close(jan))
}

// openLoopUntil is openLoop over a cycled stream that stops once done is
// closed.
func openLoopUntil(ctx context.Context, c *client, qs []*query, rate float64, conns, seqBase int, done <-chan struct{}) []sample {
	stop, cancel := context.WithCancel(ctx)
	go func() {
		select {
		case <-done:
		case <-stop.Done():
		}
		cancel()
	}()
	// The requests still in flight when the writer finishes are cut off;
	// they are dropped from the samples, not counted as failures.
	out := openLoop(stop, c, qs, 1<<30, rate, conns, seqBase)
	cancel()
	var kept []sample
	for _, s := range out {
		if s.q != nil && s.err == nil {
			kept = append(kept, s)
		}
	}
	return kept
}

// scrape reads one unlabeled metric from GET /v1/metrics.
func scrape(ctx context.Context, c *client, name string) (float64, error) {
	body, err := c.get(ctx, "/v1/metrics")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	return 0, fmt.Errorf("metric %s not exposed", name)
}

func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runWorkload runs one invocation: the untraced pass with its end-to-end
// metrics, or with --trace 1 the untraced pass followed by the traced pass
// and the replays, reporting the per-layer metrics.
func runWorkload(wl *workload, cfg *config, jan *janitor, out io.Writer) (*result, error) {
	ctx := context.Background()
	rounds := wl.setupRounds
	if cfg.trace {
		rounds = 1
	}
	var (
		srv    *server
		data   [][]float64
		setups []float64
		builds []float64
	)
	for i := 0; i < rounds; i++ {
		if srv != nil {
			if err := srv.close(jan); err != nil {
				return nil, err
			}
			jan.remove(srv.dir)
		}
		s, d, t, err := startServer(wl, cfg.workdir, jan, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		srv, data = s, d
		fmt.Fprintf(out, "# serving %s\n", s.url)
		setups = append(setups, t.Seconds())
		builds = append(builds, srv.buildTime.Seconds())
	}
	heap := heapMB()
	p := makePlan(wl, cfg, data)
	var extra []*passResult
	for i := 1; wl.durable && !cfg.trace && i < ingestPasses; i++ {
		r, t, err := extraIngest(ctx, wl, cfg, jan, p)
		if err != nil {
			srv.close(jan)
			return nil, err
		}
		extra = append(extra, r)
		setups = append(setups, t.Seconds())
	}
	pass, runErr := runPass(ctx, srv, wl, cfg, p, false)
	var ixBytes int64
	if runErr == nil {
		ixBytes, runErr = srv.indexBytes()
	}
	closeErr := srv.close(jan)
	if runErr != nil || closeErr != nil {
		jan.remove(srv.dir)
		return nil, fmt.Errorf("run: %v %v", runErr, closeErr)
	}
	res := &result{metrics: map[string]metric{}}
	for _, r := range extra {
		verify(wl, cfg, data, r, res)
	}
	ck := verify(wl, cfg, data, pass, res)
	if wl.durable {
		if err := checkReopen(srv, pass, ck); err != nil {
			res.addWrong(err)
			res.failed++
		}
		jan.remove(srv.dir)
	}
	e2e := endToEnd(pass, extra)
	e2e["setup_s"] = metric{median(setups), "s"}
	e2e["heap_mb"] = metric{heap, "MiB"}
	e2e["index_bytes"] = metric{float64(ixBytes), "bytes"}
	notes(out, "untraced", pass)
	if !cfg.trace {
		res.metrics = e2e
		return res, nil
	}
	layers, err := tracedRun(ctx, wl, cfg, jan, out, p, e2e, builds)
	if err != nil {
		return nil, err
	}
	res.metrics = layers
	return res, nil
}

func (r *result) addWrong(err error) {
	if len(r.wrong) < maxWrong {
		r.wrong = append(r.wrong, err.Error())
	}
}

// endToEnd computes the user-visible metrics of an untraced pass. Query
// latencies come from the closed-loop phase: on a shared virtual machine
// the open-loop latency of a sub-millisecond request is dominated by how
// fast an idle CPU wakes, which moves 20-30% from run to run (and its p99
// by several times), while the closed loop keeps both CPUs busy and
// repeats within a few percent. The open-loop figures are printed in the
// notes.
func endToEnd(pass *passResult, extra []*passResult) map[string]metric {
	fam, all := latencies(pass.closed)
	ok := len(all)
	var acks []float64
	records := 0
	writeTime := time.Duration(0)
	for _, r := range append([]*passResult{pass}, extra...) {
		for _, w := range r.writes {
			acks = append(acks, millis(w.rtt))
			records += len(w.batch)
		}
		writeTime += r.writeTime
	}
	return map[string]metric{
		"query_qps":            {float64(ok) / pass.closedTime.Seconds(), "queries/s"},
		"query_p99_us":         {percentile(all, 99), "us"},
		"topk_p50_us":          {median(fam["topk"]), "us"},
		"kspr_p50_us":          {median(fam["kspr"]), "us"},
		"utk_p50_us":           {median(fam["utk"]), "us"},
		"oru_p50_us":           {median(fam["oru"]), "us"},
		"insert_records_per_s": {float64(records) / writeTime.Seconds(), "records/s"},
		"insert_ack_p50_ms":    {median(acks), "ms"},
	}
}

// latencies returns the latencies in µs of the successful samples, by
// family and all together.
func latencies(ss []sample) (map[string][]float64, []float64) {
	fam := map[string][]float64{}
	var all []float64
	for _, s := range ss {
		if s.err != nil || s.status != http.StatusOK {
			continue
		}
		us := micros(s.lat)
		fam[s.q.Family] = append(fam[s.q.Family], us)
		all = append(all, us)
	}
	return fam, all
}

// notes prints what the metrics rest on: sample counts, the open-loop
// latencies and how late the open-loop generator ran, cache hits, and the
// acknowledgement time of each insert batch of a short write stream.
func notes(w io.Writer, label string, pass *passResult) {
	var late []float64
	hits := 0
	for _, s := range pass.open {
		late = append(late, micros(s.late))
		var env envelope
		if json.Unmarshal(s.body, &env) == nil && env.Cached {
			hits++
		}
	}
	fam, all := latencies(pass.open)
	fmt.Fprintf(w, "# %s: open loop %d requests, %d cache hits; p50 topk %.0fus kspr %.0fus utk %.0fus oru %.0fus, p99 %.0fus; generator lateness p50 %.0fus p99 %.0fus\n",
		label, len(pass.open), hits, median(fam["topk"]), median(fam["kspr"]), median(fam["utk"]), median(fam["oru"]),
		percentile(all, 99), median(late), percentile(late, 99))
	fam, _ = latencies(pass.closed)
	fmt.Fprintf(w, "# %s: closed loop %d requests (topk %d, kspr %d, utk %d, oru %d) in %.2fs over %d connections; %d insert batches in %.2fs\n",
		label, len(pass.closed), len(fam["topk"]), len(fam["kspr"]), len(fam["utk"]), len(fam["oru"]),
		pass.closedTime.Seconds(), conns, len(pass.writes), pass.writeTime.Seconds())
	if len(pass.ingest) > 0 {
		_, in := latencies(pass.ingest)
		fmt.Fprintf(w, "# %s: %d reads alongside the ingest: p50 %.0fus p99 %.0fus\n", label, len(in), median(in), percentile(in, 99))
	}
	if len(pass.writes) <= 32 {
		fmt.Fprintf(w, "# %s: batch acknowledgements (ms):", label)
		for _, b := range pass.writes {
			fmt.Fprintf(w, " %.0f", millis(b.rtt))
		}
		fmt.Fprintln(w)
	}
}

// checker holds the oracles of one run, one per dataset state.
type checker struct {
	led     *ledger
	oracles map[uint64]*oracle
	final   uint64 // LSN after the last acknowledged insert
}

func (c *checker) oracle(lsn uint64) *oracle {
	if o, ok := c.oracles[lsn]; ok {
		return o
	}
	d := c.led.at(lsn)
	if d == nil {
		return nil
	}
	o := &oracle{data: d}
	c.oracles[lsn] = o
	return o
}

// verify checks every acknowledgement and every distinct answer of the
// pass, counting attempted and failed operations into res.
func verify(wl *workload, cfg *config, data [][]float64, pass *passResult, res *result) *checker {
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x5eed))
	ck := &checker{led: newLedger(data, wl.tau, 0), oracles: map[uint64]*oracle{}}
	fail := func(err error) {
		res.failed++
		res.addWrong(err)
	}
	// Acknowledgements, in sending order. The durable stream has a single
	// writer; the read workloads' stream is all filtered, so the order in
	// which their two writers' batches were applied changes no outcome.
	faulted := false
	for _, w := range pass.writes {
		res.attempted += len(w.batch)
		if w.err != nil {
			res.failed += len(w.batch)
			res.addWrong(w.err)
			continue
		}
		for i, it := range w.items {
			if it.ID == nil || it.LSN == nil {
				fail(fmt.Errorf("insert %v: %s (status %d)", w.batch[i], it.Error, it.Status))
				continue
			}
			a := ack{option: w.batch[i], id: *it.ID, lsn: *it.LSN}
			if cfg.fault == "insert" && !faulted {
				a.id++
				faulted = true
			}
			if err := ck.led.apply(a); err != nil {
				fail(err)
			}
		}
	}
	ck.final = ck.led.last
	// Reads: decode every response, then check each distinct
	// (question, dataset state, answer) once.
	type answerKey struct {
		q   string
		lsn uint64
		res string
	}
	seen := map[answerKey]bool{}
	var uniq []*checkItem
	for _, group := range [][]sample{pass.ingest, pass.open, pass.closed} {
		for _, s := range group {
			res.attempted++
			if s.err != nil || s.status != http.StatusOK {
				fail(fmt.Errorf("%s: status %d: %v %s", s.q.body, s.status, s.err, s.body))
				continue
			}
			var env envelope
			if err := json.Unmarshal(s.body, &env); err != nil {
				fail(fmt.Errorf("%s: bad envelope: %v", s.q.body, err))
				continue
			}
			k := answerKey{s.q.key(), env.LSN, string(env.Result)}
			if seen[k] {
				continue
			}
			seen[k] = true
			uniq = append(uniq, &checkItem{q: s.q, lsn: env.LSN, result: env.Result})
		}
	}
	if cfg.fault != "" {
		injectFault(cfg.fault, uniq)
	}
	utkLeft, oruLeft := utkExact, oruExact
	for _, it := range uniq {
		o := ck.oracle(it.lsn)
		var err error
		if o == nil {
			err = fmt.Errorf("%s: answered at lsn %d, which no acknowledged insert produced", it.q.body, it.lsn)
		} else {
			exact := false
			switch it.q.Family {
			case "utk":
				exact = utkLeft > 0
				utkLeft -= b2i(exact)
			case "oru":
				exact = oruLeft > 0 && it.q.K <= oruExactK
				oruLeft -= b2i(exact)
			}
			err = it.check(o, rng, exact)
		}
		if err != nil {
			// A wrong answer fails every request that received it; count it
			// once, as one failed operation per distinct answer.
			fail(err)
		}
	}
	return ck
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// checkItem is one distinct answer to check.
type checkItem struct {
	q      *query
	lsn    uint64
	result json.RawMessage
}

type topkResult struct {
	Options []int `json:"options"`
}

type ksprResult struct {
	Regions []region `json:"regions"`
}

type utkResult struct {
	Options    []int   `json:"options"`
	Partitions [][]int `json:"partitionTopKSets"`
}

type oruResult struct {
	Options []int   `json:"options"`
	Rho     float64 `json:"rho"`
}

func (it *checkItem) check(o *oracle, rng *rand.Rand, exact bool) error {
	q := it.q
	var err error
	switch q.Family {
	case "topk":
		var r topkResult
		if err = json.Unmarshal(it.result, &r); err == nil {
			err = o.checkTopK(q.W, q.K, r.Options)
		}
	case "kspr":
		var r ksprResult
		if err = json.Unmarshal(it.result, &r); err == nil {
			err = o.checkKSPR(*q.Focal, q.K, r.Regions, rng)
		}
	case "utk":
		var r utkResult
		if err = json.Unmarshal(it.result, &r); err == nil {
			err = o.checkUTK(q.Lo, q.Hi, q.K, r.Options, exact)
		}
	case "oru":
		var r oruResult
		if err = json.Unmarshal(it.result, &r); err == nil {
			err = o.checkORU(q.W, q.K, q.M, r.Options, r.Rho, exact)
		}
	default:
		err = fmt.Errorf("unexpected family %q", q.Family)
	}
	if err != nil {
		return fmt.Errorf("lsn %d: %w", it.lsn, err)
	}
	return nil
}

// injectFault corrupts the first answer of the named kind: a top-k id
// swapped for one outside the answer, or a UTK option dropped.
func injectFault(kind string, items []*checkItem) {
	for _, it := range items {
		switch {
		case kind == "topk" && it.q.Family == "topk":
			var r topkResult
			json.Unmarshal(it.result, &r)
			r.Options[0] = (r.Options[0] + 1) % 8000
			for contains(r.Options[1:], r.Options[0]) {
				r.Options[0] = (r.Options[0] + 1) % 8000
			}
			it.result, _ = json.Marshal(r)
			return
		case kind == "utk" && it.q.Family == "utk":
			var r utkResult
			json.Unmarshal(it.result, &r)
			r.Options = r.Options[1:]
			it.result, _ = json.Marshal(r)
			return
		}
	}
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// reopenSample caps the final-state answers compared after reopening.
const reopenSample = 200

// checkReopen reopens the closed store from its directory and checks that
// it holds the final LSN and gives the answers the server gave at that LSN.
func checkReopen(s *server, pass *passResult, ck *checker) error {
	st, err := store.Open(storeOptions(s.dir), func() (*tlx.Index, error) {
		return nil, fmt.Errorf("store directory %s was empty on reopen", s.dir)
	})
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer st.Close()
	if st.AppliedLSN() != ck.final {
		return fmt.Errorf("reopened store at lsn %d, want %d", st.AppliedLSN(), ck.final)
	}
	ix := st.Index()
	n := 0
	for _, smp := range pass.closed {
		var env envelope
		if json.Unmarshal(smp.body, &env) != nil || env.LSN != ck.final {
			continue
		}
		if n++; n > reopenSample {
			break
		}
		got, err := direct(ix, smp.q)
		if err != nil {
			return fmt.Errorf("reopened store: %s: %w", smp.q.body, err)
		}
		if err := sameResult(smp.q.Family, env.Result, got); err != nil {
			return fmt.Errorf("reopened store: %s: %w", smp.q.body, err)
		}
	}
	return nil
}

// direct answers q on ix through the public API, shaped like the
// envelope's result.
func direct(ix *tlx.Index, q *query) (any, error) {
	ctx := context.Background()
	switch q.Family {
	case "topk":
		r, err := ix.TopKContext(ctx, q.W, q.K)
		if err != nil {
			return nil, err
		}
		return topkResult{Options: r.Options}, nil
	case "kspr":
		r, err := ix.KSPRContext(ctx, q.K, *q.Focal)
		if err != nil {
			return nil, err
		}
		return struct {
			Regions []tlx.Region `json:"regions"`
		}{r.Regions}, nil
	case "utk":
		r, err := ix.UTKContext(ctx, q.K, q.Lo, q.Hi)
		if err != nil {
			return nil, err
		}
		parts := make([][]int, len(r.Partitions))
		for i, p := range r.Partitions {
			parts[i] = p.TopK
		}
		return utkResult{Options: r.Options, Partitions: parts}, nil
	case "oru":
		r, err := ix.ORUContext(ctx, q.K, q.W, q.M)
		if err != nil {
			return nil, err
		}
		return oruResult{Options: r.Options, Rho: r.Rho}, nil
	}
	return nil, fmt.Errorf("unexpected family %q", q.Family)
}

// sameResult compares a served result with a direct one after both pass
// through JSON.
func sameResult(family string, served json.RawMessage, direct any) error {
	b, err := json.Marshal(direct)
	if err != nil {
		return err
	}
	var a, d any
	if err := json.Unmarshal(served, &a); err != nil {
		return err
	}
	if err := json.Unmarshal(b, &d); err != nil {
		return err
	}
	if !reflect.DeepEqual(a, d) {
		return fmt.Errorf("%s answer differs: served %s, reopened %s", family, compact(served), b)
	}
	return nil
}

func compact(b []byte) string {
	s := strings.Join(strings.Fields(string(b)), "")
	if len(s) > 200 {
		s = s[:200] + "..."
	}
	return s
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
