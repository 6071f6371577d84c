package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	tlx "tlevelindex"
	"tlevelindex/datagen"
)

func TestPercentile(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {1, 1},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 9 {
		t.Error("percentile sorted its input in place")
	}
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := percentile(big, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
}

func TestLatencyStart(t *testing.T) {
	t0 := time.Unix(1000, 0)
	due := t0.Add(10 * time.Millisecond)
	// Reached early: the generator slept and its timer woke 2 ms late;
	// that lateness is not the server's.
	woke := due.Add(2 * time.Millisecond)
	if got := latencyStart(due, t0, woke); !got.Equal(woke) {
		t.Errorf("early request timed from %v, want the wake-up %v", got, woke)
	}
	// Reached late: every connection was busy past the due time, so the
	// backlog counts.
	reached := due.Add(7 * time.Millisecond)
	if got := latencyStart(due, reached, reached); !got.Equal(due) {
		t.Errorf("late request timed from %v, want its due time %v", got, due)
	}
	if got := dueTime(t0, 250, 1000); !got.Equal(t0.Add(250 * time.Millisecond)) {
		t.Errorf("request 250 at 1000/s due at %v", got.Sub(t0))
	}
}

// TestOpenLoopCountsStalls stalls the first request for 60 ms on one
// connection: the requests due during the stall must carry the wait from
// their due time, and the ones after it must not.
func TestOpenLoopCountsStalls(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 1 {
			time.Sleep(60 * time.Millisecond)
		}
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()
	c := newClient(srv.URL, 1)
	defer c.close()
	q := newQuery(query{Family: "topk", K: 1, W: []float64{0.5, 0.5}})
	const rate = 100 // one request every 10 ms
	ss := openLoop(context.Background(), c, []*query{q}, 20, rate, 1, -1)
	if len(ss) != 20 {
		t.Fatalf("%d samples, want 20", len(ss))
	}
	for i, s := range ss {
		if s.index != i || s.err != nil {
			t.Fatalf("sample %d: index %d err %v", i, s.index, s.err)
		}
	}
	if ss[0].lat < 60*time.Millisecond {
		t.Errorf("stalled request latency %v, want ≥ 60ms", ss[0].lat)
	}
	// Request i (1 ≤ i ≤ 5) was due at 10i ms and could not be sent before
	// the stall ended at 60 ms.
	for i := 1; i <= 5; i++ {
		if min := time.Duration(60-10*i) * time.Millisecond; ss[i].lat < min-time.Millisecond {
			t.Errorf("request %d queued behind the stall: latency %v, want ≥ %v", i, ss[i].lat, min)
		}
	}
	if last := ss[19]; last.lat > 30*time.Millisecond {
		t.Errorf("request after the backlog drained: latency %v", last.lat)
	}
}

// smallIndex builds a small index with the dataset the checks run against.
func smallIndex(t *testing.T) ([][]float64, *tlx.Index) {
	t.Helper()
	data := datagen.Generate(datagen.IND, 300, 3, 7)
	ix, err := tlx.Build(data, 4)
	if err != nil {
		t.Fatal(err)
	}
	return data, ix
}

func TestChecksAcceptTheIndex(t *testing.T) {
	data, ix := smallIndex(t)
	o := &oracle{data: data}
	rng := rand.New(rand.NewSource(1))
	for i, w := range datagen.Preferences(datagen.PrefUniform, 20, 3, 3) {
		k := 1 + i%4
		q := []*query{
			newQuery(query{Family: "topk", K: k, W: w}),
			newQuery(query{Family: "oru", K: 1 + i%2, M: 3, W: w}),
		}
		if lo, hi, ok := utkBox(w); ok {
			q = append(q, newQuery(query{Family: "utk", K: k, Lo: lo, Hi: hi}))
		}
		focal := bruteTopK(data, w, 1)[0]
		q = append(q, newQuery(query{Family: "kspr", K: k, Focal: &focal}))
		for _, qq := range q {
			if err := served(t, ix, qq).check(o, rng, true); err != nil {
				t.Errorf("correct answer rejected: %v", err)
			}
		}
	}
}

// served returns q's answer from ix as a check item, as if it had come
// through the server.
func served(t *testing.T, ix *tlx.Index, q *query) *checkItem {
	t.Helper()
	r, err := direct(ix, q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return &checkItem{q: q, result: b}
}

func TestTopKCheckRejectsSwappedID(t *testing.T) {
	data, ix := smallIndex(t)
	o := &oracle{data: data}
	w := []float64{0.3, 0.3, 0.4}
	it := served(t, ix, newQuery(query{Family: "topk", K: 4, W: w}))
	injectFault("topk", []*checkItem{it})
	if err := it.check(o, nil, false); err == nil {
		t.Fatal("swapped top-k id accepted")
	}
	// Swapping two ranks is wrong too: the answer is ranked.
	got := bruteTopK(data, w, 4)
	got[0], got[1] = got[1], got[0]
	if err := o.checkTopK(w, 4, got); err == nil {
		t.Fatal("top-k with two ranks swapped accepted")
	}
}

func TestUTKCheckRejectsDroppedOption(t *testing.T) {
	data, ix := smallIndex(t)
	o := &oracle{data: data}
	lo, hi := []float64{0.3, 0.3}, []float64{0.31, 0.31}
	for _, exact := range []bool{false, true} {
		it := served(t, ix, newQuery(query{Family: "utk", K: 3, Lo: lo, Hi: hi}))
		injectFault("utk", []*checkItem{it})
		if err := it.check(o, nil, exact); err == nil {
			t.Fatalf("UTK answer with an option dropped accepted (exact=%v)", exact)
		}
	}
}

func TestKSPRCheckRejectsDroppedRegion(t *testing.T) {
	data, ix := smallIndex(t)
	o := &oracle{data: data}
	focal := bruteTopK(data, []float64{1. / 3, 1. / 3, 1. / 3}, 1)[0]
	it := served(t, ix, newQuery(query{Family: "kspr", K: 4, Focal: &focal}))
	var r ksprResult
	if err := json.Unmarshal(it.result, &r); err != nil || len(r.Regions) == 0 {
		t.Fatalf("kSPR answer %s: %v", it.result, err)
	}
	if err := o.checkKSPR(focal, 4, nil, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("kSPR answer without its regions accepted")
	}
}

func TestORUCheckRejectsWrongOption(t *testing.T) {
	data, ix := smallIndex(t)
	o := &oracle{data: data}
	w := []float64{0.2, 0.5, 0.3}
	res, err := ix.ORU(2, w, 4)
	if err != nil {
		t.Fatal(err)
	}
	top := bruteTopK(data, w, 1)[0]
	bad := append([]int(nil), res.Options...)
	for i, id := range bad {
		if id == top {
			bad[i] = (id + 1) % len(data)
			for contains(res.Options, bad[i]) {
				bad[i] = (bad[i] + 1) % len(data)
			}
		}
	}
	if err := o.checkORU(w, 2, 4, bad, res.Rho, false); err == nil {
		t.Fatal("ORU answer missing the top-1 option accepted")
	}
}

func TestLedgerRejectsWrongInsertID(t *testing.T) {
	base := [][]float64{{0.9, 0.9}, {0.8, 0.95}, {0.95, 0.8}, {0.1, 0.1}}
	// τ = 2: {0.5, 0.5} is dominated by three options and must be filtered;
	// {0.99, 0.1} by none and must become id 4.
	good := []ack{{[]float64{0.5, 0.5}, -1, 0}, {[]float64{0.99, 0.1}, 4, 1}}
	l := newLedger(base, 2, 0)
	for _, a := range good {
		if err := l.apply(a); err != nil {
			t.Fatalf("correct ack rejected: %v", err)
		}
	}
	if got := len(l.at(1)); got != 5 {
		t.Fatalf("dataset at lsn 1 has %d options, want 5", got)
	}
	for _, bad := range [][]ack{
		{{[]float64{0.5, 0.5}, 4, 1}},                                // filtered option given an id
		{{[]float64{0.99, 0.1}, -1, 0}},                              // accepted option reported filtered
		{{[]float64{0.99, 0.1}, 5, 1}},                               // wrong id
		{{[]float64{0.99, 0.1}, 4, 1}, {[]float64{0.1, 0.99}, 5, 1}}, // LSN not advancing
	} {
		l := newLedger(base, 2, 0)
		var err error
		for _, a := range bad {
			if err = l.apply(a); err != nil {
				break
			}
		}
		if err == nil {
			t.Errorf("wrong acks %v accepted", bad)
		}
	}
}

func TestPlansReproduceFromSeed(t *testing.T) {
	for _, name := range []string{"hot-cached-reads", "cold-analytic-reads", "durable-ingest-with-reads"} {
		wl := workloads[name]
		data := datagen.Generate(datagen.IND, wl.n, wl.dim, wl.dataSeed)
		cfg := &config{seed: 11, seconds: 1}
		a, b := makePlan(wl, cfg, data), makePlan(wl, cfg, data)
		if !reflect.DeepEqual(bodies(a.open), bodies(b.open)) || !reflect.DeepEqual(bodies(a.closed), bodies(b.closed)) ||
			!reflect.DeepEqual(bodies(a.ingest), bodies(b.ingest)) || !reflect.DeepEqual(a.writes, b.writes) {
			t.Errorf("%s: two plans from seed 11 differ", name)
		}
		c := makePlan(wl, &config{seed: 12, seconds: 1}, data)
		if reflect.DeepEqual(bodies(a.open), bodies(c.open)) {
			t.Errorf("%s: seeds 11 and 12 give the same reads", name)
		}
		families := map[string]bool{}
		for _, q := range a.open {
			families[q.Family] = true
		}
		if len(families) != 4 {
			t.Errorf("%s: read stream has families %v, want all four", name, families)
		}
	}
}

func bodies(qs []*query) []string {
	out := make([]string, len(qs))
	for i, q := range qs {
		out[i] = string(q.body)
	}
	return out
}

// TestProcessHygiene runs the built command to a normal end, to a failed
// check and into its hard deadline, and checks each time that it exited,
// that its listener is gone and that it left no temporary store behind.
func TestProcessHygiene(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the command")
	}
	bin := filepath.Join(t.TempDir(), "perfbench")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOWORK=off")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for _, c := range []struct {
		name     string
		args     []string
		wantCode int
	}{
		{"success", nil, 0},
		{"failed-check", []string{"--fault", "insert"}, 1},
		{"deadline", []string{"--deadline", "2s"}, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			work := t.TempDir()
			args := append([]string{"--workload", "durable-ingest-with-reads", "--seed", "1",
				"--seconds", "1", "--trace", "0", "-workdir", work}, c.args...)
			cmd := exec.Command(bin, args...)
			var stdout bytes.Buffer
			cmd.Stdout = &stdout
			start := time.Now()
			err := cmd.Run()
			code := 0
			if ee, ok := err.(*exec.ExitError); ok {
				code = ee.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if code != c.wantCode {
				t.Fatalf("exit code %d, want %d; stdout:\n%s", code, c.wantCode, stdout.String())
			}
			if c.name == "deadline" && time.Since(start) > 10*time.Second {
				t.Errorf("deadline run took %v", time.Since(start))
			}
			left, err := os.ReadDir(work)
			if err != nil {
				t.Fatal(err)
			}
			if len(left) != 0 {
				t.Errorf("left behind in the work directory: %v", left)
			}
			for _, line := range strings.Split(stdout.String(), "\n") {
				if addr, ok := strings.CutPrefix(line, "# serving http://"); ok {
					if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
						conn.Close()
						t.Errorf("listener %s still accepts connections", addr)
					}
				}
			}
			if !strings.Contains(stdout.String(), "# serving http://") {
				t.Error("the run never reported its listener")
			}
		})
	}
}
