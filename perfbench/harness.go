package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	tlx "tlevelindex"
	"tlevelindex/datagen"
	"tlevelindex/internal/serve"
	"tlevelindex/internal/store"
)

// storeOptions are cmd/lvserve's defaults for a durable primary.
func storeOptions(dir string) store.Options {
	return store.Options{Dir: dir, SnapshotBytes: 4 << 20, SnapshotRecords: 1024}
}

// server is one served index: the handler, its HTTP server on a loopback
// listener, and what backs it.
type server struct {
	h    *serve.Handler
	srv  *http.Server
	url  string
	ix   *tlx.Index   // memory mode: the writer index
	st   *store.Store // durable mode
	dir  string       // durable mode: the store directory
	done chan struct{}
	// buildTime is the wall time of tlevelindex.Build during set-up.
	buildTime time.Duration
	// timer is the traced run's timing wrapper, nil otherwise.
	timer *handlerTimer
}

// startServer generates the dataset, builds or opens the index, constructs
// the handler with cmd/lvserve's defaults and the workload's replicas,
// listens on a loopback port and waits for the first answered query. The
// returned time is the whole set-up.
func startServer(wl *workload, workdir string, jan *janitor, timer *handlerTimer) (*server, [][]float64, time.Duration, error) {
	t0 := time.Now()
	data := datagen.Generate(datagen.IND, wl.n, wl.dim, wl.dataSeed)
	s := &server{done: make(chan struct{}), timer: timer}
	build := func() (*tlx.Index, error) {
		t := time.Now()
		ix, err := tlx.Build(data, wl.tau)
		s.buildTime = time.Since(t)
		return ix, err
	}
	cfg := serve.Config{Replicas: wl.replicas}
	if wl.durable {
		dir, err := jan.tempDir(workdir, "store-")
		if err != nil {
			return nil, nil, 0, err
		}
		s.dir = dir
		if s.st, err = store.Open(storeOptions(dir), build); err != nil {
			jan.remove(dir)
			return nil, nil, 0, fmt.Errorf("open store: %w", err)
		}
		s.h = serve.NewStoreHandler(s.st, cfg)
	} else {
		ix, err := build()
		if err != nil {
			return nil, nil, 0, fmt.Errorf("build: %w", err)
		}
		s.ix = ix
		s.h = serve.NewHandler(ix, cfg)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close(jan)
		return nil, nil, 0, err
	}
	var handler http.Handler = s.h.Mux()
	if timer != nil {
		handler = timer.wrap(handler)
	}
	s.srv = &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	s.url = "http://" + ln.Addr().String()
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	c := newClient(s.url, 1)
	defer c.close()
	w := make([]float64, wl.dim)
	for i := range w {
		w[i] = 1 / float64(wl.dim)
	}
	q := newQuery(query{Family: "topk", K: 1, W: w})
	status, body, err := c.post(context.Background(), "/v1/query", q.body, -1)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("first query: status %d: %s", status, body)
	}
	if err != nil {
		s.close(jan)
		return nil, nil, 0, err
	}
	return s, data, time.Since(t0), nil
}

// close stops the HTTP server, waits for its serve loop to end and closes
// the store (a final snapshot). The store directory stays until
// jan.remove: the durable check reopens it.
func (s *server) close(jan *janitor) error {
	var err error
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err = s.srv.Shutdown(ctx)
		cancel()
		<-s.done
	}
	if s.st != nil {
		err = errors.Join(err, s.st.Close())
	}
	return err
}

// index returns the writer index; use it only while no request is in flight.
func (s *server) index() *tlx.Index {
	if s.st != nil {
		return s.st.Index()
	}
	return s.ix
}

// indexBytes is the serialized size of the writer index.
func (s *server) indexBytes() (int64, error) {
	if s.st != nil {
		s.st.Mutex().RLock()
		defer s.st.Mutex().RUnlock()
	}
	return s.index().WriteTo(io.Discard)
}

// envelope is the /v1/query response.
type envelope struct {
	Result json.RawMessage `json:"result"`
	Stats  struct {
		VisitedCells int `json:"visitedCells"`
		LPCalls      int `json:"lpCalls"`
	} `json:"stats"`
	Cached bool   `json:"cached"`
	LSN    uint64 `json:"lsn"`
}

// insertItem is one item of a /v1/insert/batch response.
type insertItem struct {
	ID     *int    `json:"id"`
	LSN    *uint64 `json:"lsn"`
	Error  string  `json:"error"`
	Status int     `json:"status"`
}

// writeSample is the outcome of one posted insert batch.
type writeSample struct {
	index int // sending order
	batch [][]float64
	rtt   time.Duration
	seq   int
	items []insertItem
	err   error
}

// postBatches sends batches from writers concurrent writers, each posting
// its next batch once its previous one is acknowledged. With d = 0 every
// batch is sent once; otherwise the writers cycle through the batches
// until d has passed. The samples come back in sending order.
func postBatches(ctx context.Context, c *client, batches [][][]float64, writers int, d time.Duration, seqBase int) ([]writeSample, time.Duration) {
	bodies := make([][]byte, len(batches))
	for i, b := range batches {
		bodies[i], _ = json.Marshal(struct {
			Options [][]float64 `json:"options"`
		}{b})
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		mu   sync.Mutex
		out  []writeSample
	)
	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []writeSample
			for {
				i := int(next.Add(1) - 1)
				if (d == 0 && i >= len(batches)) || (d > 0 && time.Since(start) >= d) || ctx.Err() != nil {
					break
				}
				j := i % len(batches)
				ws := postBatch(ctx, c, batches[j], bodies[j], seqOf(seqBase, i))
				ws.index = i
				mine = append(mine, ws)
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	sort.Slice(out, func(a, b int) bool { return out[a].index < out[b].index })
	return out, elapsed
}

func postBatch(ctx context.Context, c *client, batch [][]float64, body []byte, seq int) writeSample {
	t := time.Now()
	status, resp, err := c.post(ctx, "/v1/insert/batch", body, seq)
	out := writeSample{batch: batch, rtt: time.Since(t), seq: seq, err: err}
	if err == nil && status != http.StatusOK {
		out.err = fmt.Errorf("insert batch: status %d: %s", status, resp)
	}
	if out.err == nil {
		var env struct {
			Results []insertItem `json:"results"`
		}
		if err := json.Unmarshal(resp, &env); err != nil || len(env.Results) != len(batch) {
			out.err = fmt.Errorf("insert batch: bad response %q", resp)
		} else {
			out.items = env.Results
		}
	}
	return out
}
