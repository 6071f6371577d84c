// Command perfbench is the serving benchmark of tlevelindex: it builds an
// index, serves it through internal/serve on a loopback socket the way
// cmd/lvserve does, drives it from an in-process load generator over at
// most two connections, checks every answer against independent
// computations, and prints the end-to-end metrics of one workload.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload hot-cached-reads --seed 1 --seconds 15 --trace 0
//
// With --trace 1 the run is repeated with timing wrappers around the
// handler and the engine calls are replayed from outside, and the per-layer
// metrics are printed instead (README.md lists them). The last line of
// standard output is always one JSON object:
//
//	{"correct": true, "attempted": n, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}}}
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is the parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
	deadline time.Duration
	// fault corrupts one answer before it is checked; the benchmark's own
	// tests use it to prove that a failed check fails the run.
	fault string
}

func parseFlags(args []string, stderr io.Writer) (*config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	var trace int
	fs.StringVar(&c.workload, "workload", "", "workload name: "+workloadNames())
	fs.Int64Var(&c.seed, "seed", 1, "seed of the query, arrival and sampling streams")
	fs.Float64Var(&c.seconds, "seconds", 15, "length of the measured read phases, in seconds")
	fs.IntVar(&trace, "trace", 0, "1: print the per-layer metrics of a traced run instead of the end-to-end ones")
	fs.StringVar(&c.workdir, "workdir", ".bench_build", "directory for temporary stores")
	fs.DurationVar(&c.deadline, "deadline", 170*time.Second, "hard deadline: past it the run is abandoned and exits with status 3")
	fs.StringVar(&c.fault, "fault", "", "corrupt one answer before checking it: topk, utk or insert (for tests)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if _, ok := workloads[c.workload]; !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", c.workload, workloadNames())
	}
	if trace != 0 && trace != 1 {
		return nil, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if c.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	switch c.fault {
	case "", "topk", "utk", "insert":
	default:
		return nil, fmt.Errorf("unknown --fault %q", c.fault)
	}
	c.trace = trace == 1
	return &c, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	jan := &janitor{}
	// The deadline fires on its own goroutine: it removes what the run
	// created and exits the process, which closes every listener and
	// connection the run still holds. The benchmark starts no child
	// processes, so nothing outlives it.
	watchdog := time.AfterFunc(cfg.deadline, func() {
		jan.cleanup()
		fmt.Fprintf(stderr, "perfbench: hard deadline of %v reached; abandoning the run\n", cfg.deadline)
		os.Exit(3)
	})
	defer watchdog.Stop()
	defer jan.cleanup()

	wl := workloads[cfg.workload]
	res, err := runWorkload(wl, cfg, jan, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, msg := range res.wrong {
		fmt.Fprintln(stderr, "perfbench: wrong answer:", msg)
	}
	if err := printResult(stdout, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if len(res.wrong) > 0 {
		return 1
	}
	return 0
}

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one invocation reports.
type result struct {
	attempted int
	failed    int
	// wrong describes every answer a check rejected (capped); a wrong
	// answer is also counted in failed.
	wrong   []string
	metrics map[string]metric
}

func printResult(w io.Writer, r *result) error {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-30s %14.4f %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.wrong) == 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// janitor removes what a run leaves on disk, once, on whichever of the
// normal return and the deadline comes first.
type janitor struct {
	mu   sync.Mutex
	dirs []string
	done bool
}

// tempDir creates a directory under parent that cleanup removes.
func (j *janitor) tempDir(parent, pattern string) (string, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.done {
		return "", errors.New("run is shutting down")
	}
	dir, err := os.MkdirTemp(parent, pattern)
	if err != nil {
		return "", err
	}
	j.dirs = append(j.dirs, dir)
	return dir, nil
}

// remove deletes one directory created by tempDir now.
func (j *janitor) remove(dir string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for i, d := range j.dirs {
		if d == dir {
			j.dirs = append(j.dirs[:i], j.dirs[i+1:]...)
			break
		}
	}
	os.RemoveAll(dir)
}

func (j *janitor) cleanup() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.done = true
	for _, d := range j.dirs {
		os.RemoveAll(d)
	}
	j.dirs = nil
}
