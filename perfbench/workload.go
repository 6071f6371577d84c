package main

import (
	"encoding/json"
	"math/rand"
	"sort"
	"strings"

	"tlevelindex/datagen"
)

// query is one request of a workload: its parameters and the JSON body
// POSTed to /v1/query.
type query struct {
	Family string    `json:"family"`
	W      []float64 `json:"w,omitempty"`
	K      int       `json:"k"`
	Focal  *int      `json:"focal,omitempty"`
	Lo     []float64 `json:"lo,omitempty"`
	Hi     []float64 `json:"hi,omitempty"`
	M      int       `json:"m,omitempty"`
	body   []byte
}

func newQuery(q query) *query {
	b, err := json.Marshal(q)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	q.body = b
	return &q
}

// key identifies a query's parameters; equal keys ask the same question.
func (q *query) key() string { return string(q.body) }

// workload describes one traffic mix: the served index, the read mix and
// its open-loop rate, and the write stream.
type workload struct {
	// The index: n options of dimension dim from datagen IND with dataSeed,
	// τ levels, served with replicas read-only copies; durable serves it
	// from a store with a write-ahead log.
	n, dim, tau int
	dataSeed    int64
	replicas    int
	durable     bool
	// rate is the open-loop arrival rate of reads, per second.
	rate float64
	// ingestRate is the open-loop rate of the top-k reader that runs while
	// the durable workload ingests; 0 runs the write stream alone.
	ingestRate float64
	// setupRounds is how many times a run sets up; setup_s is the median.
	setupRounds int
	// mix builds the read stream from the seed and the dataset.
	mix func(rng *rand.Rand, data [][]float64, n int) []*query
	// arrivals builds the write stream: batches of options to insert.
	arrivals func(seed int64, data [][]float64) [][][]float64
}

const (
	batchSize = 16
	// hotSet is the number of distinct kSPR focals, UTK boxes and ORU
	// vectors the hot workload repeats.
	hotSet = 8
	// utkHalf is the half-width of every UTK box: boxes span 1% of each
	// reduced preference axis.
	utkHalf = 0.005
	// ingestArrivals is the length of the durable workload's stream.
	ingestArrivals = 256
	// filteredBatches is the length, in batches, of the read workloads'
	// write stream.
	filteredBatches = 5000
)

var workloads = map[string]*workload{
	"hot-cached-reads": {
		n: 8000, dim: 3, tau: 8, dataSeed: 1, replicas: 2,
		rate: 1500, setupRounds: 3,
		mix:      hotMix,
		arrivals: filteredArrivals,
	},
	"cold-analytic-reads": {
		n: 8000, dim: 3, tau: 8, dataSeed: 1, replicas: 2,
		rate: 400, setupRounds: 3,
		mix:      coldMix,
		arrivals: filteredArrivals,
	},
	"durable-ingest-with-reads": {
		n: 8000, dim: 2, tau: 8, dataSeed: 2, replicas: 1,
		durable: true, rate: 400, ingestRate: 100, setupRounds: 9,
		mix:      durableMix,
		arrivals: ingestStream,
	},
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// reduced drops the last weight: the index's reduced preference
// coordinates.
func reduced(w []float64) []float64 { return append([]float64(nil), w[:len(w)-1]...) }

// full completes reduced coordinates to a weight vector summing to 1.
func full(x []float64) []float64 {
	w := append([]float64(nil), x...)
	s := 0.0
	for _, v := range x {
		s += v
	}
	return append(w, 1-s)
}

// prefStream draws weight vectors from dist with a seed taken from rng.
func prefStream(rng *rand.Rand, dist datagen.PrefDist, n, d int) [][]float64 {
	return datagen.Preferences(dist, n, d, rng.Int63())
}

// utkBox returns the box of half-width utkHalf around the reduced point of
// w, or ok=false when the box would leave the weight simplex.
func utkBox(w []float64) (lo, hi []float64, ok bool) {
	x := reduced(w)
	sum := 0.0
	lo, hi = make([]float64, len(x)), make([]float64, len(x))
	for i, v := range x {
		lo[i], hi[i] = v-utkHalf, v+utkHalf
		if lo[i] < 0 {
			return nil, nil, false
		}
		sum += hi[i]
	}
	return lo, hi, sum <= 1
}

// boxes draws count UTK boxes around vectors from ws, skipping vectors
// whose box would leave the simplex.
func boxes(ws [][]float64, count int) (los, his [][]float64) {
	for _, w := range ws {
		if lo, hi, ok := utkBox(w); ok {
			los, his = append(los, lo), append(his, hi)
			if len(los) == count {
				break
			}
		}
	}
	return los, his
}

// focalPool returns up to count distinct options that rank top-k at some
// of the vectors ws — focals whose kSPR regions are not empty — computed
// by brute force, ascending.
func focalPool(data [][]float64, ws [][]float64, k, count int) []int {
	seen := map[int]bool{}
	var out []int
	for _, w := range ws {
		for _, id := range bruteTopK(data, w, k) {
			if !seen[id] && len(out) < count {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	sort.Ints(out)
	return out
}

// fixedSeed seeds what every run shares whatever --seed says: the hot
// sets and the kSPR focal pools. A focal option's region count sets its
// kSPR cost, so a pool drawn per seed would move kspr_p50_us from seed to
// seed by itself.
const fixedSeed = 4

func fixedRand() *rand.Rand { return rand.New(rand.NewSource(fixedSeed)) }

func intp(v int) *int { return &v }

// cycle returns the i-th value of 1..max, round robin.
func cycle(i, max int) int { return 1 + i%max }

// hotMix is clustered top-k at every k ≤ τ, plus kSPR, UTK and ORU over
// hot sets of hotSet focals, boxes and vectors: after the first pass over
// the hot sets nearly every request is an answer-cache hit. Per ten
// requests: 7 top-k, 1 kSPR, 1 UTK, 1 ORU.
func hotMix(rng *rand.Rand, data [][]float64, n int) []*query {
	d := len(data[0])
	ws := prefStream(rng, datagen.PrefClustered, n, d)
	hot := prefStream(fixedRand(), datagen.PrefClustered, 4*hotSet, d)
	focals := focalPool(data, hot, 2, hotSet)
	los, his := boxes(hot, hotSet)
	out := make([]*query, n)
	for i := range out {
		j := i / 10
		switch i % 10 {
		case 7:
			out[i] = newQuery(query{Family: "kspr", K: cycle(j, 2), Focal: intp(focals[j%len(focals)])})
		case 8:
			out[i] = newQuery(query{Family: "utk", K: 2 * cycle(j, 2), Lo: los[j%len(los)], Hi: his[j%len(his)]})
		case 9:
			k := cycle(j, 2)
			out[i] = newQuery(query{Family: "oru", K: k, M: k + 3, W: hot[j%hotSet]})
		default:
			out[i] = newQuery(query{Family: "topk", K: cycle(i, 8), W: ws[i]})
		}
	}
	return out
}

// coldMix is uniform top-k, kSPR, UTK and ORU, every UTK box and ORU vector
// distinct, so the answer cache misses for them and churns. Per ten
// requests: 4 top-k and 2 each of kSPR, UTK and ORU. k cycles through
// 1..τ, except ORU (1..3, m = k+3), whose brute-force check grows steeply
// with k.
func coldMix(rng *rand.Rand, data [][]float64, n int) []*query {
	d := len(data[0])
	ws := prefStream(rng, datagen.PrefUniform, 2*n, d)
	focals := focalPool(data, prefStream(fixedRand(), datagen.PrefUniform, 64, d), 8, 64)
	los, his := boxes(ws[n:], n)
	out := make([]*query, n)
	for i := range out {
		j := i / 10
		switch i % 10 {
		case 4, 5:
			c := 2*j + i%10 - 4
			out[i] = newQuery(query{Family: "kspr", K: cycle(c, 8), Focal: intp(focals[7*c%len(focals)])})
		case 6, 7:
			out[i] = newQuery(query{Family: "utk", K: cycle(i, 8), Lo: los[i%len(los)], Hi: his[i%len(his)]})
		case 8, 9:
			k := cycle(j, 3)
			out[i] = newQuery(query{Family: "oru", K: k, M: k + 3, W: ws[i]})
		default:
			out[i] = newQuery(query{Family: "topk", K: cycle(i, 8), W: ws[i]})
		}
	}
	return out
}

// ingestReader is the read stream that runs alongside the durable
// workload's ingest: clustered top-k at every k ≤ τ. Each accepted batch
// invalidates the whole answer cache, so it keeps refilling.
func ingestReader(rng *rand.Rand, data [][]float64, n int) []*query {
	ws := prefStream(rng, datagen.PrefClustered, n, len(data[0]))
	out := make([]*query, n)
	for i := range out {
		out[i] = newQuery(query{Family: "topk", K: cycle(i, 8), W: ws[i]})
	}
	return out
}

// durableMix is the read mix of the durable workload once the stream is
// ingested: clustered top-k with a tenth each of kSPR, UTK and ORU.
func durableMix(rng *rand.Rand, data [][]float64, n int) []*query {
	d := len(data[0])
	ws := prefStream(rng, datagen.PrefClustered, n, d)
	uni := prefStream(rng, datagen.PrefUniform, n, d)
	focals := focalPool(data, prefStream(fixedRand(), datagen.PrefUniform, 64, d), 8, 32)
	los, his := boxes(uni, n)
	out := make([]*query, n)
	for i := range out {
		j := i / 10
		switch i % 10 {
		case 7:
			out[i] = newQuery(query{Family: "kspr", K: cycle(j, 8), Focal: intp(focals[7*j%len(focals)])})
		case 8:
			out[i] = newQuery(query{Family: "utk", K: cycle(j, 8), Lo: los[j%len(los)], Hi: his[j%len(his)]})
		case 9:
			k := cycle(j, 3)
			out[i] = newQuery(query{Family: "oru", K: k, M: k + 3, W: uni[i]})
		default:
			out[i] = newQuery(query{Family: "topk", K: cycle(i, 8), W: ws[i]})
		}
	}
	return out
}

// filteredArrivals is the read workloads' write stream: IND options scaled
// by 0.6, each dominated by hundreds of indexed options, so the τ-skyband
// prefilter rejects every one (id -1) and neither the index nor the answer
// cache changes. It measures the write path a settled index sees most.
func filteredArrivals(seed int64, data [][]float64) [][][]float64 {
	return batches(scaled(datagen.Generate(datagen.IND, filteredBatches*batchSize, len(data[0]), seed), 0.6))
}

// ingestStream is the durable workload's write stream: ingestArrivals IND
// options scaled by 1.04, of which about one in twelve passes the τ-skyband
// prefilter and is inserted. It does not depend on the seed, so every run
// applies the same stream to the same index and the insert cost does not
// vary with the seed or the run length.
func ingestStream(_ int64, data [][]float64) [][][]float64 {
	return batches(scaled(datagen.Generate(datagen.IND, ingestArrivals, len(data[0]), 3), 1.04))
}

func scaled(pts [][]float64, f float64) [][]float64 {
	for _, p := range pts {
		for j := range p {
			p[j] *= f
		}
	}
	return pts
}

func batches(pts [][]float64) [][][]float64 {
	var out [][][]float64
	for len(pts) > 0 {
		n := min(batchSize, len(pts))
		out = append(out, pts[:n])
		pts = pts[n:]
	}
	return out
}
