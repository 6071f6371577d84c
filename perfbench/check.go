package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"tlevelindex/baseline"
	"tlevelindex/internal/geom"
)

// The answer checks trust nothing the served program computes: top-k and
// kSPR are checked against scores computed here, UTK and ORU against the
// baseline package's from-scratch algorithms (JAA, the ORU expansion
// search) plus properties every correct answer has, and insert
// acknowledgements against a dominance count over the dataset.

// scoreTol absorbs floating-point differences between scores computed in
// reduced and in full preference coordinates.
const scoreTol = 1e-9

// bandTol is the half-width of the band around kSPR region boundaries in
// which a sampled weight is not checked: within it the focal option ties
// another option and its rank is decided by rounding.
const bandTol = 1e-7

func score(p, w []float64) float64 {
	s := 0.0
	for i := range p {
		s += p[i] * w[i]
	}
	return s
}

// bruteTopK returns the k best option ids of data at the full weight
// vector w, in descending score order (ties by ascending id).
func bruteTopK(data [][]float64, w []float64, k int) []int {
	type cand struct {
		id int
		s  float64
	}
	best := make([]cand, 0, k+1)
	for id, p := range data {
		s := score(p, w)
		if len(best) == k && s <= best[k-1].s {
			continue
		}
		i := sort.Search(len(best), func(i int) bool { return best[i].s < s })
		best = append(best, cand{})
		copy(best[i+1:], best[i:])
		best[i] = cand{id, s}
		if len(best) > k {
			best = best[:k]
		}
	}
	out := make([]int, len(best))
	for i, c := range best {
		out[i] = c.id
	}
	return out
}

// oracle answers queries independently over one dataset state.
type oracle struct {
	data [][]float64
	brs  *baseline.BRS // built on first use
}

func (o *oracle) baseline() *baseline.BRS {
	if o.brs == nil {
		o.brs = baseline.NewBRS(o.data)
	}
	return o.brs
}

// checkTopK accepts got when it lists min(k, n) distinct valid ids whose
// scores at w equal, rank by rank, the best scores found by brute force.
// Comparing scores rather than ids lets an exact tie resolve either way.
func (o *oracle) checkTopK(w []float64, k int, got []int) error {
	want := bruteTopK(o.data, w, k)
	if len(got) != len(want) {
		return fmt.Errorf("top-%d returned %d options, want %d", k, len(got), len(want))
	}
	seen := map[int]bool{}
	for i, id := range got {
		if id < 0 || id >= len(o.data) || seen[id] {
			return fmt.Errorf("top-%d rank %d: invalid or repeated id %d", k, i+1, id)
		}
		seen[id] = true
		if gs, ws := score(o.data[id], w), score(o.data[want[i]], w); math.Abs(gs-ws) > scoreTol {
			return fmt.Errorf("top-%d rank %d: id %d scores %.12g, brute force has id %d at %.12g", k, i+1, id, gs, want[i], ws)
		}
	}
	return nil
}

// region is a kSPR region as the server encodes it: halfspaces A·x ≤ B in
// reduced coordinates.
type region struct {
	Halfspaces []struct {
		A []float64
		B float64
	}
}

func (r region) contains(x []float64) bool {
	for _, h := range r.Halfspaces {
		dot := -h.B
		for i, a := range h.A {
			dot += a * x[i]
		}
		if dot > 1e-9 {
			return false
		}
	}
	return true
}

// kSPRSamples is the number of weight vectors each kSPR answer is probed at.
const kSPRSamples = 48

// checkKSPR probes the answer at sampled weights: focal must rank top-k at
// a weight exactly when one of the regions contains it. Weights where the
// focal option's score is within bandTol of another option's lie on a
// region boundary and are skipped.
func (o *oracle) checkKSPR(focal, k int, regions []region, rng *rand.Rand) error {
	if focal < 0 || focal >= len(o.data) {
		return fmt.Errorf("kSPR focal %d out of range", focal)
	}
	d := len(o.data[0])
	for s := 0; s < kSPRSamples; s++ {
		w := simplexPoint(rng, d)
		fs := score(o.data[focal], w)
		rank, tie := 1, false
		for id, p := range o.data {
			if id == focal {
				continue
			}
			ps := score(p, w)
			if math.Abs(ps-fs) <= bandTol {
				tie = true
				break
			}
			if ps > fs {
				rank++
			}
		}
		if tie {
			continue
		}
		x := reduced(w)
		in := false
		for _, r := range regions {
			if r.contains(x) {
				in = true
				break
			}
		}
		if in != (rank <= k) {
			return fmt.Errorf("kSPR focal %d k=%d at w=%v: rank %d but region membership %v", focal, k, w, rank, in)
		}
	}
	return nil
}

func simplexPoint(rng *rand.Rand, d int) []float64 {
	w := make([]float64, d)
	sum := 0.0
	for i := range w {
		w[i] = rng.ExpFloat64()
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// utkProbes returns the weight vectors a UTK answer must cover: the box's
// center and its corners that lie in the simplex.
func utkProbes(lo, hi []float64) [][]float64 {
	var out [][]float64
	center := make([]float64, len(lo))
	for i := range lo {
		center[i] = (lo[i] + hi[i]) / 2
	}
	out = append(out, full(center))
	for mask := 0; mask < 1<<len(lo); mask++ {
		x := make([]float64, len(lo))
		sum := 0.0
		for i := range lo {
			x[i] = lo[i]
			if mask&(1<<i) != 0 {
				x[i] = hi[i]
			}
			sum += x[i]
		}
		if sum <= 1 {
			out = append(out, full(x))
		}
	}
	return out
}

// checkUTK accepts options when they are ascending and distinct and
// contain the brute-force top-k at the box's center and corners; with
// exact it must also equal the JAA baseline's option set.
func (o *oracle) checkUTK(lo, hi []float64, k int, options []int, exact bool) error {
	if !sort.IntsAreSorted(options) {
		return fmt.Errorf("UTK k=%d options %v not ascending", k, options)
	}
	set := map[int]bool{}
	for _, id := range options {
		if set[id] || id < 0 || id >= len(o.data) {
			return fmt.Errorf("UTK k=%d: invalid or repeated id %d", k, id)
		}
		set[id] = true
	}
	for _, w := range utkProbes(lo, hi) {
		for _, id := range bruteTopK(o.data, w, k) {
			if !set[id] && !tiedOut(o.data, w, k, id) {
				return fmt.Errorf("UTK k=%d box %v..%v misses option %d, top-%d at %v", k, lo, hi, id, k, w)
			}
		}
	}
	if exact {
		ans, _ := baseline.JAA(o.baseline(), geom.NewBox(lo, hi), k)
		if !equalInts(options, ans.Options) {
			return fmt.Errorf("UTK k=%d box %v..%v: %v, JAA has %v", k, lo, hi, options, ans.Options)
		}
	}
	return nil
}

// tiedOut reports whether option id is within bandTol of the best score
// outside the top-k at w: the probe then lies in the boundary band of a
// region where id and that option swap ranks, a band the index and the
// JAA baseline both resolve within their geometric tolerance.
func tiedOut(data [][]float64, w []float64, k, id int) bool {
	top := bruteTopK(data, w, k+1)
	if len(top) <= k {
		return false
	}
	return math.Abs(score(data[id], w)-score(data[top[k]], w)) <= bandTol
}

// checkORU accepts options when they are m distinct ids containing the
// brute-force top-k at w (where ρ = 0 suffices) with ρ ≥ 0; with exact
// both must also match the expansion baseline.
func (o *oracle) checkORU(w []float64, k, m int, options []int, rho float64, exact bool) error {
	if len(options) != min(m, len(o.data)) {
		return fmt.Errorf("ORU k=%d m=%d returned %d options", k, m, len(options))
	}
	if rho < 0 || math.IsNaN(rho) {
		return fmt.Errorf("ORU rho %v", rho)
	}
	set := map[int]bool{}
	for _, id := range options {
		if set[id] || id < 0 || id >= len(o.data) {
			return fmt.Errorf("ORU k=%d: invalid or repeated id %d", k, id)
		}
		set[id] = true
	}
	for _, id := range bruteTopK(o.data, w, k) {
		if !set[id] && !tiedOut(o.data, w, k, id) {
			return fmt.Errorf("ORU k=%d m=%d at %v misses top-%d option %d", k, m, w, k, id)
		}
	}
	if exact {
		ans, _ := baseline.ORU(o.baseline(), reduced(w), k, m)
		if math.Abs(ans.Rho-rho) > 1e-6 {
			return fmt.Errorf("ORU k=%d m=%d at %v: rho %v, baseline %v", k, m, w, rho, ans.Rho)
		}
		a, b := append([]int(nil), options...), append([]int(nil), ans.Options...)
		sort.Ints(a)
		sort.Ints(b)
		if !equalInts(a, b) {
			return fmt.Errorf("ORU k=%d m=%d at %v: options %v, baseline %v", k, m, w, a, b)
		}
	}
	return nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func dominates(a, b []float64) bool {
	strict := false
	for i := range a {
		if a[i] < b[i] {
			return false
		}
		if a[i] > b[i] {
			strict = true
		}
	}
	return strict
}

// ack is one acknowledged insert: the option, and the id and LSN the
// server answered.
type ack struct {
	option []float64
	id     int
	lsn    uint64
}

// ledger replays a write stream independently: an arrival is filtered
// (id -1) exactly when at least τ options of the dataset at that moment
// dominate it, and otherwise becomes the next dataset id. It records the
// dataset size after every logged LSN, so a read stamped with an LSN can be
// checked against the dataset as of that LSN.
type ledger struct {
	tau   int
	data  [][]float64
	sizes map[uint64]int // LSN → dataset size
	last  uint64
}

func newLedger(base [][]float64, tau int, lsn uint64) *ledger {
	return &ledger{tau: tau, data: base[:len(base):len(base)], sizes: map[uint64]int{lsn: len(base)}, last: lsn}
}

// apply checks one acknowledgement against the ledger and advances it.
func (l *ledger) apply(a ack) error {
	dom := 0
	for _, p := range l.data {
		if dominates(p, a.option) {
			if dom++; dom >= l.tau {
				break
			}
		}
	}
	if dom >= l.tau {
		if a.id != -1 {
			return fmt.Errorf("insert %v: %d options dominate it (τ=%d) but it was given id %d", a.option, dom, l.tau, a.id)
		}
		return nil
	}
	if a.id != len(l.data) {
		return fmt.Errorf("insert %v: fewer than τ=%d dominators, want id %d, got %d", a.option, l.tau, len(l.data), a.id)
	}
	if a.lsn <= l.last {
		return fmt.Errorf("insert %v: lsn %d does not advance past %d", a.option, a.lsn, l.last)
	}
	l.data = append(l.data, a.option)
	l.last = a.lsn
	l.sizes[a.lsn] = len(l.data)
	return nil
}

// at returns the dataset as of lsn, or nil for an LSN no insert produced.
func (l *ledger) at(lsn uint64) [][]float64 {
	n, ok := l.sizes[lsn]
	if !ok {
		return nil
	}
	return l.data[:n:n]
}
