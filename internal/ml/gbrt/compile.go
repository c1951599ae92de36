package gbrt

import (
	"fmt"
	"math"
)

// MaxCompiledDepth is the deepest tree Compile accepts. The complete-tree
// layout stores 2^D leaves per tree, so the cap bounds a compiled
// ensemble's memory; it also turns a cyclic or runaway tree shape into a
// load-time error instead of a prediction that never returns. Training
// grows trees to MaxDepth, at most 5 in every shipped configuration.
const MaxCompiledDepth = 8

// blockRows is how many rows batch scoring carries through every tree of
// every target before moving on: few enough that the block's rows stay
// cache-resident across all of those trees.
const blockRows = 16

// Compiled is a set of ensembles (one per target) over the same feature
// vector, compiled for scoring raw, unstandardized rows:
//
//   - the standardization (x−mean)/std is folded into every split
//     threshold, so rows are scored without a scaler pass;
//   - all targets are scored in one pass over the rows;
//   - every tree is padded to one complete depth D and evaluated by a
//     fixed D-step descent with no data-dependent branch.
//
// Each row's estimate is the model's base plus every tree's leaf in tree
// order, the same float additions as Model.Predict on the standardized
// row, so outputs are bit-identical to scaler + Model.PredictBatchInto. A
// Compiled is immutable and safe for concurrent use.
type Compiled struct {
	depth   int // D: every tree is complete to this depth
	targets []compiledEnsemble
}

// compiledEnsemble is one model in complete-tree layout. Tree i's
// internal nodes are feat/th[i*(2^D−1):], in heap order (node k's
// children are 2k+1 and 2k+2); its leaves are leaf[i*2^D:], left to right.
type compiledEnsemble struct {
	base float64
	feat []int32   // split feature per internal node
	th   []float64 // raw-space threshold per internal node: left iff x[feat] <= th
	leaf []float64 // leaf value per complete-tree leaf
}

// Compile builds the raw-space scoring form of models under the
// standardization (x−mean[j])/std[j]. Every std must be finite and > 0 and
// every mean finite; every split feature must lie inside the scaler's
// width; no tree may be deeper than MaxCompiledDepth.
func Compile(models []*Model, mean, std []float64) (*Compiled, error) {
	if len(mean) != len(std) {
		return nil, fmt.Errorf("gbrt: compile: scaler has %d means and %d deviations", len(mean), len(std))
	}
	for j := range std {
		if !(std[j] > 0) || math.IsInf(std[j], 1) || math.IsNaN(mean[j]) || math.IsInf(mean[j], 0) {
			return nil, fmt.Errorf("gbrt: compile: feature %d has mean %v, deviation %v; want finite, deviation > 0", j, mean[j], std[j])
		}
	}
	c := &Compiled{targets: make([]compiledEnsemble, len(models))}
	for mi, m := range models {
		for ti := range m.trees {
			d, err := treeDepth(m.trees[ti].nodes, 0, 0, len(mean))
			if err != nil {
				return nil, fmt.Errorf("gbrt: compile: model %d tree %d: %w", mi, ti, err)
			}
			c.depth = max(c.depth, d)
		}
	}
	ni, nl := 1<<c.depth-1, 1<<c.depth
	for mi, m := range models {
		e := &c.targets[mi]
		e.base = m.base
		e.feat = make([]int32, len(m.trees)*ni)
		e.th = make([]float64, len(m.trees)*ni)
		e.leaf = make([]float64, len(m.trees)*nl)
		for ti := range m.trees {
			e.place(m.trees[ti].nodes, 0, 0, ti*ni, ti*nl, c.depth, mean, std)
		}
	}
	return c, nil
}

// treeDepth returns the depth of the subtree rooted at node k (a leaf is
// depth 0), rejecting dangling children, split features outside
// [0, width) and any path longer than MaxCompiledDepth — which also
// bounds the walk over a malformed tree whose children loop back.
func treeDepth(nodes []node, k int32, depth, width int) (int, error) {
	if depth > MaxCompiledDepth {
		return 0, fmt.Errorf("deeper than %d levels", MaxCompiledDepth)
	}
	if k < 0 || int(k) >= len(nodes) {
		return 0, fmt.Errorf("dangling child %d", k)
	}
	nd := &nodes[k]
	if nd.feature < 0 {
		return 0, nil
	}
	if int(nd.feature) >= width {
		return 0, fmt.Errorf("node %d splits on feature %d of %d", k, nd.feature, width)
	}
	l, err := treeDepth(nodes, nd.left, depth+1, width)
	if err != nil {
		return 0, err
	}
	r, err := treeDepth(nodes, nd.right, depth+1, width)
	if err != nil {
		return 0, err
	}
	return 1 + max(l, r), nil
}

// place writes the subtree rooted at nodes[k] into heap slot pos of the
// tree whose internal nodes start at in and leaves at lf. A leaf above
// depth D becomes a complete subtree whose every leaf carries its value,
// so the padding splits (feature 0, threshold 0) route to equal values
// whichever way a row goes.
func (e *compiledEnsemble) place(nodes []node, k int32, pos, in, lf, D int, mean, std []float64) {
	nd := &nodes[k]
	ni := 1<<D - 1
	if pos >= ni {
		e.leaf[lf+pos-ni] = nd.value
		return
	}
	l, r := k, k
	if nd.feature >= 0 {
		f := nd.feature
		e.feat[in+pos] = f
		e.th[in+pos] = foldThreshold(nd.thresh, mean[f], std[f])
		l, r = nd.left, nd.right
	}
	e.place(nodes, l, 2*pos+1, in, lf, D, mean, std)
	e.place(nodes, r, 2*pos+2, in, lf, D, mean, std)
}

// foldThreshold rewrites a split on the standardized value into one on the
// raw value: it returns T such that, for every float64 x including NaN
// and ±Inf,
//
//	x <= T  ⇔  (x−mean)/std <= t.
//
// The standardization is monotone non-decreasing in x when std > 0 (each
// IEEE operation rounds monotonically; overflow saturates to ±Inf), so
// the x passing the right-hand test form a down-set and T is the largest
// finite x that passes, or −Inf when none does — found by binary search
// over order-mapped float64 bits, seeded at t·std+mean. NaN fails both
// sides; +Inf passes only when t = +Inf (then T = +Inf); −Inf passes
// whenever t is not NaN (then T ≥ −Inf).
func foldThreshold(t, mean, std float64) float64 {
	pass := func(x float64) bool { return (x-mean)/std <= t }
	switch {
	case math.IsNaN(t):
		return t
	case math.IsInf(t, 1):
		return t
	case !pass(-math.MaxFloat64):
		return math.Inf(-1)
	case pass(math.MaxFloat64):
		return math.MaxFloat64
	}
	// Invariant: pass(lo), !pass(hi), lo < hi. Widths are taken as uint64:
	// the finite key range spans more than int64 can hold.
	lo, hi := orderKey(-math.MaxFloat64), orderKey(math.MaxFloat64)
	if x0 := t*std + mean; !math.IsNaN(x0) && !math.IsInf(x0, 0) {
		// Gallop out from the seed, which is usually within a few ulps.
		k := orderKey(x0)
		step := uint64(1)
		if pass(x0) {
			for lo = k; step < uint64(hi)-uint64(lo); step *= 2 {
				next := lo + int64(step)
				if !pass(fromOrderKey(next)) {
					hi = next
					break
				}
				lo = next
			}
		} else {
			for hi = k; step < uint64(hi)-uint64(lo); step *= 2 {
				next := hi - int64(step)
				if pass(fromOrderKey(next)) {
					lo = next
					break
				}
				hi = next
			}
		}
	}
	for uint64(hi)-uint64(lo) > 1 {
		mid := lo + int64((uint64(hi)-uint64(lo))/2)
		if pass(fromOrderKey(mid)) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return fromOrderKey(lo)
}

// orderKey maps a non-NaN float64 to an int64 with the same order: −0 and
// +0 become the adjacent keys −1 and 0, and consecutive floats map to
// consecutive keys.
func orderKey(x float64) int64 {
	b := int64(math.Float64bits(x))
	if b < 0 {
		b ^= math.MaxInt64
	}
	return b
}

// fromOrderKey inverts orderKey.
func fromOrderKey(k int64) float64 {
	if k < 0 {
		k ^= math.MaxInt64
	}
	return math.Float64frombits(uint64(k))
}

// PredictBatchInto scores every row of X for every target, writing target
// t's estimate for X[i] into out[t][i]. Each out[t] must have len(X)
// entries and each row the scaler's width. It does not allocate.
func (c *Compiled) PredictBatchInto(out [][]float64, X [][]float64) {
	if len(out) != len(c.targets) {
		panic(fmt.Sprintf("gbrt: PredictBatchInto got %d outputs for %d targets", len(out), len(c.targets)))
	}
	for t := range out {
		if len(out[t]) != len(X) {
			panic(fmt.Sprintf("gbrt: PredictBatchInto output %d has %d entries for %d rows", t, len(out[t]), len(X)))
		}
	}
	for lo := 0; lo < len(X); lo += blockRows {
		hi := min(lo+blockRows, len(X))
		for t := range c.targets {
			c.targets[t].scoreBlock(out[t][lo:hi], X[lo:hi], c.depth)
		}
	}
}

// PredictRowInto scores one row for every target, writing target t's
// estimate into out[t]. It does not allocate.
func (c *Compiled) PredictRowInto(out []float64, x []float64) {
	if len(out) != len(c.targets) {
		panic(fmt.Sprintf("gbrt: PredictRowInto got %d outputs for %d targets", len(out), len(c.targets)))
	}
	for t := range c.targets {
		out[t] = c.targets[t].scoreRow(x, c.depth)
	}
}

// scoreBlock writes the ensemble's estimate for rows[r] into acc[r].
// Every descent is D fixed steps, k = 2k+1+b with b = 1 when the row goes
// right, which compiles to a flag set rather than a branch, so the only
// latency left is the chain of dependent loads; scoreBlock overlaps four
// independent chains at a time. Whole groups of four rows go tree-outer,
// each tree descended by all four rows at once; the remaining rows go
// one at a time, four trees at once (scoreRow).
func (e *compiledEnsemble) scoreBlock(acc []float64, rows [][]float64, D int) {
	n4 := len(acc) &^ 3
	for r := range acc[:n4] {
		acc[r] = e.base
	}
	ni, nl := 1<<D-1, 1<<D
	for in, lf := 0, 0; lf < len(e.leaf); in, lf = in+ni, lf+nl {
		feat, th, leaf := e.feat[in:in+ni], e.th[in:in+ni], e.leaf[lf:lf+nl]
		for r := 0; r < n4; r += 4 {
			x0, x1, x2, x3 := rows[r], rows[r+1], rows[r+2], rows[r+3]
			k0, k1, k2, k3 := 0, 0, 0, 0
			for d := 0; d < D; d++ {
				k0 = 2*k0 + 1 + right(x0[feat[k0]], th[k0])
				k1 = 2*k1 + 1 + right(x1[feat[k1]], th[k1])
				k2 = 2*k2 + 1 + right(x2[feat[k2]], th[k2])
				k3 = 2*k3 + 1 + right(x3[feat[k3]], th[k3])
			}
			acc[r] += leaf[k0-ni]
			acc[r+1] += leaf[k1-ni]
			acc[r+2] += leaf[k2-ni]
			acc[r+3] += leaf[k3-ni]
		}
	}
	for r := n4; r < len(acc); r++ {
		acc[r] = e.scoreRow(rows[r], D)
	}
}

// scoreRow returns the ensemble's estimate for one row, descending four
// trees at a time and adding their leaves in tree order.
func (e *compiledEnsemble) scoreRow(x []float64, D int) float64 {
	ni, nl := 1<<D-1, 1<<D
	s := e.base
	feat, th, leaf := e.feat, e.th, e.leaf
	t, trees := 0, len(leaf)/nl
	for ; t+4 <= trees; t += 4 {
		i0, i1, i2, i3 := t*ni, (t+1)*ni, (t+2)*ni, (t+3)*ni
		k0, k1, k2, k3 := 0, 0, 0, 0
		for d := 0; d < D; d++ {
			k0 = 2*k0 + 1 + right(x[feat[i0+k0]], th[i0+k0])
			k1 = 2*k1 + 1 + right(x[feat[i1+k1]], th[i1+k1])
			k2 = 2*k2 + 1 + right(x[feat[i2+k2]], th[i2+k2])
			k3 = 2*k3 + 1 + right(x[feat[i3+k3]], th[i3+k3])
		}
		s += leaf[t*nl+k0-ni]
		s += leaf[(t+1)*nl+k1-ni]
		s += leaf[(t+2)*nl+k2-ni]
		s += leaf[(t+3)*nl+k3-ni]
	}
	for ; t < trees; t++ {
		in := t * ni
		k := 0
		for d := 0; d < D; d++ {
			k = 2*k + 1 + right(x[feat[in+k]], th[in+k])
		}
		s += leaf[t*nl+k-ni]
	}
	return s
}

// right is 1 when a row with value v goes right at threshold th (NaN goes
// right), else 0.
func right(v, th float64) int {
	if v <= th {
		return 0
	}
	return 1
}
