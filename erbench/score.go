package main

import (
	"fmt"
	"math"
)

// The benchmark scores clusterings itself, against the generator's
// persona truth, instead of trusting internal/eval: a persona is
// (collection, persona), so a block that merges several name collections
// is scored correctly. The program's own reported scores are then
// cross-checked against these.

// truthKey identifies one real person of the generated corpus.
type truthKey struct {
	col     string
	persona int
}

// scoredBlock is one resolved block: a predicted label and a true person
// per document.
type scoredBlock struct {
	pred  []int
	truth []truthKey
}

// quality is a macro average over blocks of the paper's two measures.
type quality struct {
	fp, f float64
}

// harmonic is the harmonic mean, 0 when both terms are 0.
func harmonic(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return 2 * a * b / (a + b)
}

// scoreBlock computes Fp (harmonic mean of purity and inverse purity) and
// pairwise F of one block.
func scoreBlock(pred []int, truth []truthKey) quality {
	n := len(pred)
	type cell struct {
		p int
		t truthKey
	}
	overlap := make(map[cell]int)
	predSize := make(map[int]int)
	trueSize := make(map[truthKey]int)
	for i := range pred {
		overlap[cell{pred[i], truth[i]}]++
		predSize[pred[i]]++
		trueSize[truth[i]]++
	}
	bestOfPred := make(map[int]int)
	bestOfTrue := make(map[truthKey]int)
	tp := 0.0
	for c, k := range overlap {
		bestOfPred[c.p] = max(bestOfPred[c.p], k)
		bestOfTrue[c.t] = max(bestOfTrue[c.t], k)
		tp += pairs(k)
	}
	purity, inverse := 0.0, 0.0
	for _, k := range bestOfPred {
		purity += float64(k)
	}
	for _, k := range bestOfTrue {
		inverse += float64(k)
	}
	predPairs, truePairs := 0.0, 0.0
	for _, k := range predSize {
		predPairs += pairs(k)
	}
	for _, k := range trueSize {
		truePairs += pairs(k)
	}
	precision, recall := 1.0, 1.0
	if predPairs > 0 {
		precision = tp / predPairs
	}
	if truePairs > 0 {
		recall = tp / truePairs
	}
	return quality{
		fp: harmonic(purity/float64(n), inverse/float64(n)),
		f:  harmonic(precision, recall),
	}
}

func pairs(k int) float64 { return float64(k) * float64(k-1) / 2 }

// macro averages per-block scores of the method and of the two trivial
// clusterings: every document alone, and every block as one cluster.
func macro(blocks []scoredBlock) (method, singletons, oneCluster quality) {
	for _, b := range blocks {
		n := len(b.pred)
		alone := make([]int, n)
		together := make([]int, n)
		for i := range alone {
			alone[i] = i
		}
		add := func(q *quality, s quality) { q.fp += s.fp; q.f += s.f }
		add(&method, scoreBlock(b.pred, b.truth))
		add(&singletons, scoreBlock(alone, b.truth))
		add(&oneCluster, scoreBlock(together, b.truth))
	}
	k := float64(len(blocks))
	for _, q := range []*quality{&method, &singletons, &oneCluster} {
		q.fp /= k
		q.f /= k
	}
	return method, singletons, oneCluster
}

// checkQuality requires the method to beat both trivial clusterings on
// both measures and to agree with what the program reported.
func checkQuality(blocks []scoredBlock, reportedFp, reportedF float64) (quality, error) {
	if len(blocks) == 0 {
		return quality{}, checkf("no blocks to score")
	}
	method, alone, together := macro(blocks)
	for _, trivial := range []struct {
		name string
		q    quality
	}{{"all singletons", alone}, {"one cluster per block", together}} {
		if method.fp <= trivial.q.fp || method.f <= trivial.q.f {
			return method, checkf("resolution (Fp %.4f, F %.4f) does not beat %s (Fp %.4f, F %.4f)",
				method.fp, method.f, trivial.name, trivial.q.fp, trivial.q.f)
		}
	}
	if math.Abs(method.fp-reportedFp) > 1e-9 || math.Abs(method.f-reportedF) > 1e-9 {
		return method, checkf("independent scores (Fp %.9f, F %.9f) disagree with the program's (Fp %.9f, F %.9f)",
			method.fp, method.f, reportedFp, reportedF)
	}
	return method, nil
}

// checkPartition verifies that labels assign each of n documents to one
// of a dense range of clusters, every cluster non-empty, and — when
// clusters is non-nil — that the cluster lists are the same partition.
func checkPartition(block string, n int, labels []int, clusters [][]int) error {
	if len(labels) != n {
		return checkf("block %q: %d labels for %d documents", block, len(labels), n)
	}
	k := 0
	for _, l := range labels {
		k = max(k, l+1)
	}
	used := make([]int, k)
	for i, l := range labels {
		if l < 0 {
			return checkf("block %q: document %d has label %d", block, i, l)
		}
		used[l]++
	}
	for l, c := range used {
		if c == 0 {
			return checkf("block %q: cluster %d of %d is empty", block, l, k)
		}
	}
	if clusters == nil {
		return nil
	}
	if len(clusters) != k {
		return checkf("block %q: %d cluster lists for %d labels", block, len(clusters), k)
	}
	seen := make([]bool, n)
	for l, members := range clusters {
		for _, d := range members {
			if d < 0 || d >= n || seen[d] || labels[d] != l {
				return checkf("block %q: cluster %d lists document %d wrongly", block, l, d)
			}
			seen[d] = true
		}
	}
	for d, ok := range seen {
		if !ok {
			return checkf("block %q: document %d is in no cluster", block, d)
		}
	}
	return nil
}

// blockPairs is Σ C(n,2) over the blocks, and the pairs of the whole
// corpus of total documents.
func blockPairs(sizes []int, total int) (candidates, all float64) {
	for _, n := range sizes {
		candidates += pairs(n)
	}
	return candidates, pairs(total)
}

func describe(q quality) string { return fmt.Sprintf("Fp %.4f F %.4f", q.fp, q.f) }
