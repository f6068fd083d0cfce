package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/pipeline"
)

// coldTail is the freshness/lookup percentile cold_batch reports: 42
// blocks per round, and the run lasts at least the five rounds that give
// it ten samples beyond.
var coldTail = tail{q: 0.95}

// coldSetupsPerRound is how many times each round of the measured loop
// times set-up (decode + build); setup_s is the median of all of them.
// Taken across the whole run rather than in a burst before it, set-up is
// sampled on the same stretch of machine time as the resolves.
const coldSetupsPerRound = 3

// coldInput is one generated dataset: its JSON file and the generator's
// own copy, whose persona IDs are the truth.
type coldInput struct {
	path  string
	bytes int
	gen   *corpus.Dataset
}

// runColdBatch resolves the WWW'05 and WePS profiles one-shot, as
// `ersolve -in -seed N` does, repeatedly for the run length. The corpus
// is the profiles at corpusSeed; the workload seed is the resolver's
// training-sample seed, so each seed resolves the same pages through a
// different training draw.
func runColdBatch(e *env) (*outcome, error) {
	ctx := context.Background()
	var inputs []coldInput
	totalDocs := 0
	for _, p := range []corpus.DatasetProfile{corpus.WWW05Profile(), corpus.WePSProfile()} {
		ds, err := p.Generate(corpusSeed)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := ds.WriteJSON(&buf); err != nil {
			return nil, err
		}
		path := filepath.Join(e.work, p.Label+".json")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			return nil, err
		}
		inputs = append(inputs, coldInput{path: path, bytes: buf.Len(), gen: ds})
		totalDocs += ds.TotalDocs()
	}

	// Measured loop: whole rounds until the run length and the tail's
	// sample count are both reached. A round sets up — decodes every input
	// and builds its pipeline, as ersolve does before resolving, timed
	// coldSetupsPerRound times — then resolves every dataset once on its
	// freshly built pipeline.
	var (
		setups    []float64
		decoded   []*corpus.Dataset
		pipelines []*pipeline.Pipeline
		resolving time.Duration
	)
	var (
		mu        sync.Mutex
		fresh     []float64 // per block: resolve start → labels out
		blockTime []float64 // per block: prepare + analyze + cluster
		stageSum  = map[string]float64{}
		perBlock  map[string]float64
		runStart  time.Time
		curOp     int64
		curRoot   *active
	)
	observe := func(stage, block string, d time.Duration) {
		now := time.Now()
		mu.Lock()
		defer mu.Unlock()
		stageSum[stage] += d.Seconds()
		if stage != pipeline.StageBlock {
			perBlock[block] += d.Seconds()
		}
		if stage == pipeline.StageCluster {
			fresh = append(fresh, now.Sub(runStart).Seconds())
			blockTime = append(blockTime, perBlock[block])
		}
		if curRoot != nil {
			e.rec.add(curOp, curRoot.id, layerPipeline, "pipeline."+stage, now.Add(-d), now)
		}
	}
	first := make([][]pipeline.Result, len(inputs))
	var ops, docs int64
	m0, gc0 := memCounters()
	loopStart := time.Now()
	for round := 0; ; round++ {
		if round > 0 && since(loopStart) >= e.seconds && len(fresh) >= coldTail.minSamples() {
			break
		}
		for rep := 0; rep < coldSetupsPerRound; rep++ {
			runtime.GC() // as a new process would, start each from a collected heap
			start := time.Now()
			decoded, pipelines = decoded[:0], pipelines[:0]
			for _, in := range inputs {
				ds, err := decodeFile(in.path)
				if err != nil {
					return nil, err
				}
				pl, err := newColdPipeline(e.seed, observe)
				if err != nil {
					return nil, err
				}
				decoded, pipelines = append(decoded, ds), append(pipelines, pl)
			}
			setups = append(setups, since(start))
		}
		if round == 0 {
			for i, ds := range decoded {
				if err := sameDocs(ds, inputs[i].gen); err != nil {
					return nil, err
				}
			}
		}
		for i, ds := range decoded {
			pl := pipelines[i]
			e.ops.Add(1)
			mu.Lock()
			perBlock = make(map[string]float64)
			curOp = e.rec.newOp()
			curRoot = e.rec.begin(curOp, nil, layerBench, "resolve "+ds.Label)
			runStart = time.Now()
			mu.Unlock()
			results, err := pl.Run(ctx, ds.Collections)
			resolving += time.Since(runStart)
			mu.Lock()
			curRoot.end()
			curRoot = nil
			mu.Unlock()
			if err != nil {
				return nil, fmt.Errorf("resolving %s: %w", ds.Label, err)
			}
			ops++
			docs += int64(ds.TotalDocs())
			if round == 0 {
				first[i] = results
			} else if err := sameLabels(ds.Label, first[i], results); err != nil {
				return nil, err
			}
		}
	}
	elapsed := resolving.Seconds()
	m1, gc1 := memCounters()

	// Checks: partitions, and independent scores against the generator's
	// truth cross-checked with the program's.
	var blocks []scoredBlock
	var progFp, progF float64
	var sizes []int
	allPairs := 0.0
	for i, results := range first {
		gen := inputs[i].gen
		byName := make(map[string]*corpus.Collection)
		for _, col := range gen.Collections {
			byName[col.Name] = col
		}
		for _, res := range results {
			col := byName[res.Block.Name]
			if col == nil || len(col.Docs) != len(res.Block.Docs) {
				return nil, checkf("block %q is not one input collection", res.Block.Name)
			}
			if err := checkPartition(res.Block.Name, len(res.Block.Docs), res.Resolution.Labels, nil); err != nil {
				return nil, err
			}
			truth := make([]truthKey, len(col.Docs))
			for d, doc := range col.Docs {
				truth[d] = truthKey{col.Name, doc.PersonaID}
			}
			blocks = append(blocks, scoredBlock{pred: res.Resolution.Labels, truth: truth})
			if res.Score == nil {
				return nil, checkf("block %q was not scored", res.Block.Name)
			}
			progFp += res.Score.Fp
			progF += res.Score.F
			sizes = append(sizes, len(col.Docs))
		}
		dsQ, _, _ := macro(blocks[len(blocks)-len(results):])
		fmt.Fprintf(os.Stderr, "erbench: %s %s\n", gen.Label, describe(dsQ))
		_, all := blockPairs(nil, decoded[i].TotalDocs())
		allPairs += all
	}
	k := float64(len(blocks))
	q, err := checkQuality(blocks, progFp/k, progF/k)
	if err != nil {
		return nil, err
	}
	freshP50 := median(fresh)
	freshTail, err := coldTail.of(fresh)
	if err != nil {
		return nil, err
	}
	lookTail, err := coldTail.of(blockTime)
	if err != nil {
		return nil, err
	}
	// cold_batch keeps no store and blocks by exact name keys, so two
	// stream metrics carry batch counterparts: candidate_recall is 1 (the
	// exact keys are their own reference: there is no approximate blocker
	// to lose pairs), and disk_bytes_per_doc is the input file's bytes per
	// page, what the batch reads from disk. Neither is checked.
	out := &outcome{}
	out.e2e = map[string]metric{
		"docs_per_s":         {float64(docs) / elapsed, "docs/s"},
		"freshness_p50_s":    {freshP50, "s"},
		"freshness_tail_s":   {freshTail, "s"},
		"lookup_p50_ms":      {1e3 * median(blockTime), "ms"},
		"lookup_tail_ms":     {1e3 * lookTail, "ms"},
		"setup_s":            {median(setups), "s"},
		"fp":                 {q.fp, "ratio"},
		"pairwise_f":         {q.f, "ratio"},
		"candidate_recall":   {1, "ratio"},
		"disk_bytes_per_doc": {float64(inputs[0].bytes+inputs[1].bytes) / float64(totalDocs), "bytes"},
		"live_heap_mb":       {heapMB(), "MB"},
	}
	fmt.Fprintf(os.Stderr, "erbench: cold_batch %d rounds, %d blocks per round, %s\n", ops/int64(len(decoded)), len(blocks), describe(q))

	if e.rec != nil {
		layers := zeroLayers()
		perOp := func(stage string) float64 { return 1e3 * stageSum[stage] / float64(ops) }
		layers["pipeline.block_ms"] = metric{perOp(pipeline.StageBlock), "ms"}
		layers["pipeline.prepare_ms"] = metric{perOp(pipeline.StagePrepare), "ms"}
		layers["pipeline.analyze_ms"] = metric{perOp(pipeline.StageAnalyze), "ms"}
		layers["pipeline.cluster_ms"] = metric{perOp(pipeline.StageCluster), "ms"}
		layers["pipeline.prepared_blocks"] = metric{float64(len(fresh)) / float64(ops), "count"}
		layers["pipeline.largest_block_docs"] = metric{float64(maxInt(sizes)), "docs"}
		layers["runtime.allocs_per_doc"] = metric{float64(m1-m0) / float64(docs), "allocs/doc"}
		layers["runtime.gc_cycles"] = metric{float64(gc1-gc0) / float64(ops/int64(len(inputs))), "count"}
		cand, _ := blockPairs(sizes, 0)
		layers["blocking.candidate_pairs"] = metric{cand, "pairs"}
		layers["blocking.reduction_ratio"] = metric{cand / allPairs, "ratio"}
		var all []*corpus.Collection
		var seqs []annSequence
		var raw [][]byte
		for i, ds := range decoded {
			all = append(all, ds.Collections...)
			seqs = append(seqs, annSequence{ds.Collections})
			b, err := os.ReadFile(inputs[i].path)
			if err != nil {
				return nil, err
			}
			raw = append(raw, b)
		}
		if err := probeLayers(ctx, e.seed, all, raw, seqs, layers); err != nil {
			return nil, err
		}
		layers["trace.docs_per_s"] = metric{float64(docs) / elapsed, "docs/s"}
		e.rec.selfMetrics("resolve", layers)
		out.layers = layers
	}
	return out, nil
}

// newColdPipeline builds the pipeline `ersolve -in -seed N` builds with
// its other flags at their defaults, plus scoring for the cross-check.
func newColdPipeline(seed int64, observe func(stage, block string, d time.Duration)) (*pipeline.Pipeline, error) {
	blocker, err := pipeline.NewModeBlocker("exact", blocking.ExactKey{}, nil, 0, pipeline.ANNOptions{})
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptions()
	opts.Seed = seed
	return pipeline.New(pipeline.Config{
		Options: opts,
		Blocker: blocker,
		Score:   true,
		Observe: observe,
	})
}

// decodeFile reads one dataset as ersolve does.
func decodeFile(path string) (*corpus.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return corpus.ReadJSON(f)
}

// sameDocs checks that decoding returned the generated documents.
func sameDocs(got, want *corpus.Dataset) error {
	if len(got.Collections) != len(want.Collections) {
		return checkf("%s decoded to %d collections, generated %d", want.Label, len(got.Collections), len(want.Collections))
	}
	for c, col := range want.Collections {
		g := got.Collections[c]
		if g.Name != col.Name || len(g.Docs) != len(col.Docs) {
			return checkf("%s collection %d decoded as %q with %d docs", want.Label, c, g.Name, len(g.Docs))
		}
		for d := range col.Docs {
			if g.Docs[d].URL != col.Docs[d].URL || g.Docs[d].Text != col.Docs[d].Text {
				return checkf("%s %q doc %d differs after decoding", want.Label, col.Name, d)
			}
		}
	}
	return nil
}

// sameLabels checks that a repetition returned the first run's labels.
func sameLabels(label string, a, b []pipeline.Result) error {
	if len(a) != len(b) {
		return checkf("%s: repetition returned %d blocks, first run %d", label, len(b), len(a))
	}
	for i := range a {
		la, lb := a[i].Resolution.Labels, b[i].Resolution.Labels
		if a[i].Block.Name != b[i].Block.Name || len(la) != len(lb) {
			return checkf("%s: repetition block %d differs", label, i)
		}
		for d := range la {
			if la[d] != lb[d] {
				return checkf("%s: repetition relabeled %q doc %d", label, a[i].Block.Name, d)
			}
		}
	}
	return nil
}

// flatten maps member refs to global document indices.
func flatten(cols []*corpus.Collection, members [][]pipeline.DocRef) [][]int {
	offset := make([]int, len(cols)+1)
	for i, col := range cols {
		offset[i+1] = offset[i] + len(col.Docs)
	}
	out := make([][]int, len(members))
	for i, mem := range members {
		for _, ref := range mem {
			out[i] = append(out[i], offset[ref.Col]+ref.Doc)
		}
	}
	return out
}

func maxInt(xs []int) int {
	m := 0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
