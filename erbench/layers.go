package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/ann"
	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/extract"
	"repro/internal/simfn"
	"repro/internal/store"
)

// perLayer lists every per-layer metric a traced run reports, with its
// unit. A layer a workload does not exercise reports 0 (cold_batch has
// no store, persistence or service; the exact-key workloads no ANN
// resolve deltas). BENCHMARK.json lists the same names.
var perLayer = []struct{ name, unit string }{
	{"corpus.decode_s", "s"},
	{"extract.busy_s", "s"},
	{"extract.allocs_per_doc", "allocs/doc"},
	{"simfn.prepare_s", "s"},
	{"simfn.matrix_pairs_per_s", "pairs/s"},
	{"core.analyze_s", "s"},
	{"core.cluster_s", "s"},
	{"pipeline.block_ms", "ms"},
	{"pipeline.prepare_ms", "ms"},
	{"pipeline.analyze_ms", "ms"},
	{"pipeline.cluster_ms", "ms"},
	{"pipeline.prepared_blocks", "count"},
	{"pipeline.reused_ratio", "ratio"},
	{"pipeline.largest_block_docs", "docs"},
	{"store.append_ms", "ms"},
	{"store.snapshot_ms", "ms"},
	{"persist.snapshot_save_ms", "ms"},
	{"persist.snapshot_bytes_per_commit", "bytes"},
	{"persist.serving_save_ms", "ms"},
	{"persist.index_save_ms", "ms"},
	{"persist.write_bytes_per_doc", "bytes"},
	{"persist.syncs_per_commit", "count"},
	{"persist.sync_ms_per_commit", "ms"},
	{"persist.replay_s", "s"},
	{"persist.snapshot_load_s", "s"},
	{"persist.serving_load_s", "s"},
	{"persist.index_load_s", "s"},
	{"blockindex.delta_docs_on_resolve", "docs"},
	{"ann.delta_docs_on_resolve", "docs"},
	{"ann.insert_us_per_doc", "us"},
	{"blocking.candidate_pairs", "pairs"},
	{"blocking.reduction_ratio", "ratio"},
	{"service.lookup_us.doc", "us"},
	{"service.lookup_us.entity", "us"},
	{"service.lookup_us.search", "us"},
	{"service.lookup_us.batch", "us"},
	{"service.read_cache_hit_ratio", "ratio"},
	{"service.job_wait_ms", "ms"},
	{"service.resolve_self_ms", "ms"},
	{"runtime.allocs_per_doc", "allocs/doc"},
	{"runtime.gc_cycles", "count"},
	{"self.bench_ms", "ms"},
	{"self.service_ms", "ms"},
	{"self.pipeline_ms", "ms"},
	{"self.store_ms", "ms"},
	{"self.persist_ms", "ms"},
	{"trace.spans", "count"},
	{"trace.docs_per_s", "docs/s"},
}

// zeroLayers starts a traced run's metrics with every name at 0.
func zeroLayers() map[string]metric {
	m := make(map[string]metric, len(perLayer))
	for _, l := range perLayer {
		m[l.name] = metric{0, l.unit}
	}
	return m
}

// annSequence is a series of batches appended to one growing corpus.
type annSequence [][]*corpus.Collection

// probeLayers times direct calls into each layer's public functions over
// the workload's final blocks, from the benchmark's own code:
// decoding (corpus), feature extraction (extract), block preparation and
// the similarity matrices (simfn), decision graphs and clustering (core),
// and ANN insertion (ann) over the workload's batch sequence.
func probeLayers(ctx context.Context, seed int64, blocks []*corpus.Collection, raw [][]byte,
	seqs []annSequence, layers map[string]metric) error {

	var decode []float64
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		for _, b := range raw {
			if _, err := corpus.ReadJSON(bytes.NewReader(b)); err != nil {
				return err
			}
		}
		decode = append(decode, since(start))
	}
	layers["corpus.decode_s"] = metric{median(decode), "s"}

	opts := core.DefaultOptions()
	funcs, err := simfn.Subset(opts.FunctionIDs)
	if err != nil {
		return err
	}
	resolver, err := core.New(opts)
	if err != nil {
		return err
	}
	fe := extract.NewFeatureExtractor(nil, nil)
	var extractS, prepareS, matrixS, analyzeS, clusterS, matrixPairs float64
	var extractAllocs uint64
	docs := 0
	for i, col := range blocks {
		if len(col.Docs) < 2 {
			continue
		}
		docs += len(col.Docs)
		pages := make([]extract.Page, len(col.Docs))
		for d, doc := range col.Docs {
			pages[d] = extract.Page{Text: doc.Text, URL: doc.URL}
		}
		m0, _ := memCounters()
		start := time.Now()
		if _, err := fe.ExtractAll(ctx, pages, col.Name); err != nil {
			return err
		}
		extractS += since(start)
		m1, _ := memCounters()
		extractAllocs += m1 - m0

		start = time.Now()
		block, err := simfn.PrepareBlockCtx(ctx, col, fe)
		if err != nil {
			return err
		}
		prepareS += since(start)

		start = time.Now()
		matrices, err := simfn.ComputeAllCtx(ctx, block, funcs)
		if err != nil {
			return err
		}
		matrixS += since(start)
		matrixPairs += pairs(len(col.Docs)) * float64(len(funcs))

		prep, err := resolver.AdoptPrepared(block, matrices)
		if err != nil {
			return err
		}
		start = time.Now()
		a, err := prep.Run(seed + int64(i))
		if err != nil {
			return err
		}
		analyzeS += since(start)
		start = time.Now()
		if _, err := a.BestAnyCriterion(); err != nil {
			return err
		}
		clusterS += since(start)
	}
	if docs == 0 {
		return fmt.Errorf("no block of two or more documents to probe")
	}
	layers["extract.busy_s"] = metric{extractS, "s"}
	layers["extract.allocs_per_doc"] = metric{float64(extractAllocs) / float64(docs), "allocs/doc"}
	layers["simfn.prepare_s"] = metric{prepareS, "s"}
	layers["simfn.matrix_pairs_per_s"] = metric{matrixPairs / matrixS, "pairs/s"}
	layers["core.analyze_s"] = metric{analyzeS, "s"}
	layers["core.cluster_s"] = metric{clusterS, "s"}

	scheme, err := blocking.ParseScheme("canopy")
	if err != nil {
		return err
	}
	approx, ok := scheme.(blocking.ApproxScheme)
	if !ok {
		return fmt.Errorf("canopy has no approximation policy")
	}
	var insertS float64
	inserted := 0
	for _, seq := range seqs {
		idx, err := ann.New(ann.Config{Scheme: approx})
		if err != nil {
			return err
		}
		st := store.NewMemStore()
		for _, batch := range seq {
			if _, err := st.Append(batch); err != nil {
				return err
			}
			cols, _ := st.Snapshot()
			start := time.Now()
			stats, err := idx.Update(cols)
			if err != nil {
				return err
			}
			insertS += since(start)
			inserted += stats.DeltaDocs
		}
	}
	layers["ann.insert_us_per_doc"] = metric{1e6 * insertS / float64(max(inserted, 1)), "us"}
	return nil
}
