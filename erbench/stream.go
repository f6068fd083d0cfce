package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blocking"
	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/persist"
	"repro/internal/pipeline"
	"repro/internal/service"
	"repro/internal/serving"
)

// streamSetupEvery is how many commits pass between two set-up samples.
// Taken across the whole stream rather than in a burst before it, set-up
// is sampled on the same stretch of machine time as the commits.
const streamSetupEvery = 8

// pollInterval is how long the writer sleeps between polls of its
// ingest job.
const pollInterval = 200 * time.Microsecond

// streamSpec describes one durable-stream workload.
type streamSpec struct {
	name string
	// knobs is the incremental resolve request body (the resolution
	// configuration).
	knobs map[string]any
	// scheme is the blocking scheme, for the exact pass candidate recall
	// is measured against.
	scheme blocking.Scheme
	// preload is ingested and committed before the restart that set-up
	// times; batches are then ingested one at a time, in order.
	preload []*corpus.Collection
	batches []*corpus.Collection
	// freshTail and lookupTail are the percentiles reported as "_tail".
	freshTail, lookupTail tail
}

// streamBatchDocs is the size of every streamed batch.
const streamBatchDocs = 5

// A stream run is made of whole rounds. Each round restarts from a copy
// of the same preloaded data directory and commits the same 24 batches,
// so every round times the same work whatever the program's speed: a
// slower program runs fewer rounds, not cheaper ones. Rounds go on until
// the run length has passed.

// runServeMixed: a durable server preloaded with 60 pages of every
// WWW'05 name, then fed 10 more of each in 5-document batches round-robin
// across names, while a reader client sends a skewed mix of lookups.
func runServeMixed(e *env) (*outcome, error) {
	ds, err := corpus.WWW05Profile().Generate(corpusSeed)
	if err != nil {
		return nil, err
	}
	spec := &streamSpec{
		name:       "serve_mixed",
		knobs:      map[string]any{"seed": 1},
		scheme:     blocking.ExactKey{},
		freshTail:  tail{q: 0.9},
		lookupTail: tail{q: 0.99},
	}
	split(spec, ds.Collections, 60, 10, e.seed)
	return runStream(e, spec)
}

// split is where the workload seed enters a stream: it preloads the
// first n documents of every collection and streams the next m in
// batches, round-robin across the collections in an order the seed
// shuffles. Every seed ends with the same store — the same documents at
// the same positions, so the same final clustering — reached through a
// different sequence of commits.
func split(spec *streamSpec, cols []*corpus.Collection, n, m int, seed int64) {
	for _, col := range cols {
		spec.preload = append(spec.preload, &corpus.Collection{Name: col.Name, Docs: col.Docs[:n], NumPersonas: col.NumPersonas})
	}
	cols = append([]*corpus.Collection(nil), cols...)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(cols), func(a, b int) { cols[a], cols[b] = cols[b], cols[a] })
	for lo := n; ; lo += streamBatchDocs {
		added := false
		for _, col := range cols {
			if lo+streamBatchDocs <= min(n+m, len(col.Docs)) {
				spec.batches = append(spec.batches, &corpus.Collection{
					Name: col.Name, Docs: col.Docs[lo : lo+streamBatchDocs], NumPersonas: col.NumPersonas})
				added = true
			}
		}
		if !added {
			return
		}
	}
}

type servingMember = serving.Member

// docRef names one store document.
type docRef struct {
	col string
	pos int
}

func (r docRef) String() string { return r.col + ":" + strconv.Itoa(r.pos) }

// corpusTruth is what the benchmark knows about every document it
// ingested: its store position (the order of ingest), URL and persona.
type corpusTruth struct {
	names []string // first-ingested order, as the store keeps them
	urls  map[string][]string
	truth map[string][]int
}

func newTruth() *corpusTruth {
	return &corpusTruth{urls: map[string][]string{}, truth: map[string][]int{}}
}

// add records a batch as ingested and returns the refs it got.
func (t *corpusTruth) add(cols []*corpus.Collection) []docRef {
	var refs []docRef
	for _, col := range cols {
		if _, ok := t.truth[col.Name]; !ok {
			t.names = append(t.names, col.Name)
		}
		for _, d := range col.Docs {
			refs = append(refs, docRef{col.Name, len(t.truth[col.Name])})
			t.truth[col.Name] = append(t.truth[col.Name], d.PersonaID)
			t.urls[col.Name] = append(t.urls[col.Name], d.URL)
		}
	}
	return refs
}

func (t *corpusTruth) docs() int {
	n := 0
	for _, p := range t.truth {
		n += len(p)
	}
	return n
}

func (t *corpusTruth) allRefs() []docRef {
	var refs []docRef
	for _, name := range t.names {
		for pos := range t.truth[name] {
			refs = append(refs, docRef{name, pos})
		}
	}
	return refs
}

// server is one open durable server: data directory, service, client.
type server struct {
	data   *persist.Data
	srv    *service.Server
	c      *client
	counts *ioCounts
}

// errorLog collects persistence and recovery messages; any is a failure.
type errorLog struct {
	mu   sync.Mutex
	msgs []string
}

func (l *errorLog) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.msgs = append(l.msgs, fmt.Sprintf(format, args...))
}

func (l *errorLog) check() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.msgs) > 0 {
		return checkf("the server reported %d persistence problems, first: %s", len(l.msgs), l.msgs[0])
	}
	return nil
}

// openServer opens the data directory (replaying its journal) and builds
// the service over it with every persisted artifact on. Traced runs wrap
// each backend in a timing probe and the filesystem in a counting one.
func openServer(e *env, dir string, errs *errorLog) (*server, error) {
	s := &server{}
	opts := persist.Options{Log: errs.logf}
	if e.rec != nil {
		s.counts = &ioCounts{}
		opts.FS = countingFS{counts: s.counts}
	}
	sp := e.rec.child(layerPersist, "persist.Open")
	d, err := persist.OpenWithOptions(dir, opts)
	sp.end()
	if err != nil {
		return nil, err
	}
	s.data = d
	cfg := service.Config{
		Store:          d.Store,
		Snapshots:      d.Snapshots,
		Indexes:        d.Indexes,
		ANNIndexes:     d.ANN,
		Serving:        d.Serving,
		DefaultTimeout: 2 * time.Minute,
		// Room for every resolve trace of a commit to survive the reader's
		// traces until the writer fetches it.
		TraceBuffer: 4096,
		ErrorLog:    errs.logf,
	}
	if e.rec != nil {
		cfg.Store = &tracedStore{inner: d.Store, rec: e.rec}
		cfg.Snapshots = &tracedSnapshots{inner: d.Snapshots, rec: e.rec}
		cfg.Indexes = &tracedIndexes{inner: d.Indexes, rec: e.rec}
		cfg.ANNIndexes = &tracedANN{inner: d.ANN, rec: e.rec}
		cfg.Serving = &tracedServing{inner: d.Serving, rec: e.rec}
	}
	s.srv = service.New(cfg)
	s.c = &client{h: s.srv.Handler(), rec: e.rec}
	return s, nil
}

// ioTotals are a server's bytes written, snapshot bytes, fsyncs and
// fsync time, from its counting filesystem (traced runs; 0 otherwise).
type ioTotals struct {
	written, snapshots, syncs int64
	syncSeconds               float64
}

func (s *server) ioTotals() ioTotals {
	if s.counts == nil {
		return ioTotals{}
	}
	return ioTotals{s.counts.written(), s.counts.snapshots.Load(), s.counts.syncs.Load(), float64(s.counts.syncNanos.Load()) / 1e9}
}

// add adds the difference now − then.
func (t *ioTotals) add(now, then ioTotals) {
	t.written += now.written - then.written
	t.snapshots += now.snapshots - then.snapshots
	t.syncs += now.syncs - then.syncs
	t.syncSeconds += now.syncSeconds - then.syncSeconds
}

func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := s.srv.Close(ctx)
	if cerr := s.data.Close(); err == nil {
		err = cerr
	}
	return err
}

// jobReply is the part of GET /v1/jobs/{id} the writer reads.
type jobReply struct {
	Status string                `json:"status"`
	Error  string                `json:"error"`
	Result *service.IngestResult `json:"result"`
}

// ingest posts one batch and waits for its job; it returns the store
// version that covers the batch and the time from acknowledgement to
// job done.
func ingest(c *client, parent *active, cols []*corpus.Collection) (uint64, time.Duration, error) {
	var ack service.CollectionsResponse
	code, _, err := c.call(parent, http.MethodPost, "/v1/collections", service.CollectionsRequest{Collections: cols}, &ack)
	if err != nil {
		return 0, 0, err
	}
	if code != http.StatusAccepted {
		return 0, 0, checkf("ingest answered %d", code)
	}
	acked := time.Now()
	var wait *active
	if parent != nil {
		wait = c.rec.begin(parent.op, parent, layerService, "job wait").enter()
	}
	defer wait.end()
	for {
		var job jobReply
		code, _, err := c.call(nil, http.MethodGet, "/v1/jobs/"+ack.JobID, nil, &job)
		if err != nil {
			return 0, 0, err
		}
		if code != http.StatusOK {
			return 0, 0, checkf("job %s answered %d", ack.JobID, code)
		}
		switch job.Status {
		case "done":
			if job.Result == nil {
				return 0, 0, checkf("job %s finished without a result", ack.JobID)
			}
			return job.Result.Store.Version, time.Since(acked), nil
		case "failed", "canceled":
			return 0, 0, checkf("job %s %s: %s", ack.JobID, job.Status, job.Error)
		}
		time.Sleep(pollInterval)
	}
}

// resolve runs one incremental resolve and checks that every block is a
// partition and that the resolution covers the store version asked for.
func resolve(c *client, parent *active, knobs map[string]any, atLeast uint64, docs int) (*service.IncrementalResolveResponse, time.Duration, error) {
	var resp service.IncrementalResolveResponse
	code, d, err := c.call(parent, http.MethodPost, "/v1/resolve/incremental", knobs, &resp)
	if err != nil {
		return nil, 0, err
	}
	if code != http.StatusOK {
		return nil, 0, checkf("incremental resolve answered %d", code)
	}
	if resp.StoreVersion < atLeast || resp.Docs != docs {
		return nil, 0, checkf("resolve covers version %d with %d docs, want ≥ %d with %d",
			resp.StoreVersion, resp.Docs, atLeast, docs)
	}
	total := 0
	for _, b := range resp.Blocks {
		if err := checkPartition(b.Name, b.Docs, b.Labels, b.Clusters); err != nil {
			return nil, 0, err
		}
		total += b.Docs
	}
	if total != docs {
		return nil, 0, checkf("blocks hold %d docs, store %d", total, docs)
	}
	return &resp, d, nil
}

// readDoc reads one document's entity and checks it lists the document
// at a store version of at least atLeast.
func readDoc(c *client, parent *active, ref docRef, atLeast uint64) (string, time.Duration, error) {
	var ent service.EntityResponse
	code, d, err := c.call(parent, http.MethodGet, "/v1/docs/"+url.PathEscape(ref.String())+"/entity", nil, &ent)
	if err != nil {
		return "", 0, err
	}
	if code != http.StatusOK {
		return "", 0, checkf("doc %s answered %d", ref, code)
	}
	if ent.StoreVersion < atLeast || !lists(ent.Entity.Members, ref) {
		return "", 0, checkf("doc %s read at version %d (want ≥ %d) in an entity that does not list it",
			ref, ent.StoreVersion, atLeast)
	}
	return ent.Entity.ID, d, nil
}

func lists(members []servingMember, ref docRef) bool {
	for _, m := range members {
		if m.Collection == ref.col && m.Pos == ref.pos {
			return true
		}
	}
	return false
}

// lookupRefs batch-reads refs and checks each comes back in an entity
// that lists it; it returns the entity ID per ref.
func lookupRefs(c *client, parent *active, refs []docRef, atLeast uint64) ([]string, []servingMember, time.Duration, error) {
	req := service.LookupRequest{}
	for _, r := range refs {
		req.Refs = append(req.Refs, r.String())
	}
	var resp service.LookupResponse
	code, d, err := c.call(parent, http.MethodPost, "/v1/entities/lookup", req, &resp)
	if err != nil {
		return nil, nil, 0, err
	}
	if code != http.StatusOK || resp.StoreVersion < atLeast || len(resp.Results) != len(refs) {
		return nil, nil, 0, checkf("batch lookup answered %d at version %d with %d results (want ≥ %d, %d)",
			code, resp.StoreVersion, len(resp.Results), atLeast, len(refs))
	}
	ids := make([]string, len(refs))
	self := make([]servingMember, len(refs))
	for i, r := range resp.Results {
		if r.Entity == nil || !lists(r.Entity.Members, refs[i]) {
			return nil, nil, 0, checkf("batch lookup lost %s", refs[i])
		}
		ids[i] = r.Entity.ID
		for _, m := range r.Entity.Members {
			if m.Collection == refs[i].col && m.Pos == refs[i].pos {
				self[i] = m
			}
		}
	}
	return ids, self, d, nil
}

// commitStats is what the writer measures per commit.
type commitStats struct {
	fresh, jobWait []float64
	// traced runs only
	stage                    map[string][]float64 // per commit, ms
	prepared, blocks, reused []float64
	indexDelta, annDelta     []float64
	largest                  int
}

// runStream runs one durable-stream workload end to end: whole rounds of
// the same commit sequence, each on a fresh copy of the preloaded data
// directory, until the run length has passed and the rounds hold enough
// commits for the freshness tail.
func runStream(e *env, spec *streamSpec) (*outcome, error) {
	ctx := context.Background()
	baseDir := filepath.Join(e.work, "base")
	dataDir := filepath.Join(e.work, "data")
	setupDir := filepath.Join(e.work, "setup")
	errs := &errorLog{}

	// Preload: a first server ingests and commits part of the corpus,
	// records every entity ID, then closes. Untimed. Its data directory
	// is where every round starts.
	pre, err := openServer(&env{work: e.work}, baseDir, errs)
	if err != nil {
		return nil, err
	}
	preTruth := newTruth()
	preRefs := preTruth.add(spec.preload)
	preDocs := preTruth.docs()
	version, _, err := ingest(pre.c, nil, spec.preload)
	if err == nil {
		_, _, err = resolve(pre.c, nil, spec.knobs, version, preDocs)
	}
	var before []string
	if err == nil {
		before, err = entityIDs(pre.c, preRefs, version)
	}
	if cerr := pre.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if err := copyDir(baseDir, setupDir); err != nil {
		return nil, err
	}

	cs := &commitStats{stage: map[string][]float64{}}
	rd := newReader(e.seed, preTruth.names, &e.ops)
	var (
		setups, heaps []float64
		elapsed       float64 // timed stream seconds, set-up samples excluded
		commits, docs int
		mallocs       uint64
		gcs           uint32
		io            ioTotals
		hits, misses  int64
		first         *roundEnd
	)
	loopStart := time.Now()
	for since(loopStart) < e.seconds || len(cs.fresh) < spec.freshTail.minSamples() {
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, err
		}
		if err := copyDir(baseDir, dataDir); err != nil {
			return nil, err
		}
		// Set-up, timed: the round's own server is a restart of the
		// preloaded directory (see restart); every streamSetupEvery
		// commits the writer takes another on a copy of it, the reader
		// held off. setup_s is the median of them all.
		srv, d, err := restart(e, dataDir, errs, spec, preRefs[0], version, preDocs)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d)
		end, err := func() (*roundEnd, error) {
			defer srv.close()
			after, err := entityIDs(srv.c, preRefs, version)
			if err != nil {
				return nil, err
			}
			for i := range before {
				if before[i] != after[i] {
					return nil, checkf("restart changed the entity ID of %s: %s → %s", preRefs[i], before[i], after[i])
				}
			}
			truth := newTruth()
			truth.add(spec.preload)
			rd.reset(srv.c, preRefs)
			io0 := srv.ioTotals()
			var paused time.Duration
			var pausedMallocs uint64
			var pausedGCs uint32
			sample := func() error {
				rd.gate.Lock()
				defer rd.gate.Unlock()
				t := time.Now()
				m0, gc0 := memCounters()
				s, d, err := restart(e, setupDir, errs, spec, preRefs[0], version, preDocs)
				if err == nil {
					setups = append(setups, d)
					err = s.close()
				}
				m1, gc1 := memCounters()
				paused += time.Since(t)
				pausedMallocs += m1 - m0
				pausedGCs += gc1 - gc0
				return err
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				rd.run(stop)
			}()
			m0, gc0 := memCounters()
			start := time.Now()
			var werr error
			for i, batch := range spec.batches {
				if i > 0 && i%streamSetupEvery == 0 {
					if werr = sample(); werr != nil {
						break
					}
				}
				if werr = commit(e, srv, spec, truth, batch, cs, rd); werr != nil {
					break
				}
				commits++
				docs += len(batch.Docs)
			}
			elapsed += since(start) - paused.Seconds()
			close(stop)
			wg.Wait()
			m1, gc1 := memCounters()
			mallocs += m1 - m0 - pausedMallocs
			gcs += gc1 - gc0 - pausedGCs
			if werr != nil {
				return nil, werr
			}
			if rd.err != nil {
				return nil, rd.err
			}
			io.add(srv.ioTotals(), io0)
			heaps = append(heaps, heapMB())
			if e.rec != nil {
				var st service.StatsResponse
				if code, _, err := srv.c.call(nil, http.MethodGet, "/v1/stats", nil, &st); err != nil || code != http.StatusOK {
					return nil, fmt.Errorf("reading /v1/stats: %d %v", code, err)
				}
				hits += st.Reads.CacheHits
				misses += st.Reads.CacheMisses
			}
			return endOfRound(ctx, srv, spec, truth, dataDir, first)
		}()
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = end
		}
	}
	rounds := len(heaps)
	if err := errs.check(); err != nil {
		return nil, err
	}
	freshTail, err := spec.freshTail.of(cs.fresh)
	if err != nil {
		return nil, err
	}
	lookups := rd.all()
	lookTail, err := spec.lookupTail.of(lookups)
	if err != nil {
		return nil, err
	}
	q := first.quality
	out := &outcome{}
	out.e2e = map[string]metric{
		"docs_per_s":         {float64(docs) / elapsed, "docs/s"},
		"freshness_p50_s":    {median(cs.fresh), "s"},
		"freshness_tail_s":   {freshTail, "s"},
		"lookup_p50_ms":      {1e3 * median(lookups), "ms"},
		"lookup_tail_ms":     {1e3 * lookTail, "ms"},
		"setup_s":            {median(setups), "s"},
		"fp":                 {q.fp, "ratio"},
		"pairwise_f":         {q.f, "ratio"},
		"candidate_recall":   {first.recall, "ratio"},
		"disk_bytes_per_doc": {float64(first.diskBytes) / float64(first.docs), "bytes"},
		"live_heap_mb":       {median(heaps), "MB"},
	}
	fmt.Fprintf(os.Stderr, "erbench: %s %d rounds, %d commits (%d docs) in %.1fs, %d set-ups, %d reader lookups, %d blocks, %s\n",
		spec.name, rounds, commits, docs, elapsed, len(setups), rd.count(), len(first.blocks), describe(q))

	if e.rec != nil {
		layers := zeroLayers()
		for _, st := range []string{"block", "prepare", "analyze", "cluster"} {
			layers["pipeline."+st+"_ms"] = metric{mean(cs.stage[st]), "ms"}
		}
		layers["pipeline.prepared_blocks"] = metric{mean(cs.prepared), "count"}
		layers["pipeline.reused_ratio"] = metric{sum(cs.reused) / sum(cs.blocks), "ratio"}
		layers["pipeline.largest_block_docs"] = metric{float64(cs.largest), "docs"}
		layers["blockindex.delta_docs_on_resolve"] = metric{mean(cs.indexDelta), "docs"}
		layers["ann.delta_docs_on_resolve"] = metric{mean(cs.annDelta), "docs"}
		ms := func(xs []float64) float64 { return 1e3 * median(xs) }
		isName := func(name string) func(s, p *span) bool {
			return func(s, _ *span) bool { return s.Name == name && s.Op > 0 }
		}
		inResolve := func(name string) func(s, p *span) bool {
			return func(s, p *span) bool {
				return s.Name == name && p != nil && p.Name == "POST /v1/resolve/incremental"
			}
		}
		rec := e.rec
		layers["store.append_ms"] = metric{ms(rec.durations(isName("store.Append"))), "ms"}
		layers["store.snapshot_ms"] = metric{ms(rec.durations(inResolve("store.Snapshot"))), "ms"}
		layers["persist.snapshot_save_ms"] = metric{ms(rec.durations(inResolve("snapshot.Save"))), "ms"}
		layers["persist.serving_save_ms"] = metric{ms(rec.durations(inResolve("serving.Save"))), "ms"}
		layers["persist.index_save_ms"] = metric{ms(rec.durations(inResolve("index.Save"))), "ms"}
		layers["persist.replay_s"] = metric{median(rec.durations(isName("persist.Open"))), "s"}
		layers["persist.snapshot_load_s"] = metric{median(rec.durations(isName("snapshot.Load"))), "s"}
		layers["persist.serving_load_s"] = metric{median(rec.durations(isName("serving.Load"))), "s"}
		layers["persist.index_load_s"] = metric{median(rec.durations(isName("index.Load"))), "s"}
		n := float64(max(commits, 1))
		layers["persist.snapshot_bytes_per_commit"] = metric{float64(io.snapshots) / n, "bytes"}
		layers["persist.write_bytes_per_doc"] = metric{float64(io.written) / float64(max(docs, 1)), "bytes"}
		layers["persist.syncs_per_commit"] = metric{float64(io.syncs) / n, "count"}
		layers["persist.sync_ms_per_commit"] = metric{1e3 * io.syncSeconds / n, "ms"}
		layers["service.job_wait_ms"] = metric{ms(cs.jobWait), "ms"}
		layers["service.resolve_self_ms"] = metric{ms(rec.selfOf(func(s *span) bool {
			return s.Name == "POST /v1/resolve/incremental" && s.Op > 0
		})), "ms"}
		us := func(xs []float64) float64 { return 1e6 * median(xs) }
		for _, kind := range readKinds {
			layers["service.lookup_us."+kind] = metric{us(rd.latencies(kind)), "us"}
		}
		if hits+misses > 0 {
			layers["service.read_cache_hit_ratio"] = metric{float64(hits) / float64(hits+misses), "ratio"}
		}
		layers["runtime.allocs_per_doc"] = metric{float64(mallocs) / float64(max(docs, 1)), "allocs/doc"}
		layers["runtime.gc_cycles"] = metric{float64(gcs) / float64(rounds), "count"}
		var sizes []int
		for _, b := range first.committed {
			sizes = append(sizes, len(b))
		}
		cand, all := blockPairs(sizes, first.docs)
		layers["blocking.candidate_pairs"] = metric{cand, "pairs"}
		layers["blocking.reduction_ratio"] = metric{cand / all, "ratio"}
		finalBlocks := assembleBlocks(first.cols, first.truth, first.committed)
		seq := annSequence{spec.preload}
		for _, b := range spec.batches {
			seq = append(seq, []*corpus.Collection{b})
		}
		raw, err := datasetJSON(first.cols)
		if err != nil {
			return nil, err
		}
		if err := probeLayers(ctx, e.seed, finalBlocks, [][]byte{raw}, []annSequence{seq}, layers); err != nil {
			return nil, err
		}
		layers["trace.docs_per_s"] = metric{float64(docs) / elapsed, "docs/s"}
		rec.selfMetrics("commit", layers)
		out.layers = layers
	}
	return out, nil
}

// roundEnd is what the checks at the end of a round found: the final
// clustering read back through the lookup API and its figures.
type roundEnd struct {
	final     []service.BlockResult
	cols      []*corpus.Collection
	truth     *corpusTruth
	committed [][]docRef
	blocks    []scoredBlock
	quality   quality
	recall    float64
	diskBytes int64
	docs      int
}

// endOfRound checks a round's final store, untimed: a second resolve of
// the unchanged store must reuse every block. The first round then runs
// every other check — the clustering read back and scored against the
// truth, incremental equal to a fresh full resolve, candidate recall —
// and every later round must end on the first one's clustering.
func endOfRound(ctx context.Context, srv *server, spec *streamSpec, truth *corpusTruth, dataDir string, first *roundEnd) (*roundEnd, error) {
	storeDocs := truth.docs()
	lastVersion := srv.data.Store.Stats().Version
	final, _, err := resolve(srv.c, nil, spec.knobs, lastVersion, storeDocs)
	if err != nil {
		return nil, err
	}
	if final.Incremental.ReusedBlocks != final.Incremental.Blocks {
		return nil, checkf("an unchanged store re-prepared %d blocks", final.Incremental.PreparedBlocks)
	}
	if first != nil {
		return first, sameBlocks(first.final, final.Blocks)
	}
	end := &roundEnd{final: final.Blocks, truth: truth, docs: storeDocs}
	end.committed, end.blocks, err = readClustering(srv.c, truth, lastVersion)
	if err != nil {
		return nil, err
	}
	if final.Average == nil {
		return nil, checkf("the final resolve reported no average score")
	}
	if end.quality, err = checkQuality(end.blocks, final.Average.Fp, final.Average.F); err != nil {
		return nil, err
	}
	freshKnobs := map[string]any{"fresh": true}
	for k, v := range spec.knobs {
		freshKnobs[k] = v
	}
	full, _, err := resolve(srv.c, nil, freshKnobs, lastVersion, storeDocs)
	if err != nil {
		return nil, err
	}
	if err := sameBlocks(final.Blocks, full.Blocks); err != nil {
		return nil, err
	}
	end.cols, _ = srv.data.Store.Snapshot()
	if end.recall, err = recallAgainstExact(ctx, spec.scheme, end.cols, truth, end.committed); err != nil {
		return nil, err
	}
	if end.recall < 0.95 {
		return nil, checkf("candidate recall %.4f is below 0.95", end.recall)
	}
	if end.diskBytes, err = dirBytes(dataDir); err != nil {
		return nil, err
	}
	return end, nil
}

// restart opens the server on dir — replaying the journal and loading
// the serving index — answers the first lookup, and runs the first
// incremental resolve, which loads the snapshot and index and must reuse
// every block. It returns the open server and the time all that took.
func restart(e *env, dir string, errs *errorLog, spec *streamSpec, ref docRef, version uint64, docs int) (*server, float64, error) {
	// Each restart starts from a collected heap, as a new process would,
	// so earlier garbage does not time its GC.
	runtime.GC()
	root := e.rec.begin(e.rec.newOp(), nil, layerBench, "restart").enter()
	defer root.end()
	start := time.Now()
	srv, err := openServer(e, dir, errs)
	if err != nil {
		return nil, 0, err
	}
	if _, _, err := readDoc(srv.c, root, ref, version); err != nil {
		srv.close()
		return nil, 0, err
	}
	resp, _, err := resolve(srv.c, root, spec.knobs, version, docs)
	if err != nil {
		srv.close()
		return nil, 0, err
	}
	d := since(start)
	if resp.Incremental.ReusedBlocks != resp.Incremental.Blocks {
		srv.close()
		return nil, 0, checkf("restart reused %d of %d blocks", resp.Incremental.ReusedBlocks, resp.Incremental.Blocks)
	}
	return srv, d, nil
}

// copyDir copies the regular files under src to dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}

// commit is the writer's one operation: ingest a batch, wait for its job,
// resolve incrementally, and read the batch back.
func commit(e *env, srv *server, spec *streamSpec, truth *corpusTruth, batch *corpus.Collection, cs *commitStats, rd *reader) error {
	e.ops.Add(1)
	op := e.rec.newOp()
	root := e.rec.begin(op, nil, layerBench, "commit")
	defer root.end()
	start := time.Now()
	refs := truth.add([]*corpus.Collection{batch})
	version, wait, err := ingest(srv.c, root, []*corpus.Collection{batch})
	if err != nil {
		return err
	}
	cs.jobWait = append(cs.jobWait, wait.Seconds())
	resp, _, err := resolve(srv.c, root, spec.knobs, version, truth.docs())
	if err != nil {
		return err
	}
	// Read every doc of the batch back, last first: that first read,
	// answered from a commit covering the batch, ends its freshness. Then
	// all of them again in one batch lookup.
	for i := range refs {
		ref := refs[len(refs)-1-i]
		if _, _, err := readDoc(srv.c, root, ref, version); err != nil {
			return err
		}
		if i == 0 {
			cs.fresh = append(cs.fresh, since(start))
		}
	}
	if _, _, _, err := lookupRefs(srv.c, root, refs, version); err != nil {
		return err
	}
	rd.publish(refs)
	if e.rec != nil {
		if err := traceCommit(e.rec, srv.c, root, resp, cs); err != nil {
			return err
		}
	}
	return nil
}

// traceCommit pulls the resolve's stage spans from /v1/traces, records
// them under the benchmark's resolve span, and keeps the response's
// incremental and blocking stats.
func traceCommit(rec *recorder, c *client, root *active, resp *service.IncrementalResolveResponse, cs *commitStats) error {
	var tr service.TracesResponse
	code, _, err := c.call(nil, http.MethodGet, "/v1/traces?limit=64", nil, &tr)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("reading /v1/traces: %d %v", code, err)
	}
	want := strconv.FormatUint(resp.StoreVersion, 10)
	var parent *span
	for _, s := range rec.snapshot() {
		if s.Op == root.op && s.Name == "POST /v1/resolve/incremental" {
			s := s
			parent = &s
		}
	}
	found := false
	for _, t := range tr.Traces {
		if t.Name != "resolve.incremental" || found {
			continue
		}
		version := ""
		for _, a := range t.Spans[0].Attrs {
			if a.Key == "store_version" {
				version = a.Value
			}
		}
		if version != want {
			continue
		}
		found = true
		perStage := map[string]float64{}
		for _, s := range t.Spans[1:] {
			d := time.Duration(s.DurationMicros) * time.Microsecond
			perStage[s.Name] += float64(s.DurationMicros) / 1e3
			if parent != nil {
				rec.add(root.op, parent.ID, layerPipeline, "pipeline."+s.Name, s.Start, s.Start.Add(d))
			}
		}
		for _, st := range []string{"block", "prepare", "analyze", "cluster"} {
			cs.stage[st] = append(cs.stage[st], perStage[st])
		}
	}
	if !found {
		return fmt.Errorf("no resolve trace for store version %s in /v1/traces", want)
	}
	cs.prepared = append(cs.prepared, float64(resp.Incremental.PreparedBlocks))
	cs.blocks = append(cs.blocks, float64(resp.Incremental.Blocks))
	cs.reused = append(cs.reused, float64(resp.Incremental.ReusedBlocks))
	switch resp.Blocking.Indexer {
	case "index":
		cs.indexDelta = append(cs.indexDelta, float64(resp.Blocking.DeltaDocs))
	case "ann":
		cs.annDelta = append(cs.annDelta, float64(resp.Blocking.DeltaDocs))
	}
	for _, b := range resp.Blocks {
		cs.largest = max(cs.largest, b.Docs)
	}
	return nil
}

// entityIDs reads the entity ID of every ref, in chunks the batch lookup
// accepts.
func entityIDs(c *client, refs []docRef, atLeast uint64) ([]string, error) {
	var ids []string
	for lo := 0; lo < len(refs); lo += 256 {
		chunk, _, _, err := lookupRefs(c, nil, refs[lo:min(lo+256, len(refs))], atLeast)
		if err != nil {
			return nil, err
		}
		ids = append(ids, chunk...)
	}
	return ids, nil
}

// readClustering reads the whole committed clustering back through the
// lookup API: docs grouped by entity ID, blocks by the membership
// fingerprint the entity ID starts with. It returns each block's member
// refs and the blocks ready for scoring against the generator's truth.
func readClustering(c *client, truth *corpusTruth, version uint64) ([][]docRef, []scoredBlock, error) {
	refs := truth.allRefs()
	var members []servingMember
	var ids []string
	for lo := 0; lo < len(refs); lo += 256 {
		chunk, self, _, err := lookupRefs(c, nil, refs[lo:min(lo+256, len(refs))], version)
		if err != nil {
			return nil, nil, err
		}
		ids = append(ids, chunk...)
		members = append(members, self...)
	}
	blockOf := map[string]int{}
	var committed [][]docRef
	var blocks []scoredBlock
	labelOf := []map[string]int{}
	for i, ref := range refs {
		if members[i].URL != truth.urls[ref.col][ref.pos] {
			return nil, nil, checkf("doc %s has URL %q, ingested %q", ref, members[i].URL, truth.urls[ref.col][ref.pos])
		}
		fp, _, ok := strings.Cut(ids[i], "-")
		if !ok {
			return nil, nil, checkf("entity ID %q has no block fingerprint", ids[i])
		}
		b, ok := blockOf[fp]
		if !ok {
			b = len(committed)
			blockOf[fp] = b
			committed = append(committed, nil)
			blocks = append(blocks, scoredBlock{})
			labelOf = append(labelOf, map[string]int{})
		}
		l, ok := labelOf[b][ids[i]]
		if !ok {
			l = len(labelOf[b])
			labelOf[b][ids[i]] = l
		}
		committed[b] = append(committed[b], ref)
		blocks[b].pred = append(blocks[b].pred, l)
		blocks[b].truth = append(blocks[b].truth, truthKey{ref.col, truth.truth[ref.col][ref.pos]})
	}
	return committed, blocks, nil
}

// sameBlocks checks the incremental clustering equals a fresh full one.
func sameBlocks(inc, full []service.BlockResult) error {
	if len(inc) != len(full) {
		return checkf("incremental resolve has %d blocks, fresh full resolve %d", len(inc), len(full))
	}
	for i := range inc {
		if inc[i].Name != full[i].Name || len(inc[i].Labels) != len(full[i].Labels) {
			return checkf("block %d: incremental %q (%d docs) vs fresh %q (%d docs)",
				i, inc[i].Name, len(inc[i].Labels), full[i].Name, len(full[i].Labels))
		}
		for d := range inc[i].Labels {
			if inc[i].Labels[d] != full[i].Labels[d] {
				return checkf("block %q doc %d: incremental label %d, fresh %d", inc[i].Name, d, inc[i].Labels[d], full[i].Labels[d])
			}
		}
	}
	return nil
}

// recallAgainstExact is the candidate-pair recall of the committed blocks
// against an exact per-run pass of the scheme over the final corpus.
func recallAgainstExact(ctx context.Context, scheme blocking.Scheme, cols []*corpus.Collection, truth *corpusTruth, committed [][]docRef) (float64, error) {
	_, exact, err := pipeline.NewSchemeBlocker(scheme).BlockMembership(ctx, cols)
	if err != nil {
		return 0, err
	}
	index := map[docRef]int{}
	colIdx := map[string]int{}
	offset := 0
	for ci, col := range cols {
		colIdx[col.Name] = ci
		for pos := range col.Docs {
			index[docRef{col.Name, pos}] = offset + pos
		}
		offset += len(col.Docs)
	}
	if offset != truth.docs() {
		return 0, checkf("store holds %d docs, %d ingested", offset, truth.docs())
	}
	tested := make([][]int, len(committed))
	for b, refs := range committed {
		for _, r := range refs {
			tested[b] = append(tested[b], index[r])
		}
	}
	return eval.CandidateRecall(flatten(cols, exact), tested), nil
}

// assembleBlocks rebuilds the committed blocks as collections (persona
// labels densely remapped per (collection, persona)) for the layer probe.
func assembleBlocks(cols []*corpus.Collection, truth *corpusTruth, committed [][]docRef) []*corpus.Collection {
	byName := map[string]*corpus.Collection{}
	for _, col := range cols {
		byName[col.Name] = col
	}
	var out []*corpus.Collection
	for _, refs := range committed {
		personas := map[truthKey]int{}
		var names []string
		seen := map[string]bool{}
		block := &corpus.Collection{}
		for i, r := range refs {
			doc := byName[r.col].Docs[r.pos]
			k := truthKey{r.col, truth.truth[r.col][r.pos]}
			if _, ok := personas[k]; !ok {
				personas[k] = len(personas)
			}
			if !seen[r.col] {
				seen[r.col] = true
				names = append(names, r.col)
			}
			doc.ID = i
			doc.PersonaID = personas[k]
			block.Docs = append(block.Docs, doc)
		}
		block.Name = strings.Join(names, "+")
		block.NumPersonas = len(personas)
		out = append(out, block)
	}
	return out
}

// datasetJSON encodes the corpus as a dataset file, the decode probe's
// input.
func datasetJSON(cols []*corpus.Collection) ([]byte, error) {
	var b bytes.Buffer
	if err := (&corpus.Dataset{Label: "stream", Collections: cols}).WriteJSON(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// readKinds are the reader's request types, sent in equal shares.
var readKinds = []string{"doc", "entity", "search", "batch"}

// readerSkew is the exponent s of the Zipf(s, v = 1) law the reader
// draws its keys from. It is an assumption, not a measured traffic
// shape: with s = 1.2 about a fifth of the draws hit the hottest key, so
// the response cache sees both hits and misses. It sets the cache hit
// ratio and with it lookup_p50_ms and lookup_tail_ms.
const readerSkew = 1.2

// reader is the read-only client of serve_mixed: a closed loop of doc,
// entity, search and batch lookups, in equal shares, over what the
// writer has confirmed readable, keys drawn with readerSkew. A batch
// lookup asks for as many refs as one ingest batch carries.
type reader struct {
	c     *client
	rng   *rand.Rand
	names []string
	ops   *atomic.Int64 // the run's operation count

	mu   sync.Mutex
	refs []docRef
	// gate holds the reader off while the writer takes a set-up sample.
	gate sync.RWMutex

	ids  []string // recently seen entity IDs, with the ref each came from
	idOf []docRef
	lat  map[string][]float64
	n    int
	err  error
}

func newReader(seed int64, names []string, ops *atomic.Int64) *reader {
	return &reader{rng: rand.New(rand.NewSource(seed)), names: names, ops: ops, lat: map[string][]float64{}}
}

// reset points the reader at a round's server, which holds only the
// preloaded refs; latencies and the key stream carry over.
func (r *reader) reset(c *client, refs []docRef) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.c = c
	r.refs = append([]docRef(nil), refs...)
	r.ids, r.idOf = r.ids[:0], r.idOf[:0]
}

// publish adds refs the writer has read back.
func (r *reader) publish(refs []docRef) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.refs = append(r.refs, refs...)
}

// count is the number of requests sent; read it only after run returns.
func (r *reader) count() int { return r.n }

func (r *reader) latencies(kind string) []float64 { return r.lat[kind] }

func (r *reader) all() []float64 {
	var out []float64
	for _, kind := range readKinds {
		out = append(out, r.lat[kind]...)
	}
	return out
}

// run loops until stop closes, recording the first failure.
func (r *reader) run(stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		r.gate.RLock()
		r.ops.Add(1)
		r.n++
		err := r.one()
		r.gate.RUnlock()
		if err != nil {
			r.err = err
			return
		}
	}
}

// pick draws a Zipf-skewed index below n: low indices (the preloaded
// documents, the first names) are hot. n grows as commits land, so the
// distribution is rebuilt per draw; that costs the reader loop, not the
// timed request.
func (r *reader) pick(n int) int {
	return int(rand.NewZipf(r.rng, readerSkew, 1, uint64(n-1)).Uint64())
}

func (r *reader) one() error {
	r.mu.Lock()
	refs := r.refs
	r.mu.Unlock()
	kind := readKinds[r.rng.Intn(len(readKinds))]
	if kind == "entity" && len(r.ids) == 0 {
		kind = "doc"
	}
	switch kind {
	case "doc":
		ref := refs[r.pick(len(refs))]
		id, d, err := readDoc(r.c, nil, ref, 0)
		if err != nil {
			return err
		}
		r.lat["doc"] = append(r.lat["doc"], d.Seconds())
		if len(r.ids) < 4096 {
			r.ids = append(r.ids, id)
			r.idOf = append(r.idOf, ref)
		} else {
			i := r.rng.Intn(len(r.ids))
			r.ids[i], r.idOf[i] = id, ref
		}
	case "entity":
		i := r.pick(len(r.ids))
		var ent service.EntityResponse
		code, d, err := r.c.call(nil, http.MethodGet, "/v1/entities/"+url.PathEscape(r.ids[i]), nil, &ent)
		if err != nil {
			return err
		}
		r.lat["entity"] = append(r.lat["entity"], d.Seconds())
		switch code {
		case http.StatusOK:
			if !lists(ent.Entity.Members, r.idOf[i]) || ent.Entity.ID != r.ids[i] {
				return checkf("entity %s does not list %s", r.ids[i], r.idOf[i])
			}
		case http.StatusNotFound:
			// Correct only if a later commit re-formed the entity's block:
			// the doc it came from must now be in an entity with another ID.
			now, _, err := readDoc(r.c, nil, r.idOf[i], 0)
			if err != nil {
				return err
			}
			if now == r.ids[i] {
				return checkf("entity %s answered 404 but still holds %s", r.ids[i], r.idOf[i])
			}
			r.ids[i] = now
		default:
			return checkf("entity %s answered %d", r.ids[i], code)
		}
	case "search":
		name := r.names[r.pick(len(r.names))]
		var resp service.SearchResponse
		code, d, err := r.c.call(nil, http.MethodGet, "/v1/search?name="+url.QueryEscape(name), nil, &resp)
		if err != nil {
			return err
		}
		r.lat["search"] = append(r.lat["search"], d.Seconds())
		if code != http.StatusOK || len(resp.Hits) == 0 {
			return checkf("search %q answered %d with %d hits", name, code, len(resp.Hits))
		}
	case "batch":
		batch := make([]docRef, streamBatchDocs)
		for i := range batch {
			batch[i] = refs[r.pick(len(refs))]
		}
		_, _, d, err := lookupRefs(r.c, nil, batch, 0)
		if err != nil {
			return err
		}
		r.lat["batch"] = append(r.lat["batch"], d.Seconds())
	}
	return nil
}
