package main

import (
	"io/fs"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/ann"
	"repro/internal/blockindex"
	"repro/internal/corpus"
	"repro/internal/faultfs"
	"repro/internal/persist"
	"repro/internal/pipeline"
	"repro/internal/serving"
	"repro/internal/store"
)

// The traced run wraps every persistence interface the service is given
// in a timing probe, and the data directory's filesystem in a counting
// one. Each probe forwards every optional method the service looks for
// by type assertion — the append subscription that drives the index
// warmer, the torn-tail and quarantine reporters — so the traced server
// behaves exactly as the untraced one.

// tracedStore times DocumentStore calls.
type tracedStore struct {
	inner *persist.Store
	rec   *recorder
}

func (s *tracedStore) Append(cols []*corpus.Collection) (int, error) {
	sp := s.rec.child(layerStore, "store.Append")
	defer sp.end()
	return s.inner.Append(cols)
}

func (s *tracedStore) Snapshot() ([]*corpus.Collection, uint64) {
	sp := s.rec.child(layerStore, "store.Snapshot")
	defer sp.end()
	return s.inner.Snapshot()
}

func (s *tracedStore) Stats() store.Stats { return s.inner.Stats() }

func (s *tracedStore) SubscribeAppend(fn func(store.AppendEvent)) { s.inner.SubscribeAppend(fn) }

func (s *tracedStore) TornTailRecoveries() int { return s.inner.TornTailRecoveries() }

// tracedSnapshots times SnapshotStore calls.
type tracedSnapshots struct {
	inner *persist.SnapshotDir
	rec   *recorder
}

func (d *tracedSnapshots) Load(key string, pl *pipeline.Pipeline) (*pipeline.Snapshot, error) {
	sp := d.rec.child(layerPersist, "snapshot.Load")
	defer sp.end()
	return d.inner.Load(key, pl)
}

func (d *tracedSnapshots) Save(key string, snap *pipeline.Snapshot) error {
	sp := d.rec.child(layerPersist, "snapshot.Save")
	defer sp.end()
	return d.inner.Save(key, snap)
}

func (d *tracedSnapshots) Touch(key string) error {
	sp := d.rec.child(layerPersist, "snapshot.Touch")
	defer sp.end()
	return d.inner.Touch(key)
}

func (d *tracedSnapshots) Quarantined() int64 { return d.inner.Quarantined() }

// tracedIndexes times IndexStore calls.
type tracedIndexes struct {
	inner *persist.IndexDir
	rec   *recorder
}

func (d *tracedIndexes) LoadIndex(key string, cfg blockindex.Config) (*blockindex.Index, error) {
	sp := d.rec.child(layerPersist, "index.Load")
	defer sp.end()
	return d.inner.LoadIndex(key, cfg)
}

func (d *tracedIndexes) SaveIndex(key string, idx *blockindex.Index) (uint64, error) {
	sp := d.rec.child(layerPersist, "index.Save")
	defer sp.end()
	return d.inner.SaveIndex(key, idx)
}

func (d *tracedIndexes) Quarantined() int64 { return d.inner.Quarantined() }

// tracedANN times ANNStore calls.
type tracedANN struct {
	inner *persist.ANNDir
	rec   *recorder
}

func (d *tracedANN) LoadANNIndex(key string, cfg ann.Config) (*ann.CandidateIndex, error) {
	sp := d.rec.child(layerPersist, "index.Load")
	defer sp.end()
	return d.inner.LoadANNIndex(key, cfg)
}

func (d *tracedANN) SaveANNIndex(key string, idx *ann.CandidateIndex) (uint64, error) {
	sp := d.rec.child(layerPersist, "index.Save")
	defer sp.end()
	return d.inner.SaveANNIndex(key, idx)
}

func (d *tracedANN) Quarantined() int64 { return d.inner.Quarantined() }

// tracedServing times ServingStore calls.
type tracedServing struct {
	inner *persist.ServingDir
	rec   *recorder
}

func (d *tracedServing) SaveServing(key string, x *serving.Index) error {
	sp := d.rec.child(layerPersist, "serving.Save")
	defer sp.end()
	return d.inner.SaveServing(key, x)
}

func (d *tracedServing) LoadLatestServing() (*serving.Index, error) {
	sp := d.rec.child(layerPersist, "serving.Load")
	defer sp.end()
	return d.inner.LoadLatestServing()
}

func (d *tracedServing) Quarantined() int64 { return d.inner.Quarantined() }

// ioCounts are the counting filesystem's totals: bytes written per data
// subdirectory (segments, snapshots, indexes, serving) and fsyncs of
// files and directories.
type ioCounts struct {
	segments, snapshots, indexes, serving, other atomic.Int64
	syncs                                        atomic.Int64
	syncNanos                                    atomic.Int64 // time spent in fsync
}

func (c *ioCounts) bytesFor(path string) *atomic.Int64 {
	switch filepath.Base(filepath.Dir(path)) {
	case "segments":
		return &c.segments
	case "snapshots":
		return &c.snapshots
	case "indexes":
		return &c.indexes
	case "serving":
		return &c.serving
	}
	return &c.other
}

func (c *ioCounts) written() int64 {
	return c.segments.Load() + c.snapshots.Load() + c.indexes.Load() + c.serving.Load() + c.other.Load()
}

// countingFS passes every call to the real filesystem, counting bytes
// written and syncs.
type countingFS struct {
	faultfs.OS
	counts *ioCounts
}

func (f countingFS) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	file, err := f.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: file, bytes: f.counts.bytesFor(name), counts: f.counts}, nil
}

func (f countingFS) CreateTemp(dir, pattern string) (faultfs.File, error) {
	file, err := f.OS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: file, bytes: f.counts.bytesFor(file.Name()), counts: f.counts}, nil
}

func (f countingFS) SyncDir(dir string) error {
	defer f.counts.timeSync(time.Now())
	return f.OS.SyncDir(dir)
}

// timeSync counts one fsync that started at start.
func (c *ioCounts) timeSync(start time.Time) {
	c.syncs.Add(1)
	c.syncNanos.Add(int64(time.Since(start)))
}

// countingFile counts one open file's writes and syncs.
type countingFile struct {
	faultfs.File
	bytes  *atomic.Int64
	counts *ioCounts
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.bytes.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	defer f.counts.timeSync(time.Now())
	return f.File.Sync()
}
