package runner

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"ncap/internal/cluster"
)

// cacheSyncs counts stores that completed their fsync pair (entry file
// and directory), for tests asserting the durability path actually runs
// — an atomic rename alone survives process death but not machine crash.
var cacheSyncs atomic.Int64

// cacheEntry is the on-disk representation of one memoized result. The
// schema version and key are stored redundantly so a corrupted, renamed
// or stale file is detected and treated as a miss rather than replayed.
type cacheEntry struct {
	Schema string          `json:"schema"`
	Key    string          `json:"key"`
	Tag    string          `json:"tag"`
	Result cluster.Result  `json:"result"`
	Config json.RawMessage `json:"config"` // for humans debugging a cache dir
}

// cache is a content-keyed directory of JSON result files. All methods
// are safe for concurrent use: distinct keys touch distinct files, and
// same-key writes go through an atomic temp-file rename.
type cache struct{ dir string }

func openCache(dir string) (*cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache dir: %w", err)
	}
	return &cache{dir: dir}, nil
}

func (c *cache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// load returns the memoized result for key, or ok=false on any miss —
// absent file, unreadable JSON, schema or key mismatch. A bad entry is
// never an error: the job simply runs.
func (c *cache) load(key string) (cluster.Result, bool) {
	blob, err := os.ReadFile(c.path(key))
	if err != nil {
		return cluster.Result{}, false
	}
	return parseCacheEntry(blob, key)
}

// parseCacheEntry decodes one cache file against the key it was looked up
// under. Any defect — malformed JSON, truncation, schema or key mismatch —
// degrades to a miss, never a panic or a wrong-keyed replay.
func parseCacheEntry(blob []byte, key string) (cluster.Result, bool) {
	var e cacheEntry
	if err := json.Unmarshal(blob, &e); err != nil {
		return cluster.Result{}, false
	}
	if e.Schema != schemaVersion || e.Key != key {
		return cluster.Result{}, false
	}
	return e.Result, true
}

// store memoizes a result under key. The write is atomic (temp file +
// rename) so concurrent sweeps sharing a cache dir never observe a
// partial entry, and durable (fsync of the file before the rename and of
// the directory after it) so an interrupted sweep rerun over the same
// dir replays every job that completed before a machine crash, not only
// before a process one. Failures are returned but safe to ignore: a
// missing entry only means the job runs again.
func (c *cache) store(key, tag string, job Job, res cluster.Result) error {
	cfgBlob, _ := json.Marshal(job.Config)
	blob, err := json.MarshalIndent(cacheEntry{
		Schema: schemaVersion,
		Key:    key,
		Tag:    tag,
		Result: res,
		Config: cfgBlob,
	}, "", " ")
	if err != nil {
		return fmt.Errorf("runner: marshal cache entry: %w", err)
	}
	if err := WriteFileDurable(c.path(key), blob); err != nil {
		return fmt.Errorf("runner: cache write: %w", err)
	}
	cacheSyncs.Add(1)
	return nil
}

// WriteFileDurable replaces path with blob atomically and durably: the
// bytes go to a hidden temp file beside it (".<base>.tmp*", which no
// reader mistakes for an entry), which is fsynced, renamed over path,
// and followed by an fsync of the directory. Readers see the old file or
// the new one, never a partial write, and the new one survives a machine
// crash once this returns nil.
func WriteFileDurable(path string, blob []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory so a just-created or just-renamed entry
// survives a machine crash, not only a process one.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	// Some filesystems reject fsync on directories; treat that as best
	// effort rather than failing a write that already renamed.
	_ = d.Sync()
	return d.Close()
}
