package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"adaptmr/internal/cluster"
	"adaptmr/internal/mapred"
	"adaptmr/internal/obs"
	"adaptmr/internal/sim"
)

// evalCacheVersion is folded into every cache key; bump it whenever the
// simulation's observable behaviour changes so stale entries self-invalidate.
const evalCacheVersion = "adaptmr-evalcache-v1"

// EvalCache is an on-disk, content-addressed store of evaluation results.
// The key is a hash of everything that determines an evaluation's outcome —
// cluster config, job config and plan — so repeated CLI or CI runs of the
// same sweep skip re-simulation entirely. Entries are plain JSON files named
// by their key, written atomically (temp file + rename); any unreadable,
// malformed or version-mismatched entry is treated as a miss.
//
// The cache stores results only, not traces or metrics, so the Runner
// consults it solely when observation is disabled.
//
// The cache keeps mutex-guarded hit/miss/bypass tallies (Stats), so a
// long-lived holder — the tuning daemon's /statusz, adaptreport's run
// summary — can report its effectiveness. All methods are safe for
// concurrent use: entries are content-addressed and written atomically,
// so concurrent readers and writers at worst repeat a simulation.
type EvalCache struct {
	dir string

	mu    sync.Mutex
	stats EvalCacheStats
}

// EvalCacheStats are the lifetime tallies of one EvalCache instance.
type EvalCacheStats struct {
	// Hits counts Get calls answered from disk.
	Hits int64 `json:"hits"`
	// Misses counts Get calls that fell back to simulation (missing,
	// corrupt or version-mismatched entries all count here).
	Misses int64 `json:"misses"`
	// Bypasses counts evaluations that skipped the cache because a
	// tracer or metrics registry was attached (cached results cannot
	// replay observations).
	Bypasses int64 `json:"bypasses"`
}

// Stats returns a copy of the cache's lifetime tallies. Safe for
// concurrent use; nil caches report zeroes.
func (c *EvalCache) Stats() EvalCacheStats {
	if c == nil {
		return EvalCacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// noteHit / noteMiss / NoteBypass bump the tallies. NoteBypass is exported
// for the Runner (and any other holder) to record evaluations that could
// not consult the cache; one call counts n skipped evaluations.
func (c *EvalCache) noteHit() {
	c.mu.Lock()
	c.stats.Hits++
	c.mu.Unlock()
}

func (c *EvalCache) noteMiss() {
	c.mu.Lock()
	c.stats.Misses++
	c.mu.Unlock()
}

// NoteBypass records n evaluations that skipped the cache entirely.
func (c *EvalCache) NoteBypass(n int) {
	if c == nil || n <= 0 {
		return
	}
	c.mu.Lock()
	c.stats.Bypasses += int64(n)
	c.mu.Unlock()
}

// evalCacheEntry is the on-disk envelope around a cached result.
type evalCacheEntry struct {
	Version string        `json:"version"`
	Plan    string        `json:"plan"`
	Result  cachedResult  `json:"result"`
	Job     cachedJob     `json:"job"`
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// cachedResult mirrors the plain fields of RunResult.
type cachedResult struct {
	Duration    int64 `json:"duration"`
	SwitchStall int64 `json:"switchStall"`
}

// cachedJob mirrors mapred.Result (all plain exported data).
type cachedJob struct {
	Result mapred.Result `json:"result"`
}

// OpenEvalCache opens (creating if needed) a cache rooted at dir.
func OpenEvalCache(dir string) (*EvalCache, error) {
	if dir == "" {
		return nil, fmt.Errorf("core: eval cache directory is empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: eval cache: %w", err)
	}
	return &EvalCache{dir: dir}, nil
}

// Dir returns the cache's root directory.
func (c *EvalCache) Dir() string { return c.dir }

// EvalDigest derives the content hash that addresses one evaluation: a
// sha256 over the versioned (cluster config, job config, plan key) triple.
// Observation sinks are zeroed before hashing: they do not affect
// simulated timings, and pointer fields would not marshal meaningfully
// anyway.
//
// The digest is the cache's file name, and — because it captures
// everything that determines an evaluation's outcome — it is also the
// coalescing key the tuning daemon uses to single-flight identical
// in-flight requests.
func EvalDigest(cc cluster.Config, job mapred.Config, plan Plan) (string, error) {
	cc.Obs = obs.Sink{}
	cc.Host.Obs = obs.Sink{}
	h := sha256.New()
	h.Write([]byte(evalCacheVersion))
	h.Write([]byte{0})
	enc := json.NewEncoder(h)
	if err := enc.Encode(cc); err != nil {
		return "", fmt.Errorf("core: eval cache key (cluster): %w", err)
	}
	if err := enc.Encode(job); err != nil {
		return "", fmt.Errorf("core: eval cache key (job): %w", err)
	}
	h.Write([]byte(plan.Key()))
	return hex.EncodeToString(h.Sum(nil)), nil
}

// key derives the content hash for one evaluation.
func (c *EvalCache) key(cc cluster.Config, job mapred.Config, plan Plan) (string, error) {
	return EvalDigest(cc, job, plan)
}

// path returns the entry file for a key.
func (c *EvalCache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// Get looks up a cached result. Any failure — missing file, corrupt JSON,
// version mismatch — is reported as a miss, never an error: the caller can
// always fall back to simulating.
func (c *EvalCache) Get(cc cluster.Config, job mapred.Config, plan Plan) (RunResult, bool) {
	if c == nil {
		return RunResult{}, false
	}
	key, err := c.key(cc, job, plan)
	if err != nil {
		c.noteMiss()
		return RunResult{}, false
	}
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		c.noteMiss()
		return RunResult{}, false
	}
	var e evalCacheEntry
	if err := json.Unmarshal(data, &e); err != nil || e.Version != evalCacheVersion {
		c.noteMiss()
		return RunResult{}, false
	}
	c.noteHit()
	return RunResult{
		Plan:        plan,
		Duration:    sim.Duration(e.Result.Duration),
		Job:         e.Job.Result,
		SwitchStall: sim.Duration(e.Result.SwitchStall),
		Metrics:     e.Metrics,
	}, true
}

// Put stores a result. Writes are atomic (temp file in the cache dir, then
// rename), so concurrent writers and crashed runs never leave a torn entry —
// the worst outcome is a future re-simulation.
func (c *EvalCache) Put(cc cluster.Config, job mapred.Config, plan Plan, res RunResult) error {
	if c == nil {
		return nil
	}
	key, err := c.key(cc, job, plan)
	if err != nil {
		return err
	}
	// Perf telemetry is wall-clock and machine dependent; persisting it
	// would make cache entries nondeterministic, so it never hits disk
	// (res is a copy — the caller's result keeps its Perf).
	res.Job.Perf = nil
	e := evalCacheEntry{
		Version: evalCacheVersion,
		Plan:    plan.Key(),
		Result: cachedResult{
			Duration:    int64(res.Duration),
			SwitchStall: int64(res.SwitchStall),
		},
		Job:     cachedJob{Result: res.Job},
		Metrics: res.Metrics,
	}
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return fmt.Errorf("core: eval cache put: %w", err)
	}
	tmp, err := os.CreateTemp(c.dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("core: eval cache put: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("core: eval cache put: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("core: eval cache put: %w", err)
	}
	if err := os.Rename(tmpName, c.path(key)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("core: eval cache put: %w", err)
	}
	return nil
}
