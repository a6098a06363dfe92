// Package runner turns "run one simulation" into "orchestrate a batch of
// simulations": it schedules independent cluster experiments across a
// worker pool, isolates each run (panic recovery, wall-clock timeouts),
// memoizes results in a content-keyed on-disk cache, and reports progress.
//
// Determinism contract: every simulation is a pure function of its
// cluster.Config (same config and seed → identical Result), and Run
// aggregates outcomes in job submission order regardless of worker
// scheduling — so a sweep produces byte-identical tables at any worker
// count.
package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"ncap/internal/cluster"
)

// schemaVersion tags cache keys and entries. Bump it whenever the meaning
// of cluster.Config or cluster.Result changes in a way serialized JSON
// cannot express (new semantics behind an old field, changed defaults
// applied after hashing) so stale cache entries are never replayed.
//
// v2: cluster.Config gained the fault-injection spec (Config.Fault) and
// cluster.Result the fault/duplicate accounting; entries written by v1
// predate both and must re-run.
//
// v3: cluster.Result.Events counts only the events the engine fires; v2
// entries also counted the link completions and switch forwards kept as
// records, so their Events would disagree with a fresh run.
//
// v4: the serialized config lost the fields that no program sets to a
// second value or that shadow a cluster option (the NIC's TxRing and
// Queues, the driver's TOEFactor, the NCAP block's FCONS, OverrideFCONS,
// the scenario and overload tuning knobs), and Config.FCONS replaced the
// FCONS pair. A v3 key hashes a different document for the same run.
//
// v5: the fault spec lost its loss-model selector, and a link fault's
// bare "p" now means Bernoulli loss; under v4 it meant no loss unless
// "loss" selected Bernoulli, so a v4 entry can hold a different run
// for the same document.
const schemaVersion = "ncap-runner-v5"

// Job is one simulation to run: a fully resolved experiment configuration
// plus a human-readable tag for progress and error reporting. The tag is
// cosmetic; the identity of a job is its config.
type Job struct {
	// Tag labels the job in progress output and errors, e.g.
	// "policies/apache/low/ncap.aggr". Not part of the cache key.
	Tag string
	// Config is the complete experiment description. It must be fully
	// resolved before submission: the key is computed from it, so two
	// jobs with equal configs are the same experiment.
	Config cluster.Config
}

// Key returns the job's deterministic content key: a hex SHA-256 over the
// JSON serialization of the config's canonical form (Config.Canonical)
// plus the cache schema version. encoding/json writes struct fields in
// declaration order and the config is plain data (no maps, no pointers),
// so the serialization — and therefore the key — is stable across
// processes and worker counts, and aliases of one run share it.
func (j Job) Key() string {
	blob, err := json.Marshal(j.Config.Canonical())
	if err != nil {
		// The config is a closed set of plain-data fields; marshal can
		// only fail on NaN/Inf floats, which no valid config contains.
		panic(fmt.Sprintf("runner: config not serializable: %v", err))
	}
	h := sha256.New()
	h.Write([]byte(schemaVersion))
	h.Write([]byte{0})
	h.Write(blob)
	return hex.EncodeToString(h.Sum(nil))
}

// Cacheable reports whether the job's result can be memoized on disk.
// Trace-sampling runs exist for their time series (Result.Trace), which
// would only bloat the store, and telemetry-carrying runs exist to populate
// a live sink (metrics registry, event trace) a cached Result cannot
// refill — both always execute. Audited jobs (Config.Audit) also always
// execute: replaying a stored Result would skip the invariant checks the
// audit exists to run. Config.Telemetry and Config.Audit are likewise
// excluded from Key (json:"-"): a handle is identity-free and auditing is
// pure observation, so neither must change which cache entry the config
// denotes. Trace-recording runs (Config.Traffic.Record) always execute
// too: their value is the captured schedule (Result.Recorded), which the
// cache does not serialize — but unlike Telemetry, Record IS part of the
// key, because it changes nothing about the Result and a recorded run may
// validly share its entry with a plain run of the same config only if the
// field is serialized consistently; keeping it keyed is the conservative
// choice. A replayed trace participates in the key through its canonical
// hash (Spec.TraceHash), so trace-replay jobs cache normally.
func (j Job) Cacheable() bool {
	return j.Config.TraceInterval == 0 && j.Config.Telemetry == nil &&
		!j.Config.Audit && !j.Config.Recording()
}
