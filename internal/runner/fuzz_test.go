package runner

import (
	"encoding/json"
	"strings"
	"testing"

	"ncap/internal/cluster"
)

// FuzzParseCacheEntry: a shared cache directory can hold entries from
// crashed writers, other schema versions, or plain corruption. Every
// defect must degrade to a miss (ok=false) — never a panic, and never a
// hit for a key the file does not carry.
func FuzzParseCacheEntry(f *testing.F) {
	const key = "deadbeef"
	good, err := json.Marshal(cacheEntry{
		Schema: schemaVersion,
		Key:    key,
		Tag:    "t",
		Result: cluster.Result{Sent: 5, Completed: 5},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good, key)
	f.Add(good, "otherkey") // key mismatch must miss
	f.Add([]byte(""), key)
	f.Add([]byte("{}"), key)
	f.Add([]byte(`{"schema":"ncap-runner-v1","key":"deadbeef"}`), key)
	f.Add([]byte(`{"schema":"ncap-runner-v2","key":"deadbeef","result":[]}`), key)
	f.Add(good[:len(good)/2], key) // torn write
	f.Add([]byte(strings.ReplaceAll(string(good), key, "intruder")), key)
	f.Add([]byte("\x00\x01junk"), key)

	f.Fuzz(func(t *testing.T, data []byte, key string) {
		res, ok := parseCacheEntry(data, key)
		if !ok {
			return
		}
		// A hit means the file really carried this schema and key; check
		// by re-decoding the raw document independently.
		var e cacheEntry
		if err := json.Unmarshal(data, &e); err != nil {
			t.Fatalf("hit from undecodable blob: %v", err)
		}
		if e.Schema != schemaVersion || e.Key != key {
			t.Fatalf("hit with schema %q key %q (want %q %q)", e.Schema, e.Key, schemaVersion, key)
		}
		_ = res
	})
}
