package runner

import (
	"testing"

	"ncap/internal/app"
	"ncap/internal/cluster"
	"ncap/internal/topology"
)

// The pinned cache key of the default NCAP-cons/apache/low config. The
// topology field is nil-gated behind json omitempty precisely so this key
// never moves: if this test fails, every historical cache entry is
// orphaned — bump schemaVersion instead of shipping a silent identity
// change.
const pinnedDefaultKey = "0b203725f34c21d17c61abf8b5e4172f674dcfda7b0c129c705e98027e755585"

func TestDefaultConfigKeyPinned(t *testing.T) {
	j := Job{Config: cluster.DefaultConfig(cluster.NcapCons, app.ApacheProfile(), 24_000)}
	if got := j.Key(); got != pinnedDefaultKey {
		t.Fatalf("default config cache key moved:\n got %s\nwant %s", got, pinnedDefaultKey)
	}
}

// A topology spec is part of the experiment's identity: attaching one, or
// changing its shape, must change the cache key.
func TestTopologyInJobKey(t *testing.T) {
	star := Job{Config: tinyCfg(cluster.NcapCons, app.ApacheProfile(), 24_000)}
	rack := star
	rack.Config.Topology = topology.Rack(16, 8)
	fleet := star
	fleet.Config.Topology = topology.Fleet(4, 2, 16, 8)

	if star.Key() == rack.Key() {
		t.Fatal("topology spec did not change the cache key")
	}
	if rack.Key() == fleet.Key() {
		t.Fatal("different shapes share a cache key")
	}
	again := star
	again.Config.Topology = topology.Rack(16, 8)
	if again.Key() != rack.Key() {
		t.Fatal("equal specs must produce equal keys")
	}
}
