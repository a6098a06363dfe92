package cluster

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"ncap/internal/app"
	"ncap/internal/sim"
)

// panelDigests pins the SHA-256 of every power-action panel Result.
const panelDigests = "testdata/power_panel.sha256"

// panelVariant is one machine shape of the power-action panel.
type panelVariant struct {
	name  string
	apply func(*Config)
}

// panelVariants covers every way an NCAP action's reach can differ: one
// chip-wide domain, per-core domains behind one queue, per-queue engines
// on per-core domains (one and two queues per core), multi-queue NICs on a
// chip-wide domain, and the TOE threshold scaling alone and combined.
var panelVariants = []panelVariant{
	{"base", func(*Config) {}},
	{"pcd", func(c *Config) { c.PerCoreDVFS = true }},
	{"q4+pcd", func(c *Config) { c.Queues, c.PerCoreDVFS = 4, true }},
	{"q8+pcd", func(c *Config) { c.Queues, c.PerCoreDVFS = 8, true }},
	{"q4", func(c *Config) { c.Queues = 4 }},
	{"toe", func(c *Config) { c.TOE = true }},
	{"q4+pcd+toe", func(c *Config) { c.Queues, c.PerCoreDVFS, c.TOE = 4, true, true }},
}

// panelConfigs returns the panel's named configs in a fixed order,
// skipping the combinations Validate rejects.
func panelConfigs() (names []string, cfgs []Config) {
	for _, prof := range []app.Profile{app.ApacheProfile(), app.MemcachedProfile()} {
		for _, level := range []LoadLevel{LowLoad, MediumLoad} {
			for _, p := range AllPolicies() {
				for _, v := range panelVariants {
					cfg := DefaultConfig(p, prof, LoadRPS(prof.Name, level))
					cfg.Warmup, cfg.Measure, cfg.Drain = 20*sim.Millisecond, 60*sim.Millisecond, 20*sim.Millisecond
					v.apply(&cfg)
					if cfg.Validate() != nil {
						continue
					}
					names = append(names, prof.Name+"/"+level.String()+"/"+string(p)+"/"+v.name)
					cfgs = append(cfgs, cfg)
				}
			}
		}
	}
	return names, cfgs
}

// TestPowerActionPanel pins every Result of the power-action panel: each
// policy on each machine shape, for both workloads at two loads. Who
// decides how far a boost, a step-down or a menu toggle reaches is a
// refactoring hazard that aggregate goldens can miss; this catches any
// change in a single run. Under -race only the apache/medium slice runs.
func TestPowerActionPanel(t *testing.T) {
	want := readDigests(t, panelDigests)
	names, cfgs := panelConfigs()
	if len(names) != 188 {
		t.Fatalf("panel has %d configs, want 188", len(names))
	}
	ran := 0
	for i, name := range names {
		if raceEnabled && !strings.HasPrefix(name, "apache/medium/") {
			continue
		}
		res := New(cfgs[i]).Run()
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256(b)
		got := hex.EncodeToString(sum[:])
		if want[name] != got {
			t.Errorf("%s: result sha256 %s, pinned %s", name, got, want[name])
		}
		ran++
	}
	if ran == 0 {
		t.Fatal("no panel config ran")
	}
}

// readDigests parses a pin file of "name digest" lines.
func readDigests(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			t.Fatalf("%s: bad line %q", path, sc.Text())
		}
		out[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
