package cluster

import (
	"reflect"
	"testing"

	"ncap/internal/app"
	"ncap/internal/sim"
	"ncap/internal/telemetry"
	"ncap/internal/topology"
	"ncap/internal/workload"
)

// reuseSeries is the storage-reuse panel: configs that differ in every
// kind of object a storage recycles and in everything a Result may
// reference. Each entry builds a fresh config, so a telemetry sink is
// never shared between runs.
func reuseSeries() (names []string, builds []func() Config) {
	small := func(p Policy, prof app.Profile, load float64) Config {
		cfg := DefaultConfig(p, prof, load)
		cfg.Warmup, cfg.Measure, cfg.Drain = 20*sim.Millisecond, 60*sim.Millisecond, 20*sim.Millisecond
		return cfg
	}
	apache := func() Config { return small(NcapCons, app.ApacheProfile(), 24_000) }
	add := func(name string, build func() Config) {
		names = append(names, name)
		builds = append(builds, build)
	}
	add("star-apache-ncap.cons", apache)
	add("e11-faulted", func() Config {
		cfg := small(NcapCons, app.ApacheProfile(), LoadRPS("apache", MediumLoad))
		_, fire := fireOrderConfigs()
		cfg.Fault = fire[1].Fault // E11's degradation, every injector verdict
		return cfg
	})
	add("memcached-ond", func() Config { return small(Ond, app.MemcachedProfile(), 35_000) })
	add("rack8", func() Config {
		cfg := small(NcapAggr, app.MemcachedProfile(), 1500*8)
		cfg.Topology = topology.Rack(8, 4)
		return cfg
	})
	add("fleet-2x2", func() Config {
		spec := topology.Fleet(2, 2, 2, 2)
		cfg := small(NcapCons, app.ApacheProfile(), 6000*float64(spec.Servers()))
		cfg.Topology = spec
		return cfg
	})
	add("trace-interval", func() Config {
		cfg := apache()
		cfg.TraceInterval = sim.Millisecond
		return cfg
	})
	add("recording", func() Config {
		cfg := apache()
		cfg.Traffic = &workload.Spec{Record: true}
		return cfg
	})
	add("telemetry", func() Config {
		cfg := apache()
		cfg.Telemetry = telemetry.New(telemetry.Options{})
		return cfg
	})
	add("audit", func() Config {
		cfg := small(NcapAggr, app.MemcachedProfile(), 35_000)
		cfg.Audit = true
		return cfg
	})
	add("q4+pcd", func() Config {
		cfg := apache()
		cfg.Queues, cfg.PerCoreDVFS = 4, true
		return cfg
	})
	return names, builds
}

// TestStorageReuseMatchesFresh runs one storage through the reuse panel
// and then through it in reverse, so every config also runs on memory
// that a different config left. Each Result must deep-equal the Result of
// the same config on a fresh storage, and a finished run stays readable
// until the next run takes its storage. Every Result is checked again
// once the whole series is over: nothing a Result references (Trace,
// Recorded, the maps, Groups) may come from the storage.
func TestStorageReuseMatchesFresh(t *testing.T) {
	names, builds := reuseSeries()
	order := make([]int, 0, 2*len(names))
	for i := range names {
		order = append(order, i)
	}
	for i := len(names) - 1; i >= 0; i-- {
		order = append(order, i)
	}
	fresh := make([]Result, len(names))
	freshEnd := make([]sim.Time, len(names))
	for i, build := range builds {
		c := New(build())
		fresh[i] = c.Run()
		freshEnd[i] = c.Engine().Now()
	}

	st := NewStorage()
	kept := make([]Result, len(order))
	for k, i := range order {
		cfg := builds[i]()
		c := NewWith(cfg, st)
		kept[k] = c.Run()
		if !reflect.DeepEqual(kept[k], fresh[i]) {
			t.Errorf("run %d (%s) on a reused storage differs from a fresh run:\n%+v\nvs\n%+v", k, names[i], kept[k], fresh[i])
		}
		if c.Engine().Now() != freshEnd[i] {
			t.Errorf("run %d (%s): finished engine at %v, want %v", k, names[i], c.Engine().Now(), freshEnd[i])
		}
		if v := c.AuditViolations(); len(v) != 0 {
			t.Errorf("run %d (%s): %d audit violations, first %v", k, names[i], len(v), v[0])
		}
	}
	for k, i := range order {
		if !reflect.DeepEqual(kept[k], fresh[i]) {
			t.Errorf("run %d (%s): its Result changed after later runs reused the storage", k, names[i])
		}
	}
}
