package sim

import (
	"testing"

	"ncap/internal/audit"
)

// TestAuditIntegrityCleanEngine: a queue churned through every structure
// — near window, wheel levels, overflow, cancellations, pooled reuse —
// passes the structural audit at multiple points, and the cursor the
// audit returns never regresses.
func TestAuditIntegrityCleanEngine(t *testing.T) {
	eng := NewEngine()
	a := audit.New()
	fired := 0
	for i := 0; i < 200; i++ {
		// Spread across near (sub-4096ns), wheel and overflow horizons.
		eng.Schedule(Duration(1+i*37), func() { fired++ })
		eng.Schedule(Duration(10_000+i*911), func() { fired++ })
		eng.Schedule(Duration(int64(1)<<40)+Duration(i), func() { fired++ })
	}
	for i := 0; i < 50; i++ {
		h := eng.Schedule(Duration(5_000+i), func() { t.Error("canceled event fired") })
		h.Cancel()
	}
	var cursor uint64
	cursor = eng.AuditIntegrity(a, cursor)
	for _, until := range []Time{2_000, 60_000, 1 << 41} {
		eng.Run(until)
		cursor = eng.AuditIntegrity(a, cursor)
	}
	if vs := a.Violations(); len(vs) != 0 {
		t.Fatalf("clean engine failed integrity audit: %v", vs)
	}
	if fired != 600 {
		t.Fatalf("fired %d of 600 events", fired)
	}
	if eng.Pending() != 0 {
		t.Fatalf("pending = %d after drain", eng.Pending())
	}
}

// TestLivelockWatchdogTrips: an event that reschedules itself at the
// current instant forever must trip the watchdog at the configured limit
// instead of hanging Run.
func TestLivelockWatchdogTrips(t *testing.T) {
	eng := NewEngine()
	var count int
	var at Time
	eng.SetLivelockWatchdog(1000, func(c int, when Time) {
		count, at = c, when
		eng.Stop()
	})
	var spin func()
	spin = func() { eng.Schedule(0, spin) }
	eng.At(42, spin)
	eng.Run(Second)
	if count != 1000 {
		t.Fatalf("watchdog count = %d, want the limit (1000)", count)
	}
	if at != 42 {
		t.Fatalf("watchdog tripped at %v, want the stuck instant 42", at)
	}
}

// TestLivelockWatchdogQuietOnProgress: simulated time advancing resets
// the same-instant counter — a long but time-advancing run never trips.
func TestLivelockWatchdogQuietOnProgress(t *testing.T) {
	eng := NewEngine()
	eng.SetLivelockWatchdog(100, func(int, Time) {
		t.Fatal("watchdog tripped on a progressing simulation")
	})
	n := 0
	var tick func()
	tick = func() {
		if n++; n < 10_000 {
			eng.Schedule(1, tick)
		}
	}
	eng.Schedule(1, tick)
	eng.Run(Time(20_000))
	if n != 10_000 {
		t.Fatalf("ran %d ticks", n)
	}
}
