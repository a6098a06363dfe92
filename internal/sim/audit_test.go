package sim

import (
	"testing"

	"ncap/internal/audit"
)

// TestAuditIntegrityCleanEngine: a queue churned through every structure
// — near window, low and high wheel levels, cancellations, pooled reuse —
// passes the structural audit at multiple points, and the cursor the
// audit returns never regresses.
func TestAuditIntegrityCleanEngine(t *testing.T) {
	eng := NewEngine()
	a := audit.New()
	fired := 0
	for i := 0; i < 200; i++ {
		// Spread across near (sub-4096ns), level-0/1 and level-4 horizons.
		eng.ScheduleArg(Duration(1+i*37), func(any) { fired++ }, nil)
		eng.ScheduleArg(Duration(10_000+i*911), func(any) { fired++ }, nil)
		eng.ScheduleArg(Duration(int64(1)<<40)+Duration(i), func(any) { fired++ }, nil)
	}
	for i := 0; i < 50; i++ {
		h := eng.ScheduleArg(Duration(5_000+i), func(any) { t.Error("canceled event fired") }, nil)
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
	var spin func(any)
	spin = func(any) { eng.ScheduleArg(0, spin, nil) }
	eng.AtArg(42, spin, nil)
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
	var tick func(any)
	tick = func(any) {
		if n++; n < 10_000 {
			eng.ScheduleArg(1, tick, nil)
		}
	}
	eng.ScheduleArg(1, tick, nil)
	eng.Run(Time(20_000))
	if n != 10_000 {
		t.Fatalf("ran %d ticks", n)
	}
}
