package app

import (
	"testing"

	"ncap/internal/netsim"
	"ncap/internal/resilience"
	"ncap/internal/sim"
)

// silentClient builds a client whose requests vanish into an unrouted
// switch — the standard rig for exercising the retry machinery.
func silentClient(eng *sim.Engine, cfg ClientConfig) *Client {
	sw := netsim.NewSwitch(eng, 0)
	cl := NewClient(eng, 2, 1, netsim.NewLink(eng, netsim.DefaultLinkConfig(), sw),
		[]byte("GET /"), cfg, sim.NewRand(5, "client"), nil)
	sw.Attach(2, netsim.DefaultLinkConfig(), cl)
	return cl
}

// TestClientBackoffSaturation: the doubling schedule reaches the cap and
// stays there — huge retry counts neither overflow nor exceed the limit.
func TestClientBackoffSaturation(t *testing.T) {
	cfg := DefaultClientConfig()
	cfg.RTO = sim.Millisecond
	cfg.Backoff = true // default cap: 8×RTO
	cl := silentClient(sim.NewEngine(), cfg)
	want := []struct {
		retries int
		rto     sim.Duration
	}{
		{0, sim.Millisecond},
		{1, 2 * sim.Millisecond},
		{2, 4 * sim.Millisecond},
		{3, 8 * sim.Millisecond},
		{4, 8 * sim.Millisecond},
		{1000, 8 * sim.Millisecond},
	}
	for _, w := range want {
		if got := cl.rto(w.retries); got != w.rto {
			t.Fatalf("rto(%d) = %v, want %v", w.retries, got, w.rto)
		}
	}
	cfg.Backoff = false
	cl = silentClient(sim.NewEngine(), cfg)
	if got := cl.rto(1000); got != sim.Millisecond {
		t.Fatalf("backoff off: rto(1000) = %v, want the base RTO", got)
	}
}

// TestClientDeadlineBoundsBackoff: with backoff doubling past the
// deadline, the retry timer clamps to the remaining deadline budget and
// the request fails with deadline-exceeded — never abandoned, never
// retried past its deadline.
func TestClientDeadlineBoundsBackoff(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultClientConfig()
	cfg.BurstSize = 4
	cfg.Period = sim.Second
	cfg.RTO = 10 * sim.Millisecond
	cfg.MaxRetries = 100
	cfg.Backoff = true
	cfg.Deadline = 35 * sim.Millisecond
	cl := silentClient(eng, cfg)
	cl.Start()
	eng.Run(200 * sim.Millisecond)
	// Send at 0, retries at 10ms and 30ms (RTO 10 then 20); the next
	// backed-off timer (40ms) clamps to the deadline at 35ms.
	if got := cl.Retransmits.Value(); got != 8 {
		t.Fatalf("retransmits = %d, want 2 per request (8)", got)
	}
	if got := cl.DeadlineExceeded.Value(); got != 4 {
		t.Fatalf("deadline-exceeded = %d, want 4", got)
	}
	if cl.Abandoned.Value() != 0 {
		t.Fatalf("abandoned = %d, deadline should fire first", cl.Abandoned.Value())
	}
	if cl.Outstanding() != 0 {
		t.Fatalf("outstanding = %d, deadline did not drain state", cl.Outstanding())
	}
	// Failures are recorded at deadline time, not give-up-after-retries.
	if got := cl.Latency().Percentile(50); got < 30*sim.Millisecond || got > 40*sim.Millisecond {
		t.Fatalf("failure latency = %v, want ~35ms", got)
	}
}

// TestClientRetryBudgetExhaustion: an empty token bucket turns timeouts
// into terminal failures instead of a retry storm.
func TestClientRetryBudgetExhaustion(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultClientConfig()
	cfg.BurstSize = 4
	cfg.Period = sim.Second
	cfg.RTO = 5 * sim.Millisecond
	cfg.MaxRetries = 100
	cl := silentClient(eng, cfg)
	spec := &resilience.Spec{RetryBudget: 0.5}
	cl.Budget = spec.NewBudget()
	cl.Start()
	eng.Run(100 * sim.Millisecond)
	// 4 sends earn 0.5 each but the bucket is capped (and starts) at the
	// burst of 10: exactly 10 retransmits ever leave the client (two
	// rounds of 4, then 2 of the third), and the other 2 third-round
	// timeouts and the fourth round's 2 are denied.
	if got := cl.Retransmits.Value(); got != resilience.DefaultRetryBurst {
		t.Fatalf("retransmits = %d, want the %d budget tokens", got, resilience.DefaultRetryBurst)
	}
	if got := cl.BudgetDenied.Value(); got != 4 {
		t.Fatalf("budget-denied = %d, want 4", got)
	}
	if cl.Outstanding() != 0 {
		t.Fatalf("outstanding = %d after exhaustion", cl.Outstanding())
	}
}

// TestClientBudgetDeadlineInteraction: with both armed, the deadline
// bounds how long a request lives and the budget bounds how many
// retransmissions it may spend within that window; every request resolves
// to exactly one terminal outcome.
func TestClientBudgetDeadlineInteraction(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultClientConfig()
	cfg.BurstSize = 8
	cfg.Period = sim.Second
	cfg.RTO = 5 * sim.Millisecond
	cfg.MaxRetries = 100
	cfg.Backoff = true
	cfg.Deadline = 18 * sim.Millisecond
	cl := silentClient(eng, cfg)
	spec := &resilience.Spec{RetryBudget: 0.25}
	cl.Budget = spec.NewBudget()
	cl.Start()
	eng.Run(200 * sim.Millisecond)
	terminal := cl.DeadlineExceeded.Value() + cl.BudgetDenied.Value() + cl.Abandoned.Value()
	if terminal != 8 {
		t.Fatalf("terminal outcomes = %d (dl=%d budget=%d abandoned=%d), want one per request",
			terminal, cl.DeadlineExceeded.Value(), cl.BudgetDenied.Value(), cl.Abandoned.Value())
	}
	// Within the deadline each request would retransmit twice (at 5 and
	// 15 ms): 16 retries against a budget of 10.
	if got := cl.Retransmits.Value(); got != resilience.DefaultRetryBurst {
		t.Fatalf("retransmits = %d, want the budget's %d", got, resilience.DefaultRetryBurst)
	}
	if cl.Outstanding() != 0 {
		t.Fatalf("outstanding = %d", cl.Outstanding())
	}
}

// TestDedupTableBoundedUnderStorm: a long run of distinct requests holds
// the duplicate-suppression table at its cap with FIFO eviction — recent
// requests stay suppressible, evicted ones are re-served, and the backing
// ring is reused rather than leaked.
func TestDedupTableBoundedUnderStorm(t *testing.T) {
	const cap = 8
	r := newServerRig(MemcachedProfile())
	r.srv.Dedup = true
	r.srv.DedupCap = cap
	payload := MemcachedProfile().RequestPayload()
	const n = 500
	for i := 0; i < n; i++ {
		r.dev.Receive(netsim.NewRequest(2, 1, uint64(i+1), payload))
		r.eng.Run(r.eng.Now() + sim.Millisecond)
	}
	if got := r.srv.Served.Value(); got != n {
		t.Fatalf("served = %d, want %d", got, n)
	}
	live, backing := r.srv.DedupRing()
	if live != cap {
		t.Fatalf("dedup table holds %d entries, want the cap %d", live, cap)
	}
	// The ring is sized by the span of live request ids (its initial 64
	// slots cover this stream), not by the number of requests served:
	// without eviction, 500 inserts would grow it past 512 slots.
	if backing > 2*(64+cap) {
		t.Fatalf("dedup backing array = %d slots for %d live entries: eviction leaks", backing, live)
	}
	// A recent request is still suppressed; an evicted one is served anew.
	r.dev.Receive(netsim.NewRequest(2, 1, n, payload))
	r.eng.Run(r.eng.Now() + sim.Millisecond)
	if r.srv.DupSuppressed.Value()+r.srv.DupResent.Value() == 0 {
		t.Fatal("duplicate of an in-window request was not suppressed")
	}
	if got := r.srv.Served.Value(); got != n {
		t.Fatalf("served = %d, duplicate of request %d was re-executed", got, n)
	}
	r.dev.Receive(netsim.NewRequest(2, 1, 1, payload))
	r.eng.Run(r.eng.Now() + sim.Millisecond)
	if got := r.srv.Served.Value(); got != n+1 {
		t.Fatalf("served = %d, evicted request 1 was not re-served", got)
	}
	if live, _ := r.srv.DedupRing(); live != cap {
		t.Fatalf("dedup table at %d after re-serve, want %d", live, cap)
	}
}
