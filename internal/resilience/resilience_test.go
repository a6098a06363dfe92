package resilience

import (
	"testing"

	"ncap/internal/sim"
)

func TestSpecEnabled(t *testing.T) {
	var nilSpec *Spec
	if nilSpec.Enabled() || nilSpec.Admission() {
		t.Fatal("nil spec reads enabled")
	}
	if (&Spec{}).Enabled() {
		t.Fatal("zero spec reads enabled")
	}
	for name, s := range map[string]Spec{
		"queueCap": {QueueCap: 8},
		"admit":    {Admit: AdmitCoDel},
		"dedup":    {DedupCap: 16},
		"deadline": {Deadline: sim.Millisecond},
		"budget":   {RetryBudget: 0.1},
		"breaker":  {BreakerThreshold: 3},
		"jitter":   {JitterBackoff: true},
	} {
		s := s
		if !s.Enabled() {
			t.Errorf("spec with %s set reads disabled", name)
		}
	}
	if (&Spec{Deadline: sim.Millisecond}).Admission() {
		t.Fatal("client-only spec reads as server admission")
	}
	if !(&Spec{Admit: AdmitDeadline}).Admission() {
		t.Fatal("admit policy alone does not enable admission")
	}
}

func TestSpecValidate(t *testing.T) {
	var nilSpec *Spec
	if err := nilSpec.Validate(); err != nil {
		t.Fatalf("nil spec: %v", err)
	}
	good := Spec{QueueCap: 64, Admit: AdmitDeadline, Deadline: sim.Millisecond,
		RetryBudget: 0.2, BreakerThreshold: 4}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	for name, s := range map[string]Spec{
		"negative queue":    {QueueCap: -1},
		"negative dedup":    {DedupCap: -1},
		"negative deadline": {Deadline: -1},
		"negative budget":   {RetryBudget: -0.5},
		"negative breaker":  {BreakerThreshold: -2},
		"unknown admit":     {Admit: "bogus"},
	} {
		s := s
		if err := s.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestSpecDefaults(t *testing.T) {
	s := &Spec{Admit: AdmitCoDel}
	if got := s.EffQueueCap(); got != DefaultQueueCap {
		t.Errorf("EffQueueCap = %d", got)
	}
	if got := (&Spec{}).EffAdmit(); got != AdmitDropTail {
		t.Errorf("EffAdmit = %v", got)
	}
	s = &Spec{QueueCap: 7, Admit: AdmitDeadline}
	if s.EffQueueCap() != 7 || s.EffAdmit() != AdmitDeadline {
		t.Error("explicit knobs not honored")
	}
}

func TestBudget(t *testing.T) {
	var nilBudget *Budget
	nilBudget.Earn()
	if !nilBudget.TryRetry() {
		t.Fatal("nil budget denied a retry")
	}
	b := (&Spec{RetryBudget: 0.5}).NewBudget()
	// Starts full at the burst of 10: ten retries pass, the eleventh is
	// denied.
	for i := 0; i < DefaultRetryBurst; i++ {
		if !b.TryRetry() {
			t.Fatalf("full bucket denied retry %d", i+1)
		}
	}
	if b.TryRetry() {
		t.Fatal("empty bucket allowed a retry")
	}
	// Two first sends earn one token back.
	b.Earn()
	b.Earn()
	if !b.TryRetry() {
		t.Fatal("earned token not spendable")
	}
	if b.TryRetry() {
		t.Fatal("token spent twice")
	}
	// The bucket caps at burst.
	for i := 0; i < 100; i++ {
		b.Earn()
	}
	if got := b.Tokens(); got != DefaultRetryBurst {
		t.Fatalf("bucket holds %g tokens, want burst cap %d", got, DefaultRetryBurst)
	}
	if (&Spec{}).NewBudget() != nil {
		t.Fatal("disabled spec built a budget")
	}
}

func TestBreakerStateMachine(t *testing.T) {
	var nilBreaker *Breaker
	if !nilBreaker.Allow(0) {
		t.Fatal("nil breaker blocked a send")
	}
	nilBreaker.Success()
	nilBreaker.Failure(0)

	b := (&Spec{BreakerThreshold: 3}).NewBreaker()
	now := sim.Time(0)
	if b.State() != BreakerClosed || !b.Allow(now) {
		t.Fatal("new breaker not closed")
	}
	// Two failures then a success: the consecutive count resets.
	b.Failure(now)
	b.Failure(now)
	b.Success()
	b.Failure(now)
	b.Failure(now)
	if b.State() != BreakerClosed {
		t.Fatal("breaker opened below threshold")
	}
	b.Failure(now)
	if b.State() != BreakerOpen || b.Opens != 1 {
		t.Fatalf("state %v opens %d after threshold failures", b.State(), b.Opens)
	}
	if b.Allow(now + DefaultBreakerCooldown/2) {
		t.Fatal("open breaker allowed a send inside the cooldown")
	}
	// Cooldown elapsed: half-open releases exactly two probes.
	now += DefaultBreakerCooldown
	if !b.Allow(now) || b.State() != BreakerHalfOpen {
		t.Fatalf("state %v after cooldown", b.State())
	}
	if !b.Allow(now) {
		t.Fatal("second probe blocked")
	}
	if b.Allow(now) {
		t.Fatal("third probe allowed (allowance is 2)")
	}
	// A probe failure reopens; the next cooldown starts from now.
	b.Failure(now)
	if b.State() != BreakerOpen || b.Opens != 2 {
		t.Fatalf("state %v opens %d after probe failure", b.State(), b.Opens)
	}
	now += DefaultBreakerCooldown
	if !b.Allow(now) {
		t.Fatal("probe blocked after second cooldown")
	}
	// A probe success closes fully.
	b.Success()
	if b.State() != BreakerClosed {
		t.Fatalf("state %v after probe success", b.State())
	}
	for i := 0; i < 100; i++ {
		if !b.Allow(now) {
			t.Fatal("closed breaker blocked a send")
		}
	}
}

func TestCoDel(t *testing.T) {
	target, interval := 2*sim.Millisecond, 20*sim.Millisecond
	c := NewCoDel(target, interval)
	now := sim.Time(0)
	// Healthy queue: sojourn below target never drops.
	for i := 0; i < 50; i++ {
		now += sim.Millisecond
		if c.OnDequeue(now, sim.Millisecond) {
			t.Fatal("dropped below target")
		}
	}
	// Sojourn above target: no drop until a full interval has elapsed.
	if c.OnDequeue(now, 5*sim.Millisecond) {
		t.Fatal("dropped on first above-target dequeue")
	}
	now += interval / 2
	if c.OnDequeue(now, 5*sim.Millisecond) {
		t.Fatal("dropped before the interval elapsed")
	}
	now += interval
	if !c.OnDequeue(now, 5*sim.Millisecond) || !c.Dropping() {
		t.Fatal("standing queue above target for a full interval not shed")
	}
	// In the dropping state the next drop comes at interval/sqrt(2) —
	// strictly sooner than a full interval.
	drops := 0
	for i := 0; i < 20; i++ {
		now += interval / 2
		if c.OnDequeue(now, 5*sim.Millisecond) {
			drops++
		}
	}
	if drops == 0 {
		t.Fatal("dropping state never shed again")
	}
	// Recovery: a below-target dequeue leaves the dropping state.
	if c.OnDequeue(now, sim.Millisecond) {
		t.Fatal("dropped below target during recovery")
	}
	if c.Dropping() {
		t.Fatal("still dropping after recovery")
	}
}
