package core

import (
	"strings"
	"testing"
	"testing/quick"

	"ncap/internal/sim"
)

func TestDefaultConfigMatchesPaper(t *testing.T) {
	c := DefaultConfig()
	if c.RHT != 35_000 {
		t.Errorf("RHT = %v, want 35K RPS", c.RHT)
	}
	if c.RLT != 5_000 {
		t.Errorf("RLT = %v, want 5K RPS", c.RLT)
	}
	if c.TLT != 5_000_000 {
		t.Errorf("TLT = %v, want 5M BPS", c.TLT)
	}
	if c.CIT != 500*sim.Microsecond {
		t.Errorf("CIT = %v, want 500µs", c.CIT)
	}
	if c.LowWindow != sim.Millisecond {
		t.Errorf("LowWindow = %v, want 1ms", c.LowWindow)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"negative RHT", func(c *Config) { c.RHT = -1 }, "thresholds"},
		{"RLT above RHT", func(c *Config) { c.RLT = 99_999 }, "RLT"},
		{"zero CIT", func(c *Config) { c.CIT = 0 }, "CIT"},
		{"zero window", func(c *Config) { c.LowWindow = 0 }, "LowWindow"},
	}
	for _, tc := range cases {
		c := DefaultConfig()
		tc.mutate(&c)
		err := c.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

func TestReqMonitorMatching(t *testing.T) {
	m := NewReqMonitor()
	m.ProgramStrings("GET", "HEAD")
	cases := []struct {
		payload string
		match   bool
	}{
		{"GET /index.html HTTP/1.1", true},
		{"GE", true}, // exactly the two compared bytes
		{"HEAD / HTTP/1.1", true},
		{"PUT /update HTTP/1.1", false}, // not latency-critical (Sec. 4.1)
		{"POST /form HTTP/1.1", false},
		{"", false},
		{"G", false}, // too short to match
	}
	for _, c := range cases {
		if got := m.Inspect([]byte(c.payload)); got != c.match {
			t.Errorf("Inspect(%q) = %v, want %v", c.payload, got, c.match)
		}
	}
	if m.ReqCnt() != 3 {
		t.Fatalf("ReqCnt = %d, want 3", m.ReqCnt())
	}
	if m.Matches.Value() != 3 || m.Misses.Value() != 4 {
		t.Fatalf("matches/misses = %d/%d", m.Matches.Value(), m.Misses.Value())
	}
}

func TestReqMonitorTakeResets(t *testing.T) {
	m := NewReqMonitor()
	m.ProgramStrings("GET")
	m.Inspect([]byte("GET /"))
	if got := m.TakeReqCnt(); got != 1 {
		t.Fatalf("take = %d", got)
	}
	if m.ReqCnt() != 0 {
		t.Fatal("count not reset")
	}
}

func TestReqMonitorNoTemplates(t *testing.T) {
	m := NewReqMonitor()
	if m.Inspect([]byte("GET /")) {
		t.Fatal("unprogrammed monitor matched")
	}
}

func TestReqMonitorReprogram(t *testing.T) {
	m := NewReqMonitor()
	m.ProgramStrings("GET")
	m.ProgramStrings("SE") // e.g. memcached "set"? No: replace entirely
	if m.Inspect([]byte("GET /")) {
		t.Fatal("old template survived reprogramming")
	}
	if !m.Inspect([]byte("SELECT")) {
		t.Fatal("new template not matched")
	}
	if got := len(m.Templates()); got != 1 {
		t.Fatalf("templates = %d", got)
	}
}

func TestTemplateOfShortString(t *testing.T) {
	tpl := TemplateOf("G")
	if tpl[0] != 'G' || tpl[1] != 0 {
		t.Fatalf("template = %v", tpl)
	}
}

func TestTxBytesCounter(t *testing.T) {
	var c TxBytesCounter
	c.Add(1500)
	c.Add(66)
	if c.TxCnt() != 1566 {
		t.Fatalf("TxCnt = %d", c.TxCnt())
	}
	if got := c.TakeTxCnt(); got != 1566 {
		t.Fatalf("take = %d", got)
	}
	if c.TxCnt() != 0 {
		t.Fatal("not reset")
	}
}

type chipStub struct{ atMax, atMin bool }

func (c *chipStub) AtMaxFreq() bool { return c.atMax }
func (c *chipStub) AtMinFreq() bool { return c.atMin }

const mitt = 50 * sim.Microsecond

func TestDecisionHighOnBurst(t *testing.T) {
	chip := &chipStub{}
	d := NewDecisionEngine(DefaultConfig(), chip, 0)
	// 10 requests in 50 µs = 200 K RPS > RHT.
	a := d.OnMITTExpiry(mitt, 10, 0, mitt)
	if !a.High || !a.Rx || a.Low {
		t.Fatalf("action = %+v, want High+Rx", a)
	}
	if d.ReqRate() != 200_000 {
		t.Fatalf("reqRate = %v", d.ReqRate())
	}
	if d.Highs.Value() != 1 {
		t.Fatalf("highs = %d", d.Highs.Value())
	}
}

func TestDecisionHighSuppressedAtMaxF(t *testing.T) {
	chip := &chipStub{atMax: true}
	d := NewDecisionEngine(DefaultConfig(), chip, 0)
	a := d.OnMITTExpiry(mitt, 10, 0, mitt)
	if a.Any() {
		t.Fatalf("action = %+v, want none (already at P0)", a)
	}
	if d.Suppressed.Value() != 1 {
		t.Fatalf("suppressed = %d", d.Suppressed.Value())
	}
}

func TestDecisionLowNeedsSustainedWindow(t *testing.T) {
	chip := &chipStub{}
	d := NewDecisionEngine(DefaultConfig(), chip, 0)
	now := sim.Time(0)
	var got Action
	// 30 consecutive quiet MITT periods (1.5 ms): IT_LOW only after 1 ms.
	var firstLow sim.Time
	for i := 0; i < 30; i++ {
		now += mitt
		got = d.OnMITTExpiry(now, 0, 0, mitt)
		if got.Low && firstLow == 0 {
			firstLow = now
		}
	}
	if firstLow == 0 {
		t.Fatal("IT_LOW never fired")
	}
	// First expiry starts the run at t=50µs; 1 ms later is 1.05 ms.
	if firstLow != 1050*sim.Microsecond {
		t.Fatalf("first IT_LOW at %v, want 1.05ms", firstLow)
	}
}

func TestDecisionLowInterruptedByActivity(t *testing.T) {
	chip := &chipStub{}
	d := NewDecisionEngine(DefaultConfig(), chip, 0)
	now := sim.Time(0)
	for i := 0; i < 10; i++ { // 500 µs of quiet
		now += mitt
		if a := d.OnMITTExpiry(now, 0, 0, mitt); a.Any() {
			t.Fatalf("premature action %+v", a)
		}
	}
	// Mid-rate traffic (between RLT and RHT) resets the low run.
	now += mitt
	if a := d.OnMITTExpiry(now, 1, 0, mitt); a.Any() { // 20 K RPS
		t.Fatalf("mid-rate action %+v", a)
	}
	// Quiet resumes; IT_LOW must wait a full window again.
	quietStart := now + mitt
	for i := 0; i < 25; i++ {
		now += mitt
		a := d.OnMITTExpiry(now, 0, 0, mitt)
		if a.Low {
			if now-quietStart < sim.Millisecond {
				t.Fatalf("IT_LOW after only %v of quiet", now-quietStart)
			}
			return
		}
	}
	t.Fatal("IT_LOW never fired after reset")
}

func TestDecisionLowRequiresBothRatesLow(t *testing.T) {
	chip := &chipStub{}
	d := NewDecisionEngine(DefaultConfig(), chip, 0)
	now := sim.Time(0)
	// Request rate low, but tx rate high (a long response still driving
	// out): 100 KB per 50 µs = 16 Gb/s >> TLT. No IT_LOW.
	for i := 0; i < 40; i++ {
		now += mitt
		if a := d.OnMITTExpiry(now, 0, 100_000, mitt); a.Any() {
			t.Fatalf("action %+v despite high tx rate", a)
		}
	}
}

func TestDecisionLowSuppressedAtMinF(t *testing.T) {
	chip := &chipStub{atMin: true}
	d := NewDecisionEngine(DefaultConfig(), chip, 0)
	now := sim.Time(0)
	for i := 0; i < 40; i++ {
		now += mitt
		if a := d.OnMITTExpiry(now, 0, 0, mitt); a.Any() {
			t.Fatalf("IT_LOW posted at min frequency: %+v", a)
		}
	}
	if d.Suppressed.Value() == 0 {
		t.Fatal("suppression not recorded")
	}
}

func TestDecisionBackToBackLows(t *testing.T) {
	// With FCONS > 1, NCAP needs several IT_LOWs to bottom out; the engine
	// emits one per LowWindow while quiet persists.
	chip := &chipStub{}
	d := NewDecisionEngine(DefaultConfig(), chip, 0)
	now := sim.Time(0)
	lows := 0
	for i := 0; i < 100; i++ { // 5 ms of quiet
		now += mitt
		if d.OnMITTExpiry(now, 0, 0, mitt).Low {
			lows++
		}
	}
	if lows < 3 || lows > 5 {
		t.Fatalf("IT_LOW count over 5ms = %d, want ~4", lows)
	}
}

func TestCITWakePath(t *testing.T) {
	chip := &chipStub{}
	d := NewDecisionEngine(DefaultConfig(), chip, 0)
	// A request right away: gap since "last interrupt" (t=0) is small.
	if a := d.OnRequestDetected(100 * sim.Microsecond); a.Any() {
		t.Fatalf("wake posted below CIT: %+v", a)
	}
	// A request after a 600 µs silent gap: immediate IT_RX.
	a := d.OnRequestDetected(700 * sim.Microsecond)
	if !a.Rx || a.High || a.Low {
		t.Fatalf("action = %+v, want Rx only", a)
	}
	if d.Wakes.Value() != 1 {
		t.Fatalf("wakes = %d", d.Wakes.Value())
	}
	// Immediately after, the gap is small again.
	if a := d.OnRequestDetected(750 * sim.Microsecond); a.Any() {
		t.Fatalf("second wake too soon: %+v", a)
	}
}

func TestCITRespectsOtherInterrupts(t *testing.T) {
	chip := &chipStub{}
	d := NewDecisionEngine(DefaultConfig(), chip, 0)
	// The NIC posted a normal IT_RX at t=1ms.
	d.NoteInterrupt(sim.Millisecond)
	// A request at 1.2 ms: only 200 µs since the last interrupt.
	if a := d.OnRequestDetected(1200 * sim.Microsecond); a.Any() {
		t.Fatalf("wake posted despite recent interrupt: %+v", a)
	}
}

func TestNoteInterruptMonotone(t *testing.T) {
	chip := &chipStub{}
	d := NewDecisionEngine(DefaultConfig(), chip, 0)
	d.NoteInterrupt(sim.Millisecond)
	d.NoteInterrupt(500 * sim.Microsecond) // out of order: ignored
	if a := d.OnRequestDetected(1400 * sim.Microsecond); a.Any() {
		t.Fatal("stale lastInterrupt used")
	}
}

func TestHighClearsLowRun(t *testing.T) {
	chip := &chipStub{}
	d := NewDecisionEngine(DefaultConfig(), chip, 0)
	now := sim.Time(0)
	// Build up 900 µs of quiet.
	for i := 0; i < 18; i++ {
		now += mitt
		d.OnMITTExpiry(now, 0, 0, mitt)
	}
	// Burst fires IT_HIGH.
	now += mitt
	if a := d.OnMITTExpiry(now, 10, 0, mitt); !a.High {
		t.Fatalf("burst action = %+v", a)
	}
	// Quiet resumes: IT_LOW must wait a full window, not fire instantly.
	now += mitt
	if a := d.OnMITTExpiry(now, 0, 0, mitt); a.Any() {
		t.Fatalf("IT_LOW fired immediately after burst: %+v", a)
	}
}

func TestResetStats(t *testing.T) {
	chip := &chipStub{}
	d := NewDecisionEngine(DefaultConfig(), chip, 0)
	d.OnMITTExpiry(mitt, 10, 0, mitt)
	d.ResetStats()
	if d.Highs.Value() != 0 {
		t.Fatal("highs not reset")
	}
}

func TestNewDecisionEnginePanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	cfg := DefaultConfig()
	cfg.CIT = 0
	NewDecisionEngine(cfg, &chipStub{}, 0)
}

// Property: the engine never posts High and Low simultaneously, and never
// posts High when request rate is below RHT.
func TestDecisionExclusivityProperty(t *testing.T) {
	chip := &chipStub{}
	d := NewDecisionEngine(DefaultConfig(), chip, 0)
	now := sim.Time(0)
	f := func(req uint16, tx uint32) bool {
		now += mitt
		a := d.OnMITTExpiry(now, int64(req%200), int64(tx), mitt)
		if a.High && a.Low {
			return false
		}
		if a.High && d.ReqRate() <= d.Config().RHT {
			return false
		}
		if a.Low && (d.ReqRate() >= d.Config().RLT || d.TxRate() >= d.Config().TLT) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
