// Package core implements NCAP's decision logic — the paper's primary
// contribution (Sec. 4): ReqMonitor, which detects latency-critical
// requests by matching payload templates; TxBytesCounter, which tracks
// transmitted bytes; and DecisionEngine, which converts their rates into
// proactive P/C-state transition interrupts (IT_HIGH, IT_LOW, IT_RX).
//
// The package is pure decision logic with no knowledge of the NIC or the
// kernel. The hardware embodiment (internal/nic) evaluates it on packet
// arrival and MITT expiry inside the NIC model; the software embodiment
// (ncap.sw, internal/driver) runs the same logic in the SoftIRQ handler
// and a 1 ms kernel timer, paying CPU cycles for it — reproducing the
// paper's hw/sw comparison.
package core

import (
	"fmt"

	"ncap/internal/sim"
	"ncap/internal/stats"
)

// Config carries DecisionEngine's thresholds. Defaults are the paper's
// Sec. 6 values, "determined after we analyze the characteristics of
// Memcached and Apache".
type Config struct {
	// RHT is the request-rate high threshold (requests/second): above it,
	// post IT_HIGH to boost to P0.
	RHT float64
	// RLT is the request-rate low threshold (requests/second).
	RLT float64
	// TLT is the transmit-rate low threshold (bits/second). IT_LOW
	// requires both rates below their low thresholds.
	TLT float64
	// CIT is the processor idle-time threshold: a request arriving more
	// than CIT after the last interrupt triggers an immediate IT_RX wake.
	CIT sim.Duration
	// LowWindow is how long both rates must stay low before the first
	// IT_LOW fires (the paper uses 1 ms).
	LowWindow sim.Duration
}

// DefaultConfig returns the paper's evaluation thresholds: RHT = 35 K RPS,
// RLT = 5 K RPS, TLT = 5 Mb/s, CIT = 500 µs, 1 ms low window.
func DefaultConfig() Config {
	return Config{
		RHT:       35_000,
		RLT:       5_000,
		TLT:       5_000_000,
		CIT:       500 * sim.Microsecond,
		LowWindow: sim.Millisecond,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.RHT <= 0 || c.RLT <= 0 || c.TLT <= 0:
		return fmt.Errorf("core: thresholds must be positive (RHT=%v RLT=%v TLT=%v)", c.RHT, c.RLT, c.TLT)
	case c.RLT >= c.RHT:
		return fmt.Errorf("core: RLT (%v) must be below RHT (%v)", c.RLT, c.RHT)
	case c.CIT <= 0:
		return fmt.Errorf("core: CIT must be positive")
	case c.LowWindow <= 0:
		return fmt.Errorf("core: LowWindow must be positive")
	}
	return nil
}

// TemplateBytes is how many payload bytes ReqMonitor compares — the paper
// matches the first two bytes against programmable template registers.
const TemplateBytes = 2

// Template is one request-type pattern (e.g. the first two bytes of "GET").
type Template [TemplateBytes]byte

// TemplateOf builds a template from the first bytes of s (e.g. "GET").
func TemplateOf(s string) Template {
	var t Template
	copy(t[:], s)
	return t
}

// ReqMonitor detects latency-critical requests in received packets by
// comparing the first TemplateBytes of the TCP payload against a small set
// of template registers, programmable through sysfs at driver init
// (Sec. 4.1). Matches increment ReqCnt.
type ReqMonitor struct {
	templates []Template
	reqCnt    int64

	// Matches and Misses count inspected packets by outcome.
	Matches stats.Counter
	Misses  stats.Counter
}

// NewReqMonitor returns a monitor with no templates programmed (matching
// nothing).
func NewReqMonitor() *ReqMonitor { return &ReqMonitor{} }

// Program replaces the template registers.
func (m *ReqMonitor) Program(templates ...Template) { m.templates = templates }

// ProgramStrings programs templates from request-method prefixes, e.g.
// ProgramStrings("GET", "HEAD") for an HTTP OLDI service.
func (m *ReqMonitor) ProgramStrings(prefixes ...string) {
	ts := make([]Template, len(prefixes))
	for i, p := range prefixes {
		ts[i] = TemplateOf(p)
	}
	m.Program(ts...)
}

// Templates returns a copy of the programmed templates.
func (m *ReqMonitor) Templates() []Template {
	out := make([]Template, len(m.templates))
	copy(out, m.templates)
	return out
}

// Inspect classifies one received payload, incrementing ReqCnt on a
// latency-critical match, and reports whether it matched.
func (m *ReqMonitor) Inspect(payload []byte) bool {
	if len(payload) < TemplateBytes {
		m.Misses.Inc()
		return false
	}
	for _, t := range m.templates {
		if payload[0] == t[0] && payload[1] == t[1] {
			m.reqCnt++
			m.Matches.Inc()
			return true
		}
	}
	m.Misses.Inc()
	return false
}

// ReqCnt returns the running request count since the last TakeReqCnt.
func (m *ReqMonitor) ReqCnt() int64 { return m.reqCnt }

// TakeReqCnt returns and resets the request count (the MITT expiry read).
func (m *ReqMonitor) TakeReqCnt() int64 {
	n := m.reqCnt
	m.reqCnt = 0
	return n
}

// TxBytesCounter counts transmitted bytes (TxCnt). No payload context is
// needed on the transmit side: responses are almost always multi-MTU
// chains, and finishing any transmission sooner lets cores sleep sooner
// (Sec. 4.1).
type TxBytesCounter struct {
	bytes int64
}

// Add counts n transmitted bytes.
func (t *TxBytesCounter) Add(n int) { t.bytes += int64(n) }

// TxCnt returns the running byte count since the last TakeTxCnt.
func (t *TxBytesCounter) TxCnt() int64 { return t.bytes }

// TakeTxCnt returns and resets the byte count.
func (t *TxBytesCounter) TakeTxCnt() int64 {
	n := t.bytes
	t.bytes = 0
	return n
}
