package report

import (
	"sort"

	"ncap/internal/stats"
	"ncap/internal/telemetry"
)

// Point is one time-series sample with an explicit nanosecond timestamp.
type Point struct {
	TNs int64   `json:"t_ns"`
	V   float64 `json:"v"`
}

// Series is one named signal over time.
type Series struct {
	Name   string  `json:"name"`
	Points []Point `json:"points"`
}

// FromTimeSeries converts a stats time series.
func FromTimeSeries(ts *stats.TimeSeries) Series {
	s := Series{Name: ts.Name, Points: make([]Point, 0, len(ts.Points))}
	for _, p := range ts.Points {
		s.Points = append(s.Points, Point{TNs: int64(p.T), V: p.V})
	}
	return s
}

// EventsSummary condenses a telemetry event trace: totals plus per-kind
// counts over the retained window, keyed "comp.kind" and sorted.
type EventsSummary struct {
	// Total is every event emitted; Retained is how many the ring still
	// holds; Dropped = Total - Retained (oldest overwritten).
	Total    int64 `json:"total"`
	Retained int   `json:"retained"`
	Dropped  int64 `json:"dropped"`
	// ByKind counts retained events per "comp.kind".
	ByKind []KindCount `json:"by_kind,omitempty"`
}

// KindCount is one event kind's retained count.
type KindCount struct {
	Kind  string `json:"kind"`
	Count int64  `json:"count"`
}

// SummarizeEvents builds the summary from a trace. Nil yields nil.
func SummarizeEvents(tr *telemetry.EventTrace) *EventsSummary {
	if tr == nil {
		return nil
	}
	s := &EventsSummary{Total: tr.Total(), Retained: tr.Len(), Dropped: tr.Dropped()}
	counts := map[string]int64{}
	for _, e := range tr.Events() {
		counts[e.Comp+"."+e.Kind]++
	}
	for k, n := range counts {
		s.ByKind = append(s.ByKind, KindCount{Kind: k, Count: n})
	}
	sort.Slice(s.ByKind, func(i, j int) bool { return s.ByKind[i].Kind < s.ByKind[j].Kind })
	return s
}
