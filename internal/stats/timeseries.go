package stats

import (
	"fmt"
	"io"

	"ncap/internal/sim"
)

// Point is one sample of a named time series.
type Point struct {
	T sim.Time
	V float64
}

// TimeSeries is an append-only sampled signal used to regenerate the
// paper's time-domain figures (Fig. 4 and the BW(Rx)/F snapshots).
type TimeSeries struct {
	Name   string
	Points []Point
}

// Add appends a sample.
func (s *TimeSeries) Add(t sim.Time, v float64) {
	s.Points = append(s.Points, Point{T: t, V: v})
}

// Max returns the maximum sample value, or 0 when empty.
func (s *TimeSeries) Max() float64 {
	var max float64
	for _, p := range s.Points {
		if p.V > max {
			max = p.V
		}
	}
	return max
}

// MultiCSV writes several aligned series as one CSV table. Series must have
// identical sample times; it returns an error otherwise.
func MultiCSV(w io.Writer, series ...*TimeSeries) error {
	if len(series) == 0 {
		return nil
	}
	n := len(series[0].Points)
	header := "time_ms"
	for _, s := range series {
		if len(s.Points) != n {
			return fmt.Errorf("stats: series %q has %d points, want %d", s.Name, len(s.Points), n)
		}
		header += "," + s.Name
	}
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		t := series[0].Points[i].T
		row := fmt.Sprintf("%.3f", t.Millis())
		for _, s := range series {
			if s.Points[i].T != t {
				return fmt.Errorf("stats: series %q misaligned at row %d", s.Name, i)
			}
			row += fmt.Sprintf(",%g", s.Points[i].V)
		}
		if _, err := fmt.Fprintln(w, row); err != nil {
			return err
		}
	}
	return nil
}
