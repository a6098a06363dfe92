package audit

import "testing"

// Violations past MaxViolations are not collected, but their count is:
// the list ends with one entry naming how many were dropped.
func TestViolationsReportDroppedCount(t *testing.T) {
	a := New()
	for i := range MaxViolations + 5 {
		a.Report("c", "inv", int64(i), "0", "1")
	}
	vs := a.Violations()
	if len(vs) != MaxViolations+1 {
		t.Fatalf("got %d violations, want %d", len(vs), MaxViolations+1)
	}
	last := vs[MaxViolations]
	want := Violation{Component: "audit", Invariant: "violations-dropped",
		Expected: "0", Got: "5", SimTimeNs: MaxViolations + 4}
	if last != want {
		t.Fatalf("last entry %+v, want %+v", last, want)
	}
	if vs[MaxViolations-1].SimTimeNs != MaxViolations-1 {
		t.Fatalf("collected entries reordered: %+v", vs[MaxViolations-1])
	}
	if again := a.Violations(); len(again) != MaxViolations+1 {
		t.Fatalf("second call returned %d violations", len(again))
	}
}
