package service

import (
	"strings"
	"testing"
)

// TestParseSubmitRejectsInvalidOverload: a submission is checked against
// the same overload rules every job of its sweep must pass, so a spec
// that cluster.Config.Validate would reject never reaches the journal.
// A field the spec does not have is an unknown field.
func TestParseSubmitRejectsInvalidOverload(t *testing.T) {
	for _, body := range []string{
		`{"family":"e11","overload":{"dedupCap":-5}}`,
		`{"family":"e11","overload":{"queueCap":-1}}`,
		`{"family":"e11","overload":{"deadline":-1}}`,
		`{"family":"e11","overload":{"retryBudget":-0.5}}`,
		`{"family":"e11","overload":{"breakerThreshold":-2}}`,
		`{"family":"e11","overload":{"admit":"martian"}}`,
		`{"family":"e11","overload":{"retryBurst":10}}`,
		`{"family":"e11","overload":{"maxInflight":64}}`,
	} {
		if req, err := ParseSubmit(strings.NewReader(body)); err == nil {
			t.Errorf("ParseSubmit(%s) accepted: %+v", body, req.Overload)
		}
	}
	if _, err := ParseSubmit(strings.NewReader(`{"family":"e13","overload":{"admit":"codel","queueCap":64,"dedupCap":4096}}`)); err != nil {
		t.Fatalf("valid overload spec rejected: %v", err)
	}
}
