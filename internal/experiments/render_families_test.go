package experiments

import (
	"io"
	"strings"
	"testing"
)

// TestRenderUnknownFamily: bad input is an error with the family list,
// never a panic — ncapd routes client-submitted names through here.
func TestRenderUnknownFamily(t *testing.T) {
	err := Render(io.Discard, "nonsense", Options{}, nil)
	if err == nil || !strings.Contains(err.Error(), "nonsense") {
		t.Fatalf("Render(nonsense) = %v, want unknown-family error", err)
	}
}
