package experiments

import (
	"fmt"
	"io"
	"strings"

	"ncap/internal/app"
)

// family is one ncapsweep experiment family: its -exp value and the
// renderer that runs it and writes its tables.
type family struct {
	name   string
	render func(w io.Writer, o Options, profiles []app.Profile)
}

// families is the single source of truth for the -exp flag, in
// presentation order: ncapsweep and ncapd build their usage text and
// unknown-value errors from it, Render dispatches through it, and ncapd
// admits only its names. "all", the last entry, has no renderer of its
// own: Render runs every family above it in order.
var families = []family{
	{"lvl", eachProfile(RenderLatencyVsLoad)},     // latency vs load + SLA (Fig. 7)
	{"policies", eachProfile(RenderPolicies)},     // seven-policy comparison (Figs. 8/9)
	{"fig2", RenderFig2},                          // ondemand invocation-period sweep (Fig. 2)
	{"headline", eachProfile(RenderHeadline)},     // abstract's energy-saving claims
	{"ablations", eachProfile(RenderAblations)},   // design-choice ablations
	{"extensions", eachProfile(RenderExtensions)}, // Sec. 7 multi-queue and TOE extensions
	{"e11", eachProfile(RenderDegraded)},          // policies on a degraded fabric
	{"e12", eachProfile(RenderScenarios)},         // policies under generated traffic scenarios
	{"e13", eachProfile(RenderOverload)},          // overload resilience through saturation (0.5×–2× capacity)
	{"e14", eachProfile(RenderTopology)},          // policies on compiled topologies (rack-of-16, 4-rack/2-spine fleet)
	{"all", nil},
}

// eachProfile lifts a one-workload renderer to a family renderer that
// runs it for every selected workload in turn.
func eachProfile(r func(io.Writer, Options, app.Profile)) func(io.Writer, Options, []app.Profile) {
	return func(w io.Writer, o Options, profiles []app.Profile) {
		for _, prof := range profiles {
			r(w, o, prof)
		}
	}
}

// lookupFamily returns the named family's table entry.
func lookupFamily(name string) (family, bool) {
	for _, f := range families {
		if f.name == name {
			return f, true
		}
	}
	return family{}, false
}

// IsFamily reports whether name is a registered -exp value.
func IsFamily(name string) bool {
	_, ok := lookupFamily(name)
	return ok
}

// FamilyNames returns the comma-separated -exp values for usage text.
func FamilyNames() string {
	names := make([]string, len(families))
	for i, f := range families {
		names[i] = f.name
	}
	return strings.Join(names, ", ")
}

// Render runs one experiment family (or "all") and writes its tables to
// w. An unknown family is an error, never a panic — callers include the
// ncapd submission path, which must reject bad input gracefully.
func Render(w io.Writer, name string, o Options, profiles []app.Profile) error {
	f, ok := lookupFamily(name)
	if !ok {
		return fmt.Errorf("unknown experiment family %q (want one of: %s)", name, FamilyNames())
	}
	if f.render != nil {
		f.render(w, o, profiles)
		return nil
	}
	for _, g := range families {
		if g.render != nil {
			g.render(w, o, profiles)
		}
	}
	return nil
}
