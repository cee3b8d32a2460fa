package lint

import "testing"

func TestDefaultScopeCoversSimulationPackages(t *testing.T) {
	s := DefaultScope()
	cases := []struct {
		analyzer, pkg string
		want          bool
	}{
		// The determinism analyzers cover the simulation core...
		{NoWallTime.Name, "repro/internal/core", true},
		{NoWallTime.Name, "repro/internal/crawler", true},
		{NoWallTime.Name, "repro/internal/faults", true},
		{NoWallTime.Name, "repro/internal/simclock", true},
		{SeededRand.Name, "repro/internal/traffic", true},
		{SeededRand.Name, "repro/internal/rng", true},
		{MapOrder.Name, "repro/internal/core", true},
		{MapOrder.Name, "repro/internal/telemetry", true},
		{PoolOnly.Name, "repro/internal/searchsim", true},
		{NoWallTime.Name, "repro", true},
		// ...but not the operational shell, where wall-clock reads and
		// goroutines are legitimate. These are exemptions by visible
		// configuration, not gaps.
		{NoWallTime.Name, "repro/cmd/searchseizure", false},
		{NoWallTime.Name, "repro/internal/cli", false},
		{NoWallTime.Name, "repro/internal/telemetry", false},
		{NoWallTime.Name, "repro/internal/parallel", false},
		{PoolOnly.Name, "repro/internal/parallel", false},
		{PoolOnly.Name, "repro/cmd/crawlerd", false},
	}
	for _, c := range cases {
		if got := s.AppliesTo(c.analyzer, c.pkg); got != c.want {
			t.Errorf("AppliesTo(%s, %s) = %v, want %v", c.analyzer, c.pkg, got, c.want)
		}
	}
}

func TestScopeFileExclusion(t *testing.T) {
	s := DefaultScope()
	if !s.FileExcluded(NoWallTime.Name, "repro/internal/faults", "/abs/path/handler.go") {
		t.Errorf("faults/handler.go (the net/http fault layer) should be excluded from nowalltime")
	}
	if s.FileExcluded(NoWallTime.Name, "repro/internal/faults", "/abs/path/faults.go") {
		t.Errorf("faults.go (the deterministic plan) must stay in nowalltime scope")
	}
	if s.FileExcluded(MapOrder.Name, "repro/internal/faults", "/abs/path/handler.go") {
		t.Errorf("handler.go is only exempt from nowalltime, not the whole suite")
	}
}

func TestNilScopeAppliesEverything(t *testing.T) {
	var s *Scope
	if !s.AppliesTo(NoWallTime.Name, "any/path") {
		t.Fatal("nil scope must apply every analyzer everywhere (fixture mode)")
	}
	if s.FileExcluded(NoWallTime.Name, "any/path", "f.go") {
		t.Fatal("nil scope must exclude nothing")
	}
}

func TestPrefixPatterns(t *testing.T) {
	s := &Scope{Packages: map[string][]string{"a": {"x/y/..."}}}
	for pkg, want := range map[string]bool{
		"x/y":     true,
		"x/y/z":   true,
		"x/yz":    false,
		"x":       false,
		"other/y": false,
	} {
		if got := s.AppliesTo("a", pkg); got != want {
			t.Errorf("AppliesTo(a, %s) = %v, want %v", pkg, got, want)
		}
	}
}
