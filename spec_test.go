package searchseizure

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"
)

func boolp(b bool) *bool { return &b }

// TestStudySpecValidateTable is the field-level contract the HTTP 400s are
// built on: every bad field is reported with its stable machine-readable
// code, and multiple problems surface in one pass.
func TestStudySpecValidateTable(t *testing.T) {
	cases := []struct {
		name string
		spec StudySpec
		want []FieldError // Field+Code only; empty means valid
	}{
		{"zero value is valid", StudySpec{}, nil},
		{"explicit defaults are valid",
			StudySpec{Preset: "test", Seed: 1, Faults: "off"}, nil},
		{"bench preset", StudySpec{Preset: "bench"}, nil},
		{"paper preset", StudySpec{Preset: "default"}, nil},
		{"moderate faults", StudySpec{Faults: "moderate"}, nil},
		{"capped days", StudySpec{Days: 7}, nil},
		{"negative seed", StudySpec{Seed: -1},
			[]FieldError{{Field: "seed", Code: CodeNegative}}},
		{"unknown fault profile", StudySpec{Faults: "catastrophic"},
			[]FieldError{{Field: "faults", Code: CodeUnknownProfile}}},
		{"negative days", StudySpec{Days: -3},
			[]FieldError{{Field: "days", Code: CodeNegative}}},
		{"unknown preset", StudySpec{Preset: "huge"},
			[]FieldError{{Field: "preset", Code: CodeUnknownPreset}}},
		{"negative scale", StudySpec{Scale: -0.5},
			[]FieldError{{Field: "scale", Code: CodeOutOfRange}}},
		{"negative terms", StudySpec{TermsPerVertical: -1},
			[]FieldError{{Field: "terms_per_vertical", Code: CodeNegative}}},
		{"negative slots", StudySpec{SlotsPerTerm: -9},
			[]FieldError{{Field: "slots_per_term", Code: CodeNegative}}},
		{"negative checkpoint cadence", StudySpec{CheckpointEvery: -1},
			[]FieldError{{Field: "checkpoint_every", Code: CodeNegative}}},
		{"multiple problems reported together",
			StudySpec{Preset: "huge", Seed: -5, Faults: "nope", Days: -1},
			[]FieldError{
				{Field: "preset", Code: CodeUnknownPreset},
				{Field: "seed", Code: CodeNegative},
				{Field: "faults", Code: CodeUnknownProfile},
				{Field: "days", Code: CodeNegative},
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if len(tc.want) == 0 {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			var verr *ValidationError
			if !errors.As(err, &verr) {
				t.Fatalf("Validate() = %v (%T), want *ValidationError", err, err)
			}
			if len(verr.Fields) != len(tc.want) {
				t.Fatalf("got %d field errors %v, want %d", len(verr.Fields), verr.Fields, len(tc.want))
			}
			for i, want := range tc.want {
				got := verr.Fields[i]
				if got.Field != want.Field || got.Code != want.Code {
					t.Errorf("field error %d = {%s %s}, want {%s %s}",
						i, got.Field, got.Code, want.Field, want.Code)
				}
				if got.Message == "" {
					t.Errorf("field error %d has no message", i)
				}
			}
			if msg := err.Error(); msg == "" {
				t.Error("ValidationError has empty Error()")
			}
		})
	}
}

// TestStudySpecConfigMapping: the spec resolves onto the preset with every
// override applied, and a config rebuilt from the same spec is identical.
func TestStudySpecConfigMapping(t *testing.T) {
	spec := StudySpec{
		Preset:           "test",
		Seed:             42,
		Faults:           "moderate",
		Days:             9,
		TermsPerVertical: 3,
		SlotsPerTerm:     20,
		ExtendedTail:     boolp(false),
	}
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	want := TestConfig()
	if cfg.Seed != 42 || cfg.MaxDays != 9 || cfg.TermsPerVertical != 3 ||
		cfg.SlotsPerTerm != 20 || cfg.ExtendedTail || !cfg.Faults.Enabled() {
		t.Fatalf("spec mapped to %+v", cfg)
	}
	if cfg.Scale != want.Scale {
		t.Fatalf("unset scale must keep the preset's (%g), got %g", want.Scale, cfg.Scale)
	}

	again, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	if again.ConfigHash() != cfg.ConfigHash() {
		t.Fatal("the same spec resolved to two different configs")
	}

	if _, err := (StudySpec{Seed: -1}).Config(); err == nil {
		t.Fatal("Config() accepted an invalid spec")
	}
}

// TestStudySpecRoundTripsJSON: the spec is the wire format; omitted fields
// must stay omitted and the tri-state ExtendedTail must survive.
func TestStudySpecRoundTripsJSON(t *testing.T) {
	spec := StudySpec{Seed: 7, Faults: "severe", ExtendedTail: boolp(false)}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back StudySpec
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Seed != 7 || back.Faults != "severe" ||
		back.ExtendedTail == nil || *back.ExtendedTail {
		t.Fatalf("round trip lost fields: %+v", back)
	}
	var sparse StudySpec
	if err := json.Unmarshal([]byte(`{"seed": 3}`), &sparse); err != nil {
		t.Fatal(err)
	}
	if sparse.ExtendedTail != nil {
		t.Fatal("absent extended_tail decoded non-nil")
	}
}

func TestStudySpecWithDefaults(t *testing.T) {
	d := (StudySpec{}).WithDefaults()
	if d.Preset != "test" || d.Faults != "off" || d.Seed != 1 {
		t.Fatalf("WithDefaults() = %+v", d)
	}
	keep := (StudySpec{Preset: "bench", Faults: "moderate", Seed: 9}).WithDefaults()
	if keep.Preset != "bench" || keep.Faults != "moderate" || keep.Seed != 9 {
		t.Fatalf("WithDefaults() clobbered explicit fields: %+v", keep)
	}
}

// TestNewFromSpecMatchesNew: the spec path and the config path build
// bit-identical studies — the no-drift guarantee the CLI and HTTP layers
// rely on.
func TestNewFromSpecMatchesNew(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	spec := StudySpec{
		Seed:             1,
		Days:             3,
		TermsPerVertical: 3,
		SlotsPerTerm:     20,
		ExtendedTail:     boolp(false),
	}
	fromSpec, err := NewFromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()
	cfg.MaxDays = 3
	fromCfg, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := mustRun(t, fromSpec)
	b := mustRun(t, fromCfg)
	if a.DaysRun != 3 || a.DayFingerprint() != b.DayFingerprint() {
		t.Fatalf("spec study (%d days, %#x) != config study (%d days, %#x)",
			a.DaysRun, a.DayFingerprint(), b.DaysRun, b.DayFingerprint())
	}

	if _, err := NewFromSpec(StudySpec{Faults: "bogus"}); err == nil {
		t.Fatal("NewFromSpec accepted an invalid spec")
	}
}

func TestExperimentUnknownIDIsTyped(t *testing.T) {
	s := mustNew(t, tinyConfig())
	_, err := s.Experiment("nope")
	if !errors.Is(err, ErrUnknownExperiment) {
		t.Fatalf("Experiment(nope) = %v, want ErrUnknownExperiment", err)
	}
	if got := s.ListExperiments(); len(got) == 0 || got[0].ID == "" {
		t.Fatalf("ListExperiments() = %v", got)
	}
}

// TestSpecPresetsPinned is the preset-drift guard: every advertised preset
// validates, resolves through WithDefaults to a concrete Config, and
// hashes to a pinned value. A drifted hash means a preset silently changed
// shape — existing checkpoints taken under it stop resuming (RestoreSnapshot
// checks the hash), so a deliberate change must update both the pin here
// and the study docs.
func TestSpecPresetsPinned(t *testing.T) {
	pinned := map[string]string{
		"test":    "860763aaa157a115",
		"bench":   "8af150a8d35f89ab",
		"default": "982ceb749b843d62",
	}
	if len(pinned) != len(SpecPresets()) {
		t.Fatalf("pinned %d presets, SpecPresets advertises %d: pin the new one", len(pinned), len(SpecPresets()))
	}
	for _, name := range SpecPresets() {
		spec := StudySpec{Preset: name}
		if err := spec.Validate(); err != nil {
			t.Fatalf("preset %q does not validate: %v", name, err)
		}
		full := spec.WithDefaults()
		if full.Preset != name || full.Seed == 0 || full.Faults == "" {
			t.Fatalf("preset %q did not resolve defaults: %+v", name, full)
		}
		cfg, err := full.Config()
		if err != nil {
			t.Fatalf("preset %q does not map to a config: %v", name, err)
		}
		got := fmt.Sprintf("%016x", cfg.ConfigHash())
		if got != pinned[name] {
			t.Fatalf("preset %q config hash drifted: got %s, pinned %s (a deliberate change must re-pin here)", name, got, pinned[name])
		}
	}
}
