package studysvc

import (
	"context"
	"testing"
	"time"

	searchseizure "repro"
)

// goldenTinyFingerprint is the faults-off fingerprint of the miniature
// study (TestConfig + 3 terms x 20 slots, no tail, seed 1) — the same
// constant the root checkpoint tests pin. Every service-plane path must
// converge to it: the manager schedules *when* days run, never *what* they
// compute.
const goldenTinyFingerprint = 0xf6f361ae7ec6499d

// tinySpec is the golden spec: seed 1 reproduces goldenTinyFingerprint.
func tinySpec(seed int64) searchseizure.StudySpec {
	f := false
	return searchseizure.StudySpec{
		Seed:             seed,
		TermsPerVertical: 3,
		SlotsPerTerm:     20,
		ExtendedTail:     &f,
	}
}

func newTestManager(t *testing.T, budget, maxActive int) *Manager {
	t.Helper()
	m, err := NewManager(Options{BaseDir: t.TempDir(), Budget: budget, MaxActive: maxActive})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		m.Shutdown(ctx)
	})
	return m
}

// cleanupMargin is what waitDone leaves of the test's deadline for the
// failure report and newManager's one-minute shutdown.
const cleanupMargin = 90 * time.Second

// waitDone waits for a study to finish. The limit is sized to the run, not
// the work: the test's deadline (go test -timeout) less cleanupMargin, or 3
// minutes when the test has no deadline.
func waitDone(t *testing.T, h *Handle) {
	t.Helper()
	limit := 3 * time.Minute
	if deadline, ok := t.Deadline(); ok {
		limit = time.Until(deadline) - cleanupMargin
	}
	select {
	case <-h.Done():
	case <-time.After(limit):
		t.Fatalf("study %s did not finish within %v (state %s)", h.ID, limit.Round(time.Second), h.State())
	}
}

// soloFingerprint runs a spec outside the manager.
func soloFingerprint(t *testing.T, spec searchseizure.StudySpec) uint64 {
	t.Helper()
	s, err := searchseizure.NewFromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	data, err := s.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return uint64(data.Fingerprint())
}

func handleFingerprint(t *testing.T, h *Handle) uint64 {
	t.Helper()
	data, ok := h.Dataset()
	if !ok {
		t.Fatalf("study %s has no finalized dataset (state %s)", h.ID, h.State())
	}
	return uint64(data.Fingerprint())
}

// TestMultiTenantIsolation: two concurrent studies with different seeds
// and fault profiles produce exactly the fingerprints their specs produce
// solo. The shared worker budget and the day-slot semaphore are driving
// machinery only.
func TestMultiTenantIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	specA := tinySpec(1)
	specB := tinySpec(2)
	specB.Faults = "moderate"

	m := newTestManager(t, 4, 2)
	ha, err := m.Launch(specA)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := m.Launch(specB)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, ha)
	waitDone(t, hb)
	if ha.State() != StateComplete || hb.State() != StateComplete {
		t.Fatalf("states %s/%s, want complete/complete", ha.State(), hb.State())
	}

	if got := handleFingerprint(t, ha); got != goldenTinyFingerprint {
		t.Errorf("tenant A fingerprint %#x != golden %#x", got, uint64(goldenTinyFingerprint))
	}
	wantB := soloFingerprint(t, specB)
	if got := handleFingerprint(t, hb); got != wantB {
		t.Errorf("tenant B fingerprint %#x != solo %#x", got, wantB)
	}
}

// TestBudgetDoesNotChangeFingerprints: the same spec through managers with
// radically different worker budgets and concurrency caps lands on the
// same bits.
func TestBudgetDoesNotChangeFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, shape := range []struct{ budget, active int }{{1, 1}, {8, 4}} {
		m := newTestManager(t, shape.budget, shape.active)
		h, err := m.Launch(tinySpec(1))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, h)
		if got := handleFingerprint(t, h); got != goldenTinyFingerprint {
			t.Errorf("budget=%d active=%d: fingerprint %#x != golden %#x",
				shape.budget, shape.active, got, uint64(goldenTinyFingerprint))
		}
	}
}

// TestCancellationDoesNotPerturbNeighbour: cancelling one tenant must not
// move a single bit of the tenant still running.
func TestCancellationDoesNotPerturbNeighbour(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	m := newTestManager(t, 4, 2)
	keeper, err := m.Launch(tinySpec(1))
	if err != nil {
		t.Fatal(err)
	}
	victim, err := m.Launch(tinySpec(7))
	if err != nil {
		t.Fatal(err)
	}

	// Cancel the victim as soon as it has made some progress.
	waitForDay(t, victim, 1)
	if _, ok := m.Cancel(victim.ID); !ok {
		t.Fatal("Cancel lost the victim")
	}
	waitDone(t, victim)
	if st := victim.State(); st != StateCancelled {
		t.Fatalf("victim state %s, want cancelled", st)
	}

	waitDone(t, keeper)
	if got := handleFingerprint(t, keeper); got != goldenTinyFingerprint {
		t.Errorf("neighbour fingerprint %#x != golden %#x after cancel",
			got, uint64(goldenTinyFingerprint))
	}

	// The cancelled study stopped on a day boundary with a coherent,
	// finalized partial dataset.
	data, ok := victim.Dataset()
	if !ok {
		t.Fatal("cancelled study has no dataset")
	}
	st := victim.Status()
	if data.DaysRun != st.NextDay {
		t.Fatalf("DaysRun %d != resume cursor %d", data.DaysRun, st.NextDay)
	}
}

// waitForDay blocks until the study has completed at least n days.
func waitForDay(t *testing.T, h *Handle, n int) {
	t.Helper()
	deadline := time.After(2 * time.Minute)
	seq := 0
	for {
		evs, notify := h.EventsSince(seq)
		for _, e := range evs {
			if e.Type == "day" && e.Day+1 >= n {
				return
			}
		}
		seq += len(evs)
		select {
		case <-notify:
		case <-h.Done():
			return
		case <-deadline:
			t.Fatalf("study %s never reached day %d", h.ID, n)
		}
	}
}

// TestDayCapAndEvents: a day-capped study completes at the cap, its event
// log carries one "day" event per day with monotonically growing seq, and
// the status reports the cap as the target.
func TestDayCapAndEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	spec := tinySpec(1)
	spec.Days = 4
	m := newTestManager(t, 2, 1)
	h, err := m.Launch(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, h)
	if h.State() != StateComplete {
		t.Fatalf("state %s, want complete", h.State())
	}
	st := h.Status()
	if st.NextDay != 4 || st.Days != 4 {
		t.Fatalf("cursor %d/%d, want 4/4", st.NextDay, st.Days)
	}
	evs, _ := h.EventsSince(0)
	days := 0
	for i, e := range evs {
		if e.Seq != i {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
		if e.Type == "day" {
			if e.Day != days {
				t.Fatalf("day event out of order: got day %d, want %d", e.Day, days)
			}
			days++
			if e.Fingerprint == "" {
				t.Fatal("day event missing fingerprint")
			}
		}
	}
	if days != 4 {
		t.Fatalf("saw %d day events, want 4", days)
	}
}

// TestLaunchRejectsInvalidSpec: the manager front door enforces the same
// typed validation as the HTTP layer.
func TestLaunchRejectsInvalidSpec(t *testing.T) {
	m := newTestManager(t, 1, 1)
	_, err := m.Launch(searchseizure.StudySpec{Seed: -1})
	verr, ok := err.(*searchseizure.ValidationError)
	if !ok {
		t.Fatalf("Launch error %T, want *ValidationError", err)
	}
	if len(verr.Fields) != 1 || verr.Fields[0].Field != "seed" {
		t.Fatalf("fields %v", verr.Fields)
	}
}
