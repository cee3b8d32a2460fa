package core

import (
	"runtime"
	"testing"

	"repro/internal/faults"
	"repro/internal/simclock"
)

// snapshotAt runs a fresh world up to (but not including) day `day` and
// snapshots it — exactly the state a checkpoint written after day-1 holds.
func snapshotAt(t *testing.T, cfg Config, day int) *StudySnapshot {
	t.Helper()
	w := NewWorld(cfg)
	if day > w.Sim.Days() {
		t.Fatalf("cut day %d beyond simulation window %d", day, w.Sim.Days())
	}
	for int(w.nextDay) < day {
		d := w.nextDay
		w.RunDay(d)
		w.nextDay = d + 1
	}
	return w.Snapshot()
}

// resumeAndFinish restores a snapshot onto a fresh world and runs it to
// completion.
func resumeAndFinish(t *testing.T, cfg Config, snap *StudySnapshot) *Dataset {
	t.Helper()
	w := NewWorld(cfg)
	if err := w.RestoreSnapshot(snap); err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	return w.Run()
}

// TestSnapshotResumeMatchesGolden is the checkpoint layer's core contract:
// cut a faults-off study at any day boundary, rebuild a world from nothing
// but the snapshot, run it out — and the dataset fingerprint equals the
// golden value of an uninterrupted run. Cut points cover the edges (before
// day 0, after the final day) and the middle.
func TestSnapshotResumeMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := smallConfig()
	days := NewWorld(cfg).Sim.Days()
	for _, cut := range []int{0, 1, days / 2, days - 1, days} {
		snap := snapshotAt(t, cfg, cut)
		if int(snap.NextDay) != cut {
			t.Fatalf("snapshot at %d has NextDay %d", cut, snap.NextDay)
		}
		data := resumeAndFinish(t, cfg, snap)
		if got := data.Fingerprint(); uint64(got) != goldenSmallFingerprint {
			t.Errorf("resume from day %d: fingerprint %#x != golden %#x",
				cut, got, uint64(goldenSmallFingerprint))
		}
	}
}

// TestSnapshotResumeFaultsEnabled repeats the cut-and-resume check under
// fault injection, where the resilient fetcher's circuit breakers and the
// coverage mask join the snapshot. One uninterrupted run per profile is
// the oracle and also supplies the snapshots, cut at several days; both
// profiles' fingerprints are pinned as well. The observe phase runs at its
// default fan-out.
func TestSnapshotResumeFaultsEnabled(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, tc := range []struct {
		profile string
		golden  uint64
	}{
		{"moderate", goldenModerateFingerprint},
		{"severe", goldenSevereFingerprint},
	} {
		t.Run(tc.profile, func(t *testing.T) {
			cfg := smallConfig()
			fc, err := faults.Profile(tc.profile)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Faults = fc
			w := NewWorld(cfg)
			days := w.Sim.Days()
			snaps := map[int]*StudySnapshot{1: nil, days / 3: nil, 2 * days / 3: nil, days - 1: nil}
			w.OnDayEnd = func(d simclock.Day) {
				if _, ok := snaps[int(d)+1]; ok {
					snaps[int(d)+1] = w.Snapshot()
				}
			}
			want := w.Run().Fingerprint()
			if uint64(want) != tc.golden {
				t.Fatalf("uninterrupted fingerprint %#x != golden %#x", want, tc.golden)
			}
			for cut, snap := range snaps {
				if got := resumeAndFinish(t, cfg, snap).Fingerprint(); got != want {
					t.Errorf("resume from day %d: fingerprint %#x != uninterrupted %#x", cut, got, want)
				}
			}
		})
	}
}

// TestSnapshotResumeAcrossWorkerCounts proves a snapshot is portable across
// scheduling configurations: a snapshot cut from a serial GOMAXPROCS=1 run
// resumes on a fully parallel world (different worker counts are excluded
// from the config hash) and still lands on the golden fingerprint.
func TestSnapshotResumeAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	serialCfg := smallConfig()
	serialCfg.ObserveWorkers = 1
	serialCfg.CrawlWorkers = 1
	prev := runtime.GOMAXPROCS(1)
	days := NewWorld(serialCfg).Sim.Days()
	snap := snapshotAt(t, serialCfg, days/2)
	runtime.GOMAXPROCS(prev)

	parCfg := smallConfig()
	parCfg.ObserveWorkers = runtime.NumCPU()
	parCfg.CrawlWorkers = runtime.NumCPU()
	data := resumeAndFinish(t, parCfg, snap)
	if got := data.Fingerprint(); uint64(got) != goldenSmallFingerprint {
		t.Fatalf("serial→parallel resume fingerprint %#x != golden %#x",
			got, uint64(goldenSmallFingerprint))
	}
}

// TestRestoreSnapshotRejectsConfigMismatch: a snapshot is bound to the
// simulation-shaping config; restoring onto a world built from a different
// one must fail loudly, not silently diverge.
func TestRestoreSnapshotRejectsConfigMismatch(t *testing.T) {
	cfg := smallConfig()
	snap := snapshotAt(t, cfg, 1)

	other := cfg
	other.Seed++
	if err := NewWorld(other).RestoreSnapshot(snap); err == nil {
		t.Fatal("restore accepted a snapshot from a different seed")
	}

	// Scheduling knobs are excluded from the hash on purpose.
	sched := cfg
	sched.ObserveWorkers = 7
	sched.CrawlWorkers = 3
	if err := NewWorld(sched).RestoreSnapshot(snap); err != nil {
		t.Fatalf("restore rejected a worker-count-only change: %v", err)
	}
}

// TestRestoreSnapshotRequiresFreshWorld: restore overwrites post-
// construction state wholesale, which is only coherent on a world that has
// not run a day yet.
func TestRestoreSnapshotRequiresFreshWorld(t *testing.T) {
	cfg := smallConfig()
	snap := snapshotAt(t, cfg, 1)
	w := NewWorld(cfg)
	w.RunDay(0)
	w.nextDay = 1
	if err := w.RestoreSnapshot(snap); err == nil {
		t.Fatal("restore accepted a world that already ran a day")
	}
}

// TestRestoreSnapshotRejectsTamperedDataset: the dataset section carries
// the incremental day fingerprint, and restore recomputes the digest from
// the restored facts. Payload tampering that survives the envelope
// checksum (or hits a future schema drift) is still caught here.
func TestRestoreSnapshotRejectsTamperedDataset(t *testing.T) {
	cfg := smallConfig()
	days := NewWorld(cfg).Sim.Days()
	snap := snapshotAt(t, cfg, days/2)
	snap.Dataset.ChurnNew[0]++
	if err := NewWorld(cfg).RestoreSnapshot(snap); err == nil {
		t.Fatal("restore accepted a snapshot whose facts disagree with its digest")
	}
}
