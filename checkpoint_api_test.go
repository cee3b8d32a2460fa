package searchseizure

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/simclock"
)

// goldenTinyFingerprint is the tinyConfig() faults-off dataset fingerprint
// (the same configuration and constant as internal/core's golden). Every
// resume path below must converge to it — a checkpointed study is
// bit-identical to an uninterrupted one.
const goldenTinyFingerprint = 0xf6f361ae7ec6499d

func mustGolden(t *testing.T, s *Study) {
	t.Helper()
	data, err := s.RunContext(context.Background())
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	if got := data.Fingerprint(); uint64(got) != goldenTinyFingerprint {
		t.Fatalf("fingerprint %#x != golden %#x", got, uint64(goldenTinyFingerprint))
	}
}

// TestCheckpointResumeAfterCancellation is the paved-path crash story:
// a study is cancelled mid-run (day-granular, like a drained SIGTERM), a
// brand-new process opens the same checkpoint directory, and the finished
// dataset is bit-identical to an uninterrupted run. GOMAXPROCS is at least
// 2, so the background writer encodes day d's snapshot while day d+1
// mutates the world; under -race (CI repeats it ten times) the faulted
// case shows that no exported snapshot state aliases live state.
func TestCheckpointResumeAfterCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	pipelined(t)
	for _, tc := range []struct {
		name, faults string
		maxDays      int // 0 runs the full window
	}{
		{"faults-off", "", 0},
		{"moderate-40d", "moderate", 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tinyConfig()
			cfg.MaxDays = tc.maxDays
			want := uint64(goldenTinyFingerprint)
			if tc.faults != "" {
				want, _ = uninterrupted(t, cfg, tc.faults)
			}
			dir := t.TempDir()
			s, err := New(cfg, WithFaults(tc.faults), WithCheckpoint(dir, 1))
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			// Cancel at a mid-run day boundary; the checkpoint hook chains
			// after this one, so the snapshot for the cancellation day
			// still lands.
			cut := s.World.TargetDays() / 2
			s.World.OnDayEnd = func(d simclock.Day) {
				if int(d)+1 == cut {
					cancel()
				}
			}
			if _, err := s.RunContext(ctx); !errors.Is(err, context.Canceled) {
				t.Fatalf("got %v, want context.Canceled", err)
			}

			resumed, err := New(cfg, WithFaults(tc.faults), WithCheckpoint(dir, 1))
			if err != nil {
				t.Fatal(err)
			}
			data, err := resumed.RunContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if got := uint64(data.Fingerprint()); got != want {
				t.Fatalf("resumed fingerprint %#x != uninterrupted %#x", got, want)
			}
			if got := int(resumed.World.Snapshot().NextDay); got != resumed.World.TargetDays() {
				t.Fatalf("resumed study stopped at day %d", got)
			}
		})
	}
}

// pipelined raises GOMAXPROCS to at least 2 for the rest of the test, so
// day-boundary saves take the background writer rather than running inline.
func pipelined(t *testing.T) {
	if n := runtime.GOMAXPROCS(0); n < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(n) })
	}
}

// reference is one uninterrupted run's result.
type reference struct {
	fp   uint64
	days int
	err  error
}

var references = struct {
	sync.Mutex
	m map[string]reference
}{m: map[string]reference{}}

// uninterrupted runs cfg start to finish under the faults profile, with no
// checkpoint, and returns its dataset fingerprint and day count. Each
// (config, profile) runs once per test process, so -count repetitions of
// the resume tests compare against one reference.
func uninterrupted(t *testing.T, cfg Config, faults string) (uint64, int) {
	t.Helper()
	key := fmt.Sprintf("%+v/%s", cfg, faults)
	references.Lock()
	defer references.Unlock()
	ref, ok := references.m[key]
	if !ok {
		ref.err = func() error {
			s, err := New(cfg, WithFaults(faults))
			if err != nil {
				return err
			}
			data, err := s.RunContext(context.Background())
			if err != nil {
				return err
			}
			ref.fp, ref.days = uint64(data.Fingerprint()), s.World.Sim.Days()
			return nil
		}()
		references.m[key] = ref
	}
	if ref.err != nil {
		t.Fatal(ref.err)
	}
	return ref.fp, ref.days
}

// TestCheckpointNewestMatchesCancelDay: RunContext returns only once its
// last day-boundary save is on disk, even when that save ran in the
// background, and a forced Checkpoint afterwards lands behind it.
func TestCheckpointNewestMatchesCancelDay(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	pipelined(t)
	dir := t.TempDir()
	s, err := New(tinyConfig(), WithCheckpoint(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const cut = 12
	s.World.OnDayEnd = func(d simclock.Day) {
		if int(d)+1 == cut {
			cancel()
		}
	}
	if _, err := s.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}

	// newestCursor loads the newest snapshot file and returns its resume
	// cursor.
	newestCursor := func() int {
		t.Helper()
		files, err := filepath.Glob(filepath.Join(dir, "ckpt-*.ckpt"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no snapshot files (%v)", err)
		}
		path := files[len(files)-1] // zero-padded names sort by day
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := checkpoint.Decode(data)
		if err != nil {
			t.Fatalf("%s does not load: %v", filepath.Base(path), err)
		}
		return int(snap.NextDay)
	}
	if got := newestCursor(); got != cut {
		t.Fatalf("newest snapshot after RunContext returned has cursor %d, want %d", got, cut)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := newestCursor(); got != cut {
		t.Fatalf("newest snapshot after Checkpoint has cursor %d, want %d", got, cut)
	}
}

// TestCheckpointResumeAtDayZero: a checkpoint written before any day ran
// (e.g. a SIGTERM during warm-up) resumes from day 0 and still converges.
func TestCheckpointResumeAtDayZero(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	s, err := New(tinyConfig(), WithCheckpoint(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	resumed, err := New(tinyConfig(), WithCheckpoint(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	mustGolden(t, resumed)
}

// TestCheckpointResumeWhenComplete: the final snapshot of a finished study
// restores into a world with no days left; RunContext finalizes straight
// away and the dataset still carries the golden fingerprint.
func TestCheckpointResumeWhenComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	s, err := New(tinyConfig(), WithCheckpoint(dir, 5))
	if err != nil {
		t.Fatal(err)
	}
	mustGolden(t, s)

	resumed, err := New(tinyConfig(), WithCheckpoint(dir, 5))
	if err != nil {
		t.Fatal(err)
	}
	mustGolden(t, resumed)
}

// TestCheckpointConfigMismatchSurfaces: pointing a differently-seeded study
// at an existing checkpoint directory is a usage error, not a silent
// restart, through every method that runs the study.
func TestCheckpointConfigMismatchSurfaces(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	s, err := New(tinyConfig(), WithCheckpoint(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	files := func() []string {
		t.Helper()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		return names
	}
	want := files()

	// A failed restore leaves the world half restored: a second call on
	// the same study must fail the same way, not run a fresh study.
	other := tinyConfig()
	other.Seed++
	for name, run := range map[string]func(*Study) error{
		"RunContext": func(s *Study) error {
			_, err := s.RunContext(context.Background())
			return err
		},
		"Experiment": func(s *Study) error {
			_, err := s.Experiment("table1")
			return err
		},
		"Export":  func(s *Study) error { return s.Export(t.TempDir()) },
		"Recover": func(s *Study) error { return s.Recover() },
	} {
		t.Run(name, func(t *testing.T) {
			mismatched, err := New(other, WithCheckpoint(dir, 1))
			if err != nil {
				t.Fatal(err)
			}
			for call := 1; call <= 2; call++ {
				if err := run(mismatched); err == nil || !strings.Contains(err.Error(), "config") {
					t.Fatalf("call %d: got %v, want a config-mismatch restore error", call, err)
				}
			}
			if _, err := mismatched.RunContext(context.Background()); err == nil {
				t.Fatal("RunContext after a failed restore returned no error")
			}
		})
	}
	if got := files(); !slices.Equal(got, want) {
		t.Fatalf("checkpoint directory holds %v after the failed restores, want only %v", got, want)
	}
}

func TestWithCheckpointRejectsEmptyDir(t *testing.T) {
	if _, err := New(tinyConfig(), WithCheckpoint("", 1)); err == nil {
		t.Fatal("New accepted an empty checkpoint directory")
	}
}

// TestCheckpointSurvivesKill9 is the headline durability claim, tested for
// real: a child process running a checkpointed study is killed with
// SIGKILL — no handler, no flush, no goodbye — mid-study, and a fresh
// process over the same directory finishes the study bit-identically.
func TestCheckpointSurvivesKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if os.Getenv("SSCKPT_CHILD") != "" {
		t.Skip("child guard")
	}
	dir := t.TempDir()

	cmd := exec.Command(os.Args[0], "-test.run=^TestCheckpointKill9Child$", "-test.v")
	cmd.Env = append(os.Environ(), "SSCKPT_CHILD=1", "SSCKPT_DIR="+dir, childProcs())
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Wait for the child to commit at least two snapshots, then kill -9 —
	// possibly mid-write of a third, which recovery must shrug off.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if n, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.ckpt")); len(n) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("child produced no checkpoints within the deadline")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	resumed, err := New(tinyConfig(), WithCheckpoint(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	mustGolden(t, resumed)
}

// childProcs passes this test's GOMAXPROCS on to a kill -9 child, so that
// -cpu 1 kills a child saving inline and -cpu 2 one saving in the
// background.
func childProcs() string {
	return "GOMAXPROCS=" + strconv.Itoa(runtime.GOMAXPROCS(0))
}

// TestCheckpointKill9Child is the sacrificial process for the kill -9
// tests. It only runs when a parent execs it with the guard env set; the
// optional SSCKPT_PROFILE env selects a fault profile.
func TestCheckpointKill9Child(t *testing.T) {
	if os.Getenv("SSCKPT_CHILD") == "" {
		t.Skip("only runs as the kill -9 child")
	}
	opts := []Option{WithCheckpoint(os.Getenv("SSCKPT_DIR"), 1)}
	if p := os.Getenv("SSCKPT_PROFILE"); p != "" {
		opts = append(opts, WithFaults(p))
	}
	s, err := New(tinyConfig(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointCrashRecoveryMatrix is the CI crash-recovery job: a study
// under the matrix fault profile (FAULT_PROFILE, default moderate) is
// killed with SIGKILL at a day chosen by hashing the seed and profile — so
// the kill point wanders across code changes instead of fossilising on a
// hand-picked day — then a fresh process resumes from the surviving
// snapshots and its fingerprint must equal an uninterrupted run's.
func TestCheckpointCrashRecoveryMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if os.Getenv("SSCKPT_CHILD") != "" {
		t.Skip("child guard")
	}
	profile := os.Getenv("FAULT_PROFILE")
	if profile == "" {
		profile = "moderate"
	}
	cfg := tinyConfig()
	want, days := uninterrupted(t, cfg, profile)

	h := fnv.New64a()
	fmt.Fprintf(h, "crash-recovery/%d/%s", cfg.Seed, profile)
	killDay := 1 + int(h.Sum64()%uint64(days-1))
	t.Logf("profile %s: killing after the day-%d snapshot lands", profile, killDay)

	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestCheckpointKill9Child$", "-test.v")
	cmd.Env = append(os.Environ(),
		"SSCKPT_CHILD=1", "SSCKPT_DIR="+dir, "SSCKPT_PROFILE="+profile, childProcs())
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	target := filepath.Join(dir, fmt.Sprintf("ckpt-%08d.ckpt", killDay))
	deadline := time.Now().Add(3 * time.Minute)
	for {
		if _, err := os.Stat(target); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("child never reached day %d within the deadline", killDay)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	resumed, err := New(cfg, WithFaults(profile), WithCheckpoint(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := resumed.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if fp := uint64(got.Fingerprint()); fp != want {
		t.Fatalf("resumed fingerprint %#x != uninterrupted %#x", fp, want)
	}
}
