package checkpoint

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/simclock"
	"repro/internal/telemetry"
)

// testCfg is a miniature study config (same shape as internal/core's
// smallConfig) so building snapshot fixtures stays fast.
func testCfg() core.Config {
	cfg := core.TestConfig()
	cfg.TermsPerVertical = 3
	cfg.SlotsPerTerm = 20
	cfg.ExtendedTail = false
	return cfg
}

// snapCache memoizes fixtures per cut day: building a world dominates this
// package's test time, and every caller treats snapshots as read-only
// (except TestRestoreSnapshotRejectsTamperedDataset-style mutation, which
// lives in internal/core and builds its own).
var snapCache = map[int]*core.StudySnapshot{}

// snapshotAfter runs a fresh world and captures its snapshot after `cut`
// days, using the day-boundary hook plus context cancellation so the run
// stops deterministically right at the boundary. cut == 0 snapshots the
// fresh world.
func snapshotAfter(t testing.TB, cut int) *core.StudySnapshot {
	t.Helper()
	if s, ok := snapCache[cut]; ok {
		return s
	}
	w := core.NewWorld(testCfg())
	if cut == 0 {
		s := w.Snapshot()
		snapCache[0] = s
		return s
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var snap *core.StudySnapshot
	w.OnDayEnd = func(d simclock.Day) {
		if int(d)+1 == cut {
			snap = w.Snapshot()
			cancel()
		}
	}
	w.RunContext(ctx)
	if snap == nil {
		t.Fatalf("no snapshot captured at day %d", cut)
	}
	snapCache[cut] = snap
	return snap
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	snap := snapshotAfter(t, 3)
	data := encode(snap, 0)
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, snap) {
		t.Fatal("decoded snapshot differs from original")
	}
	// Encoding is deterministic: the same snapshot re-encodes to the same
	// bytes, so checkpoint files are byte-comparable across runs.
	if !bytes.Equal(data, encode(got, 0)) {
		t.Fatal("re-encoding a decoded snapshot changed the bytes")
	}
	// The Manager's buffer size hint changes where the bytes are built,
	// never what they are.
	for _, hint := range []int{1, len(data) / 2, len(data), 2 * len(data)} {
		if !bytes.Equal(encode(snap, hint), data) {
			t.Fatalf("encode with capacity hint %d differs from Encode", hint)
		}
	}
}

func TestDecodeRejectsDamage(t *testing.T) {
	snap := snapshotAfter(t, 2)
	data := encode(snap, 0)

	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 1, headerSize - 1, headerSize + 7, len(data) / 2, len(data) - 1} {
			if _, err := Decode(data[:n]); err == nil {
				t.Errorf("accepted a file truncated to %d bytes", n)
			}
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		bad := bytes.Clone(data)
		bad[0] ^= 0xFF
		if _, err := Decode(bad); !errors.Is(err, ErrBadMagic) {
			t.Errorf("got %v, want ErrBadMagic", err)
		}
	})
	t.Run("bad-version", func(t *testing.T) {
		bad := bytes.Clone(data)
		bad[7] = 99
		if _, err := Decode(bad); !errors.Is(err, ErrVersion) {
			t.Errorf("got %v, want ErrVersion", err)
		}
	})
	t.Run("bit-flips", func(t *testing.T) {
		// A single flipped bit anywhere in the payload or checksum must be
		// detected. Sampling offsets keeps the test fast on large files;
		// every trailer byte is flipped, including the four a CRC-32C
		// leaves zero. Each flip is made in place and undone, so the cost
		// is one Decode per offset rather than a copy of the file.
		flip := func(off int) {
			data[off] ^= 0x10
			_, err := Decode(data)
			data[off] ^= 0x10
			if err == nil {
				t.Fatalf("accepted a bit flip at offset %d", off)
			}
		}
		for off := headerSize; off < len(data); off += 101 {
			flip(off)
		}
		for off := len(data) - 8; off < len(data); off++ {
			flip(off)
		}
	})
	t.Run("appended-garbage", func(t *testing.T) {
		if _, err := Decode(append(bytes.Clone(data), 0xAB)); err == nil {
			t.Error("accepted a file with trailing garbage")
		}
	})
}

// frame wraps a raw payload in the SSCKPT envelope with the given envelope
// version byte and a correct length and checksum, so tests can probe decode
// behaviour past the framing checks. The checksum follows the version:
// FNV-1a for envelopes 1 and 2, CRC-32C for 3 and any later one.
func frame(version byte, payload []byte) []byte {
	buf := make([]byte, 0, headerSize+len(payload)+8)
	buf = append(buf, magic[:]...)
	buf = append(buf, version)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	if version <= legacyFNVVersion {
		h := fnv.New64a()
		h.Write(buf)
		return binary.LittleEndian.AppendUint64(buf, h.Sum64())
	}
	return binary.LittleEndian.AppendUint64(buf, uint64(crc32.Checksum(buf, crc32.MakeTable(crc32.Castagnoli))))
}

// withVersion returns a copy of snap declaring the given Version.
func withVersion(snap *core.StudySnapshot, v int) *core.StudySnapshot {
	c := *snap
	c.Version = v
	return &c
}

// TestDecodeForwardCompat pins the reader's behaviour on files written by a
// newer build: both a newer envelope and a newer snapshot schema yield
// their own typed errors — never ErrCorrupt, which is reserved for damage.
func TestDecodeForwardCompat(t *testing.T) {
	fresh := snapshotAfter(t, 0)
	t.Run("newer-envelope", func(t *testing.T) {
		data := frame(envelopeVersion+1, appendPayload(nil, fresh))
		_, err := Decode(data)
		if !errors.Is(err, ErrVersion) {
			t.Fatalf("got %v, want ErrVersion", err)
		}
		if errors.Is(err, ErrCorrupt) {
			t.Fatal("a newer envelope must not be classed as corruption")
		}
	})
	t.Run("newer-snapshot-schema", func(t *testing.T) {
		newer := core.SnapshotVersion + 1
		// The same layout declaring a newer version, and a newer build's
		// layout: another digest, then the leading Version varint and
		// fields this build cannot parse.
		otherLayout := binary.LittleEndian.AppendUint64(nil, ^layoutDigest)
		otherLayout = binary.AppendVarint(otherLayout, int64(newer))
		otherLayout = append(otherLayout, 0xFF, 0xFF, 0xFF)
		for name, payload := range map[string][]byte{
			"same-layout":  appendPayload(nil, withVersion(fresh, newer)),
			"other-layout": otherLayout,
			"legacy-json":  []byte(fmt.Sprintf(`{"Version":%d}`, newer)),
		} {
			version := byte(envelopeVersion)
			if name == "legacy-json" {
				version = legacyJSONVersion
			}
			_, err := Decode(frame(version, payload))
			if !errors.Is(err, ErrSnapshotVersion) {
				t.Fatalf("%s: got %v, want ErrSnapshotVersion", name, err)
			}
			if errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: a newer snapshot schema must not be classed as corruption", name)
			}
		}
		// Another layout that does not declare a newer version is damage.
		stale := binary.LittleEndian.AppendUint64(nil, ^layoutDigest)
		stale = binary.AppendVarint(stale, core.SnapshotVersion)
		if _, err := Decode(frame(envelopeVersion, stale)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("foreign layout at the current version: got %v, want ErrCorrupt", err)
		}
	})
	t.Run("older-snapshot-schema-loads", func(t *testing.T) {
		// A snapshot-version-1 payload predates the Version field entirely
		// and decodes as 0; anything <= the current version must load, in
		// the binary envelope and in the legacy JSON one alike.
		for v := 0; v <= core.SnapshotVersion; v++ {
			snap := withVersion(fresh, v)
			got, err := Decode(frame(envelopeVersion, appendPayload(nil, snap)))
			if err != nil {
				t.Fatalf("binary payload at version %d: %v", v, err)
			}
			if !reflect.DeepEqual(got, snap) {
				t.Fatalf("binary payload at version %d decoded differently", v)
			}
		}
		for _, v := range []string{`{}`, `{"Version":0}`, fmt.Sprintf(`{"Version":%d}`, core.SnapshotVersion)} {
			if _, err := Decode(frame(legacyJSONVersion, []byte(v))); err != nil {
				t.Fatalf("JSON payload %s: %v", v, err)
			}
		}
	})
	t.Run("fnv-binary-envelope-loads", func(t *testing.T) {
		// Envelope 2, the binary payload behind an FNV-1a trailer, is what
		// the build before envelope 3 wrote.
		snap := snapshotAfter(t, 2)
		data := frame(legacyFNVVersion, appendPayload(nil, snap))
		got, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, snap) {
			t.Fatal("the envelope-2 checkpoint decoded to a different snapshot")
		}
		// Its checksum is FNV-1a: the same bytes behind a CRC-32C trailer
		// do not load as envelope 2.
		binary.LittleEndian.PutUint64(data[len(data)-8:], uint64(crc32.Checksum(data[:len(data)-8], crc32.MakeTable(crc32.Castagnoli))))
		if _, err := Decode(data); !errors.Is(err, ErrChecksum) {
			t.Fatalf("envelope 2 behind a CRC-32C: got %v, want ErrChecksum", err)
		}
	})
	t.Run("current-snapshot-declares-version", func(t *testing.T) {
		if fresh.Version != core.SnapshotVersion {
			t.Fatalf("Snapshot() wrote Version %d, want %d", fresh.Version, core.SnapshotVersion)
		}
	})
}

func TestManagerSaveLoadRotate(t *testing.T) {
	reg := telemetry.New()
	m, err := NewManager(Options{Dir: t.TempDir(), Keep: 2, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := m.Load(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty dir: got %v, want ErrNoCheckpoint", err)
	}

	snaps := map[int]*core.StudySnapshot{}
	for _, cut := range []int{1, 2, 3} {
		snaps[cut] = snapshotAfter(t, cut)
		if err := m.Save(snaps[cut]); err != nil {
			t.Fatalf("save at day %d: %v", cut, err)
		}
	}

	// Keep=2: only the two newest snapshots survive rotation.
	if days := m.list(); !reflect.DeepEqual(days, []int{2, 3}) {
		t.Fatalf("after rotation have days %v, want [2 3]", days)
	}
	got, err := m.Load()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, snaps[3]) {
		t.Fatal("Load did not return the newest snapshot")
	}
	if v := reg.Counter("checkpoint_saves_total").Value(); v != 3 {
		t.Errorf("saves_total = %d, want 3", v)
	}
	if v := reg.Counter("checkpoint_loads_total").Value(); v != 1 {
		t.Errorf("loads_total = %d, want 1", v)
	}
	if c := reg.Histogram("checkpoint_save_ms", telemetry.DurationBuckets()).Count(); c != 3 {
		t.Errorf("save_ms histogram count = %d, want 3", c)
	}
}

// TestManagerFallsBackPastCorruption: damage to the newest snapshot —
// bit-flipped or truncated, as a torn write would leave — is detected and
// Load falls back to the previous good one, with the damage counted.
func TestManagerFallsBackPastCorruption(t *testing.T) {
	corrupt := func(t *testing.T, path string, mode string) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		switch mode {
		case "bitflip":
			data[len(data)/2] ^= 0x01
		case "truncate":
			data = data[:len(data)/3]
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	for _, mode := range []string{"bitflip", "truncate"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			reg := telemetry.New()
			m, err := NewManager(Options{Dir: dir, Telemetry: reg})
			if err != nil {
				t.Fatal(err)
			}
			good := snapshotAfter(t, 1)
			if err := m.Save(good); err != nil {
				t.Fatal(err)
			}
			if err := m.Save(snapshotAfter(t, 2)); err != nil {
				t.Fatal(err)
			}
			corrupt(t, filepath.Join(dir, fileFor(2)), mode)

			got, err := m.Load()
			if err != nil {
				t.Fatalf("Load with damaged newest: %v", err)
			}
			if !reflect.DeepEqual(got, good) {
				t.Fatal("Load did not fall back to the previous good snapshot")
			}
			if v := reg.Counter("checkpoint_corrupt_total").Value(); v != 1 {
				t.Errorf("corrupt_total = %d, want 1", v)
			}
			if v := reg.Counter("checkpoint_fallbacks_total").Value(); v != 1 {
				t.Errorf("fallbacks_total = %d, want 1", v)
			}

			// Damage the survivor too: now Load must fail, and the error
			// must not read as "no checkpoint" (data was present, just bad).
			corrupt(t, filepath.Join(dir, fileFor(1)), mode)
			if _, err := m.Load(); err == nil || errors.Is(err, ErrNoCheckpoint) {
				t.Fatalf("all-corrupt dir: got %v, want a damage error", err)
			}
		})
	}
}

// TestCrashAtEveryKillPoint drives the atomic write protocol into a wall
// at each kill point in turn and checks the durability invariant: after
// any crash, the directory still loads — either the previous snapshot
// (crash before rename) or the new one (crash after).
func TestCrashAtEveryKillPoint(t *testing.T) {
	prev := snapshotAfter(t, 1)
	next := snapshotAfter(t, 2)
	for _, op := range []string{"create", "write", "fsync", "rename", "dirsync"} {
		t.Run(op, func(t *testing.T) {
			dir := t.TempDir()
			clean, err := NewManager(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if err := clean.Save(prev); err != nil {
				t.Fatal(err)
			}

			reg := telemetry.New()
			m, err := NewManager(Options{
				Dir:       dir,
				Telemetry: reg,
				Disk:      faults.NewDiskPlan(42, 1.0, op),
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Save(next); !errors.Is(err, faults.ErrInjectedCrash) {
				t.Fatalf("save at kill point %q: got %v, want ErrInjectedCrash", op, err)
			}
			if v := reg.Counter("checkpoint_saves_total").Value(); v != 0 {
				t.Errorf("crashed save counted as success (saves_total = %d)", v)
			}

			got, err := m.Load()
			if err != nil {
				t.Fatalf("Load after crash at %q: %v", op, err)
			}
			switch op {
			case "dirsync":
				// The rename committed before the crash: the new snapshot
				// is already durable.
				if !reflect.DeepEqual(got, next) {
					t.Fatal("crash after rename lost the renamed snapshot")
				}
			default:
				if !reflect.DeepEqual(got, prev) {
					t.Fatalf("crash at %q damaged the previous snapshot", op)
				}
			}
		})
	}
}

// TestSaveErrorsCounted: a failed save is never silent. Save returns the
// injected crash, SaveAsync hands it to its report func and to Wait, and
// either way checkpoint_save_errors_total reads 1 — the one trace a
// logger-less caller (a studysvc tenant) keeps of a failed day boundary.
func TestSaveErrorsCounted(t *testing.T) {
	snap := snapshotAfter(t, 1)
	newManager := func(t *testing.T) (*Manager, *telemetry.Registry) {
		reg := telemetry.New()
		m, err := NewManager(Options{
			Dir:       t.TempDir(),
			Telemetry: reg,
			Disk:      faults.NewDiskPlan(3, 1.0, "fsync"),
		})
		if err != nil {
			t.Fatal(err)
		}
		return m, reg
	}
	errorsTotal := func(reg *telemetry.Registry) int64 {
		return reg.Counter("checkpoint_save_errors_total").Value()
	}

	t.Run("Save", func(t *testing.T) {
		m, reg := newManager(t)
		if err := m.Save(snap); !errors.Is(err, faults.ErrInjectedCrash) {
			t.Fatalf("got %v, want ErrInjectedCrash", err)
		}
		if v := errorsTotal(reg); v != 1 {
			t.Fatalf("save_errors_total = %d, want 1", v)
		}
	})
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("SaveAsync/GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			m, reg := newManager(t)
			var reported error
			m.SaveAsync(snap, func(err error) { reported = err })
			// Inline (GOMAXPROCS 1), nothing is left in flight to wait on.
			if err := m.Wait(); procs > 1 && !errors.Is(err, faults.ErrInjectedCrash) {
				t.Fatalf("Wait: got %v, want ErrInjectedCrash", err)
			}
			if !errors.Is(reported, faults.ErrInjectedCrash) {
				t.Fatalf("report: got %v, want ErrInjectedCrash", reported)
			}
			if v := errorsTotal(reg); v != 1 {
				t.Fatalf("save_errors_total = %d, want 1", v)
			}
		})
	}
}

// TestSaveAsyncOrdering: saves land in call order whichever path runs
// them. At GOMAXPROCS 1 SaveAsync is inline, so its file exists on return;
// otherwise a following Save waits for the in-flight write, so the forced
// snapshot is the newest and rotation has seen both.
func TestSaveAsyncOrdering(t *testing.T) {
	a, b, c := snapshotAfter(t, 1), snapshotAfter(t, 2), snapshotAfter(t, 3)
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			m, err := NewManager(Options{Dir: t.TempDir(), Keep: 1})
			if err != nil {
				t.Fatal(err)
			}
			m.SaveAsync(a, nil)
			if procs == 1 {
				if _, err := os.Stat(filepath.Join(m.dir, fileFor(int(a.NextDay)))); err != nil {
					t.Fatalf("inline SaveAsync returned before its file landed: %v", err)
				}
			}
			if err := m.Save(b); err != nil {
				t.Fatal(err)
			}
			if days := m.list(); !reflect.DeepEqual(days, []int{int(b.NextDay)}) {
				t.Fatalf("after Save have days %v, want [%d]", days, b.NextDay)
			}
			m.SaveAsync(c, nil)
			if err := m.Wait(); err != nil {
				t.Fatal(err)
			}
			if err := m.Wait(); err != nil {
				t.Fatalf("second Wait with nothing in flight: %v", err)
			}
			got, err := m.Load()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, c) {
				t.Fatal("Load after Wait did not return the last SaveAsync snapshot")
			}
		})
	}
}

// TestCrashedWriteLeavesNoFinalFile: the torn half-written file a "write"
// crash leaves behind is a .tmp the loader never confuses with a snapshot.
func TestCrashedWriteLeavesNoFinalFile(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(Options{Dir: dir, Disk: faults.NewDiskPlan(7, 1.0, "write")})
	if err != nil {
		t.Fatal(err)
	}
	snap := snapshotAfter(t, 1)
	if err := m.Save(snap); !errors.Is(err, faults.ErrInjectedCrash) {
		t.Fatalf("got %v, want ErrInjectedCrash", err)
	}
	if _, err := os.Stat(filepath.Join(dir, fileFor(int(snap.NextDay)))); !os.IsNotExist(err) {
		t.Fatal("torn write produced a final-name file")
	}
	if _, err := m.Load(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("got %v, want ErrNoCheckpoint (tmp files are not snapshots)", err)
	}
}

// TestDiskPlanDeterminism: crash decisions are a pure hash of (seed, op,
// key) — the same plan replays the same schedule, different seeds differ.
func TestDiskPlanDeterminism(t *testing.T) {
	a := faults.NewDiskPlan(1, 0.5)
	b := faults.NewDiskPlan(1, 0.5)
	c := faults.NewDiskPlan(2, 0.5)
	diff := 0
	for _, op := range []string{"create", "write", "fsync", "rename", "dirsync"} {
		for _, key := range []string{"ckpt-00000001.ckpt", "ckpt-00000002.ckpt", "x"} {
			if a.CrashAt(op, key) != b.CrashAt(op, key) {
				t.Fatalf("same seed disagrees at (%s,%s)", op, key)
			}
			if a.CrashAt(op, key) != c.CrashAt(op, key) {
				diff++
			}
		}
	}
	if diff == 0 {
		t.Fatal("seeds 1 and 2 produced identical crash schedules")
	}
	var nilPlan *faults.DiskPlan
	if nilPlan.CrashAt("write", "k") {
		t.Fatal("nil plan crashed")
	}
}
