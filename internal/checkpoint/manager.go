package checkpoint

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/telemetry"
)

// ErrNoCheckpoint is returned by Load when the directory holds no
// checkpoint files at all — a fresh study, not a failure.
var ErrNoCheckpoint = errors.New("checkpoint: no checkpoint found")

// Options configures a Manager.
type Options struct {
	// Dir is the checkpoint directory, created if absent.
	Dir string
	// Every is the save cadence in days; a snapshot is written after each
	// day d with (d+1) % Every == 0. <= 0 means every day.
	Every int
	// Keep is how many rotated snapshots to retain (>= 1 so a torn write
	// of snapshot N never strands a study without N-1). <= 0 means 2.
	Keep int
	// Telemetry, when non-nil, receives save/load/fallback/save-error
	// counters and duration histograms.
	Telemetry *telemetry.Registry
	// Disk injects deterministic crashes into the write protocol
	// (tests only; nil never crashes).
	Disk *faults.DiskPlan
}

// Manager writes, rotates and recovers study snapshots in one directory.
// Its save methods (Save, SaveAsync, Wait) are called from one goroutine,
// the one driving the study; SaveAsync's writer is the only other.
type Manager struct {
	dir   string
	every int
	keep  int
	disk  *faults.DiskPlan

	// inflight is closed by the background writer when its save is done,
	// after it stores the result in inflightErr; nil when no save is in
	// flight.
	inflight    chan struct{}
	inflightErr error

	// lastSize is the previous save's encoded size. The next encode
	// starts from an eighth more than it, so a growing study rarely
	// reallocates its buffer; no buffer is kept between saves, which would
	// hold a whole payload in the live heap all day.
	lastSize int

	cSaves      *telemetry.Counter
	cSaveErrors *telemetry.Counter
	cLoads      *telemetry.Counter
	cFallbacks  *telemetry.Counter
	cCorrupt    *telemetry.Counter
	hSaveMS     *telemetry.Histogram
	hLoadMS     *telemetry.Histogram
}

// NewManager opens (creating if needed) a checkpoint directory.
func NewManager(opts Options) (*Manager, error) {
	if opts.Dir == "" {
		return nil, errors.New("checkpoint: empty directory")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	m := &Manager{dir: opts.Dir, every: opts.Every, keep: opts.Keep, disk: opts.Disk}
	if m.every <= 0 {
		m.every = 1
	}
	if m.keep <= 0 {
		m.keep = 2
	}
	reg := opts.Telemetry
	m.cSaves = reg.Counter("checkpoint_saves_total")
	m.cSaveErrors = reg.Counter("checkpoint_save_errors_total")
	m.cLoads = reg.Counter("checkpoint_loads_total")
	m.cFallbacks = reg.Counter("checkpoint_fallbacks_total")
	m.cCorrupt = reg.Counter("checkpoint_corrupt_total")
	m.hSaveMS = reg.Histogram("checkpoint_save_ms", telemetry.DurationBuckets())
	m.hLoadMS = reg.Histogram("checkpoint_load_ms", telemetry.DurationBuckets())
	return m, nil
}

// Dir returns the checkpoint directory.
func (m *Manager) Dir() string { return m.dir }

// Due reports whether the cadence calls for a snapshot after day d.
func (m *Manager) Due(d int) bool { return (d+1)%m.every == 0 }

// fileFor names the snapshot whose resume cursor is day.
func fileFor(day int) string { return fmt.Sprintf("ckpt-%08d.ckpt", day) }

// dayOf parses a snapshot file name, returning -1 for foreign files.
func dayOf(name string) int {
	rest, ok := strings.CutPrefix(name, "ckpt-")
	if !ok {
		return -1
	}
	rest, ok = strings.CutSuffix(rest, ".ckpt")
	if !ok {
		return -1
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return -1
	}
	return n
}

// Save atomically writes a snapshot and rotates old ones away, after any
// in-flight SaveAsync has finished, so saves land in call order. A failure
// — including an injected crash — leaves the previous snapshots untouched
// and counts in checkpoint_save_errors_total.
func (m *Manager) Save(snap *core.StudySnapshot) error {
	//sslint:ignore errflow the earlier save's error already went to its SaveAsync report func
	m.Wait()
	return m.save(snap)
}

// SaveAsync saves snap like Save, but off the caller's critical path: once
// any earlier save has finished it hands the encode, write, fsync and
// rotation to a background goroutine and returns, so at most one save is
// ever in flight. report, when non-nil, receives a failed save's error
// from whichever goroutine ran it. The caller must not mutate snap
// afterwards (World.Snapshot returns a deep copy, so the study may run on).
//
// With GOMAXPROCS 1 there is no idle CPU for the writer, so the save runs
// inline: deferring it would only smear the encode over the following
// days and raise their median time without raising throughput. With more
// CPUs it is pipelined even when the days keep them all busy; measured on
// two CPUs with two tenants, throughput held and the median day fell, at a
// higher p95 day (DESIGN §7).
func (m *Manager) SaveAsync(snap *core.StudySnapshot, report func(error)) {
	if runtime.GOMAXPROCS(0) == 1 {
		if err := m.Save(snap); err != nil && report != nil {
			report(err)
		}
		return
	}
	//sslint:ignore errflow the earlier save's error already went to its own report func
	m.Wait()
	done := make(chan struct{})
	m.inflight = done
	go func() {
		defer close(done)
		err := m.save(snap)
		if err != nil && report != nil {
			report(err)
		}
		m.inflightErr = err
	}()
}

// Wait blocks until the in-flight SaveAsync, if any, has finished and
// returns its error (which its report func has already received).
func (m *Manager) Wait() error {
	if m.inflight == nil {
		return nil
	}
	<-m.inflight
	m.inflight = nil
	return m.inflightErr
}

// save runs one save (encode, atomic write, rotation), counting a failure.
func (m *Manager) save(snap *core.StudySnapshot) error {
	start := time.Now()
	data := encode(snap, m.lastSize+m.lastSize/8)
	m.lastSize = len(data)
	if err := m.writeAtomic(fileFor(int(snap.NextDay)), data); err != nil {
		m.cSaveErrors.Inc()
		return err
	}
	m.cSaves.Inc()
	m.hSaveMS.Observe(float64(time.Since(start).Nanoseconds()) / 1e6)
	m.rotate()
	return nil
}

// writeAtomic runs the temp-write/fsync/rename/dirsync protocol, with a
// kill point before (or mid-) every step. Each injected crash leaves
// exactly the state a real kill -9 at that instant would: a missing,
// partial, or un-renamed temp file — never a damaged final file.
func (m *Manager) writeAtomic(name string, data []byte) error {
	tmp := filepath.Join(m.dir, name+".tmp")
	final := filepath.Join(m.dir, name)
	if m.disk.CrashAt(faults.OpCreate, name) {
		return faults.ErrInjectedCrash
	}
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	werr := m.writeBody(f, name, data)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	if cerr != nil {
		return fmt.Errorf("checkpoint: %w", cerr)
	}
	if m.disk.CrashAt(faults.OpRename, name) {
		return faults.ErrInjectedCrash
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if m.disk.CrashAt(faults.OpDirsync, name) {
		// The rename happened; only the directory fsync is lost. On a real
		// crash the rename may or may not survive — both outcomes recover.
		return faults.ErrInjectedCrash
	}
	//sslint:ignore errflow directory-entry fsync is best-effort; Load's newest-good fallback covers a lost entry
	if d, err := os.Open(m.dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// writeBody runs the payload write and its kill points against the open
// temp file. The caller closes the handle exactly once on every path, so
// a close failure after a clean write still surfaces instead of being
// swallowed by per-branch cleanup closes.
func (m *Manager) writeBody(f *os.File, name string, data []byte) error {
	if m.disk.CrashAt(faults.OpWrite, name) {
		// Torn write: half the bytes land, then the process dies.
		//sslint:ignore errflow a simulated kill -9 mid-write abandons the handle; there is no error path to report into
		f.Write(data[:len(data)/2])
		return faults.ErrInjectedCrash
	}
	if _, err := f.Write(data); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if m.disk.CrashAt(faults.OpFsync, name) {
		return faults.ErrInjectedCrash
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// list returns the checkpoint days present, ascending.
func (m *Manager) list() []int {
	entries, err := os.ReadDir(m.dir)
	if err != nil {
		return nil
	}
	var days []int
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if d := dayOf(e.Name()); d >= 0 {
			days = append(days, d)
		}
	}
	sort.Ints(days)
	return days
}

// rotate removes the oldest snapshots beyond Keep. Removal failures are
// ignored: stale files cost disk, never correctness (Load prefers newer).
func (m *Manager) rotate() {
	days := m.list()
	//sslint:ignore errflow removal failures cost disk, never correctness: Load prefers newer snapshots
	for len(days) > m.keep {
		os.Remove(filepath.Join(m.dir, fileFor(days[0])))
		os.Remove(filepath.Join(m.dir, fileFor(days[0])+".tmp"))
		days = days[1:]
	}
}

// Load returns the newest loadable snapshot. Corrupt or truncated files —
// the residue of a crash mid-write or of disk damage — are detected by
// the codec, counted in telemetry, and skipped in favour of the next-newest
// good snapshot. ErrNoCheckpoint means a fresh directory; any other error
// means every present file was damaged.
func (m *Manager) Load() (*core.StudySnapshot, error) {
	start := time.Now()
	days := m.list()
	if len(days) == 0 {
		return nil, ErrNoCheckpoint
	}
	var lastErr error
	for i := len(days) - 1; i >= 0; i-- {
		path := filepath.Join(m.dir, fileFor(days[i]))
		data, err := os.ReadFile(path)
		if err != nil {
			if !errors.Is(err, fs.ErrNotExist) {
				lastErr = err
			}
			continue
		}
		snap, err := Decode(data)
		if err != nil {
			m.cCorrupt.Inc()
			m.cFallbacks.Inc()
			lastErr = fmt.Errorf("%s: %w", fileFor(days[i]), err)
			continue
		}
		m.cLoads.Inc()
		m.hLoadMS.Observe(float64(time.Since(start).Nanoseconds()) / 1e6)
		return snap, nil
	}
	if lastErr == nil {
		return nil, ErrNoCheckpoint
	}
	return nil, fmt.Errorf("checkpoint: no loadable snapshot: %w", lastErr)
}
