// Package studysvc is the study-service plane: a Manager that runs many
// concurrent studies — each with its own tenant seed, fault profile,
// checkpoint directory and telemetry registry — over one shared worker
// budget, plus a versioned JSON/HTTP API (see http.go) that launches,
// observes, exports and cancels them.
//
// The package sits strictly above the simulation: it schedules *when* each
// study's days execute (a day-slot semaphore caps how many studies burn
// CPU at once) but can never change *what* a day computes, so every study
// the service runs is bit-identical to the same spec run solo. Each study
// persists its spec and day-boundary checkpoints under its own directory;
// RecoverAll rebuilds the whole fleet from disk after a crash and resumes
// every study from its newest good snapshot.
package studysvc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"

	searchseizure "repro"
	"repro/internal/core"
	"repro/internal/simclock"
	"repro/internal/telemetry"
)

// Study lifecycle states. A study moves pending → running →
// (complete | cancelled | failed); cancelling is the window between a
// cancel request and the day boundary where the run actually stops.
const (
	StatePending    = "pending"
	StateRunning    = "running"
	StateCancelling = "cancelling"
	StateComplete   = "complete"
	StateCancelled  = "cancelled"
	StateFailed     = "failed"
)

// terminal reports whether a state is final.
func terminal(state string) bool {
	return state == StateComplete || state == StateCancelled || state == StateFailed
}

// Options configures a Manager.
type Options struct {
	// BaseDir is the service's data directory: each study gets
	// BaseDir/<id>/ holding its spec.json and checkpoint snapshots.
	// Required.
	BaseDir string
	// Budget is the total simulation worker budget shared by all studies;
	// each study runs with Budget/MaxActive workers (min 1). <= 0 means
	// GOMAXPROCS. Worker counts are driving knobs: they change wall time,
	// never fingerprints.
	Budget int
	// MaxActive caps how many studies execute a simulation day at the same
	// moment; the rest queue at their next day boundary. <= 0 means 2.
	MaxActive int
	// Telemetry receives service-plane metrics (API request counters and
	// latency histograms). Each study additionally gets its own private
	// registry. nil is the no-op sink.
	Telemetry *telemetry.Registry
	// Logger receives lifecycle logging; nil logs nothing.
	Logger *log.Logger
}

// Manager owns the study fleet.
type Manager struct {
	opts Options
	sem  chan struct{} // day slots; cap == MaxActive

	mu      sync.Mutex
	studies map[string]*Handle
	order   []string // launch order, for stable listings
	nextID  int
	closed  bool

	wg sync.WaitGroup
}

// NewManager validates opts, creates BaseDir, and returns an empty manager.
// Call RecoverAll to resurrect studies a previous process left on disk.
func NewManager(opts Options) (*Manager, error) {
	if opts.BaseDir == "" {
		return nil, errors.New("studysvc: BaseDir is required")
	}
	if opts.Budget <= 0 {
		opts.Budget = runtime.GOMAXPROCS(0)
	}
	if opts.MaxActive <= 0 {
		opts.MaxActive = 2
	}
	if err := os.MkdirAll(opts.BaseDir, 0o755); err != nil {
		return nil, fmt.Errorf("studysvc: %w", err)
	}
	return &Manager{
		opts:    opts,
		sem:     make(chan struct{}, opts.MaxActive),
		studies: make(map[string]*Handle),
	}, nil
}

// workersPerStudy splits the budget across the active-study cap.
func (m *Manager) workersPerStudy() int {
	w := m.opts.Budget / m.opts.MaxActive
	if w < 1 {
		w = 1
	}
	return w
}

func (m *Manager) logf(format string, args ...any) {
	if m.opts.Logger != nil {
		m.opts.Logger.Printf(format, args...)
	}
}

// The event types of the progress log, as a declared const set so every
// dispatch over them is checkable for exhaustiveness.
const (
	EventLaunched  = "launched"
	EventRecovered = "recovered"
	EventDay       = "day"
	EventState     = "state"
)

// Event is one entry in a study's append-only progress log, streamed by
// the events endpoint. Type is EventLaunched, EventRecovered, EventDay or
// EventState.
type Event struct {
	Seq   int    `json:"seq"`
	Type  string `json:"type"`
	State string `json:"state,omitempty"`
	// Day is the simulation day that just finished (Type "day") or the
	// resume cursor (Type "recovered").
	Day  int `json:"day,omitempty"`
	Days int `json:"days,omitempty"`
	// Fingerprint is the running day-order fingerprint after Day, as hex.
	Fingerprint string `json:"fingerprint,omitempty"`
	Error       string `json:"error,omitempty"`
}

// Status is the JSON shape of one study, served by GET /v1/studies/{id}.
type Status struct {
	ID    string                  `json:"id"`
	State string                  `json:"state"`
	Spec  searchseizure.StudySpec `json:"spec"`
	// NextDay is the resume cursor: the first simulation day that has not
	// run. Days is the target the study runs to (the spec's cap, or the
	// full window).
	NextDay int `json:"next_day"`
	Days    int `json:"days"`
	// DayFingerprint is the running fingerprint over completed days;
	// Fingerprint is the full-dataset fingerprint, set once terminal.
	DayFingerprint string `json:"day_fingerprint,omitempty"`
	Fingerprint    string `json:"fingerprint,omitempty"`
	CheckpointDir  string `json:"checkpoint_dir"`
	Events         int    `json:"events"`
	Error          string `json:"error,omitempty"`
}

// Handle is one managed study.
type Handle struct {
	ID  string
	Dir string

	m   *Manager
	reg *telemetry.Registry // per-tenant registry

	mu     sync.Mutex
	spec   searchseizure.StudySpec
	state  string
	study  *searchseizure.Study
	cancel context.CancelFunc
	err    error
	// progress mirrors of the world, updated at day boundaries only (the
	// world itself must not be read while a day is executing).
	nextDay int
	days    int
	dayFP   uint64
	fullFP  uint64
	events  []Event
	notify  chan struct{} // closed and replaced on every append
	done    chan struct{} // closed when the run goroutine exits
	slot    bool          // currently holding a day slot
}

// Telemetry returns the study's private registry.
func (h *Handle) Telemetry() *telemetry.Registry { return h.reg }

// Done is closed when the study reaches a terminal state.
func (h *Handle) Done() <-chan struct{} { return h.done }

// State returns the current lifecycle state.
func (h *Handle) State() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state
}

// Err returns the terminal error, if any ("failed" state).
func (h *Handle) Err() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.err
}

// Status snapshots the study for JSON serving.
func (h *Handle) Status() Status {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := Status{
		ID:            h.ID,
		State:         h.state,
		Spec:          h.spec,
		NextDay:       h.nextDay,
		Days:          h.days,
		CheckpointDir: h.Dir,
		Events:        len(h.events),
	}
	if h.nextDay > 0 {
		st.DayFingerprint = fmt.Sprintf("%#x", h.dayFP)
	}
	if h.state == StateComplete {
		st.Fingerprint = fmt.Sprintf("%#x", h.fullFP)
	}
	if h.err != nil {
		st.Error = h.err.Error()
	}
	return st
}

// Dataset returns the study's dataset and whether the run has reached a
// terminal state (only then is the dataset finalized and safe to read).
func (h *Handle) Dataset() (*core.Dataset, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !terminal(h.state) || h.study == nil {
		return nil, false
	}
	return h.study.World.Data, true
}

// EventsSince returns a copy of the events from seq onward plus a channel
// that is closed when a new event is appended.
func (h *Handle) EventsSince(seq int) ([]Event, <-chan struct{}) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []Event
	if seq < len(h.events) {
		out = append(out, h.events[seq:]...)
	}
	return out, h.notify
}

// appendEvent appends under lock and wakes every events stream.
func (h *Handle) appendEvent(e Event) {
	h.mu.Lock()
	e.Seq = len(h.events)
	h.events = append(h.events, e)
	close(h.notify)
	h.notify = make(chan struct{})
	h.mu.Unlock()
}

// setState transitions the study and logs an Event for streams.
func (h *Handle) setState(state string, err error) {
	h.mu.Lock()
	h.state = state
	if err != nil {
		h.err = err
	}
	h.mu.Unlock()
	ev := Event{Type: EventState, State: state}
	if err != nil {
		ev.Error = err.Error()
	}
	h.appendEvent(ev)
}

// specFile is the on-disk name of the persisted launch spec.
const specFile = "spec.json"

// writeSpec persists the defaulted spec atomically (temp + rename) so a
// crash can never leave a half-written spec for RecoverAll to choke on.
func writeSpec(dir string, spec searchseizure.StudySpec) error {
	raw, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".spec-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	_, werr := tmp.Write(append(raw, '\n'))
	if werr == nil {
		werr = tmp.Sync()
	}
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr != nil {
		//sslint:ignore errflow best-effort cleanup of a temp file already being reported as a write failure
		os.Remove(name)
		return werr
	}
	return os.Rename(name, filepath.Join(dir, specFile))
}

// Launch validates spec, assigns an id and directory, persists the spec,
// and starts the study. An invalid spec returns the
// *searchseizure.ValidationError unwrapped so the HTTP layer can render
// field-level diagnostics.
func (m *Manager) Launch(spec searchseizure.StudySpec) (*Handle, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, errors.New("studysvc: manager is shut down")
	}
	m.nextID++
	id := fmt.Sprintf("s-%06d", m.nextID)
	m.mu.Unlock()
	return m.launch(id, spec.WithDefaults(), true)
}

// launch builds and starts one study under an assigned id. persist writes
// spec.json (recovery passes false: the spec came from disk).
func (m *Manager) launch(id string, spec searchseizure.StudySpec, persist bool) (*Handle, error) {
	dir := filepath.Join(m.opts.BaseDir, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("studysvc: %w", err)
	}
	if persist {
		if err := writeSpec(dir, spec); err != nil {
			return nil, fmt.Errorf("studysvc: persist spec: %w", err)
		}
	}

	cfg, err := spec.Config()
	if err != nil {
		return nil, err
	}
	// Split the shared budget. Driving knobs only: excluded from
	// ConfigHash, so checkpoints stay portable across budget changes.
	cfg.CrawlWorkers = m.workersPerStudy()
	cfg.ObserveWorkers = m.workersPerStudy()

	reg := telemetry.New()
	study, err := searchseizure.New(cfg,
		searchseizure.WithTelemetry(reg),
		searchseizure.WithCheckpoint(dir, spec.CheckpointEvery),
	)
	if err != nil {
		return nil, err
	}

	ctx, cancel := context.WithCancel(context.Background())
	h := &Handle{
		ID:     id,
		Dir:    dir,
		m:      m,
		reg:    reg,
		spec:   spec,
		state:  StatePending,
		study:  study,
		cancel: cancel,
		days:   study.World.TargetDays(),
		notify: make(chan struct{}),
		done:   make(chan struct{}),
	}

	// Gate day execution on the shared slot semaphore. The hooks run with
	// the world quiescent (between days), so the progress mirrors they
	// update are the only world state the API ever reads mid-run.
	w := study.World
	w.OnDayStart = func(simclock.Day) {
		select {
		case m.sem <- struct{}{}:
			h.mu.Lock()
			h.slot = true
			h.mu.Unlock()
		case <-ctx.Done():
			// Cancelled while queued: run this one day without a slot
			// (correctness is untouched; the run stops at the boundary).
		}
	}
	w.OnDayEnd = func(d simclock.Day) {
		h.mu.Lock()
		if h.slot {
			h.slot = false
			<-m.sem
		}
		h.nextDay = int(d) + 1
		h.dayFP = uint64(w.Data.DayFingerprint())
		fp := h.dayFP
		h.mu.Unlock()
		h.appendEvent(Event{
			Type: EventDay, Day: int(d), Days: h.days,
			Fingerprint: fmt.Sprintf("%#x", fp),
		})
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		cancel()
		return nil, errors.New("studysvc: manager is shut down")
	}
	m.studies[id] = h
	m.order = append(m.order, id)
	m.wg.Add(1)
	m.mu.Unlock()

	h.appendEvent(Event{Type: EventLaunched, Days: h.days})
	m.logf("studysvc: %s launched (seed=%d faults=%s days=%d)", id, spec.Seed, spec.Faults, h.days)
	go h.run(ctx)
	return h, nil
}

// run drives one study to a terminal state.
func (h *Handle) run(ctx context.Context) {
	defer h.m.wg.Done()
	defer close(h.done)
	defer h.cancel()

	s := h.study
	// Recover before declaring the study running: hooks are already
	// installed, so attachCheckpoints chains them ahead of snapshot saves.
	if err := s.Recover(); err != nil {
		h.m.logf("studysvc: %s recovery failed: %v", h.ID, err)
		h.setState(StateFailed, err)
		return
	}
	if from := s.World.NextDay(); from > 0 {
		h.mu.Lock()
		h.nextDay = from
		h.dayFP = uint64(s.World.Data.DayFingerprint())
		h.mu.Unlock()
		h.appendEvent(Event{Type: EventRecovered, Day: from, Days: h.days})
		h.m.logf("studysvc: %s resumed from day %d/%d", h.ID, from, h.days)
	}
	// pending → running, unless a cancel already raced in.
	h.mu.Lock()
	if h.state == StatePending {
		h.state = StateRunning
		h.mu.Unlock()
		h.appendEvent(Event{Type: EventState, State: StateRunning})
	} else {
		h.mu.Unlock()
	}

	data, err := s.RunContext(ctx)
	switch {
	case err == nil:
		h.mu.Lock()
		h.fullFP = uint64(data.Fingerprint())
		h.mu.Unlock()
		h.setState(StateComplete, nil)
		h.m.logf("studysvc: %s complete (%d days, fingerprint %#x)",
			h.ID, data.DaysRun, uint64(data.Fingerprint()))
	case errors.Is(err, context.Canceled):
		// Graceful cancel: the run stopped at a day boundary; persist a
		// final checkpoint so the next boot resumes exactly here.
		if cerr := s.Checkpoint(); cerr != nil {
			h.m.logf("studysvc: %s final checkpoint failed: %v", h.ID, cerr)
		}
		h.setState(StateCancelled, nil)
		h.m.logf("studysvc: %s cancelled after day %d/%d", h.ID, data.DaysRun, h.days)
	default:
		h.setState(StateFailed, err)
		h.m.logf("studysvc: %s failed: %v", h.ID, err)
	}
}

// Get returns a study by id.
func (m *Manager) Get(id string) (*Handle, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.studies[id]
	return h, ok
}

// List returns every study in launch order.
func (m *Manager) List() []*Handle {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Handle, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.studies[id])
	}
	return out
}

// Cancel requests a graceful stop at the next day boundary. Idempotent;
// cancelling an already-terminal study is a no-op.
func (m *Manager) Cancel(id string) (*Handle, bool) {
	h, ok := m.Get(id)
	if !ok {
		return nil, false
	}
	h.mu.Lock()
	already := terminal(h.state)
	if !already && h.state != StateCancelling {
		h.state = StateCancelling
	}
	h.mu.Unlock()
	if !already {
		h.appendEvent(Event{Type: EventState, State: StateCancelling})
		h.cancel()
	}
	return h, true
}

// RecoverAll scans BaseDir for studies a previous process persisted and
// relaunches each from its spec.json; checkpoint auto-recovery then
// resumes every study from its newest good snapshot. Returns the recovered
// handles. Directories without a readable spec are skipped (logged), never
// fatal: one corrupt tenant must not block the fleet.
func (m *Manager) RecoverAll() ([]*Handle, error) {
	entries, err := os.ReadDir(m.opts.BaseDir)
	if err != nil {
		return nil, fmt.Errorf("studysvc: %w", err)
	}
	var ids []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "s-") {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	var out []*Handle
	for _, id := range ids {
		raw, err := os.ReadFile(filepath.Join(m.opts.BaseDir, id, specFile))
		if err != nil {
			m.logf("studysvc: skip %s: %v", id, err)
			continue
		}
		var spec searchseizure.StudySpec
		if err := json.Unmarshal(raw, &spec); err != nil {
			m.logf("studysvc: skip %s: bad spec.json: %v", id, err)
			continue
		}
		var n int
		if _, err := fmt.Sscanf(id, "s-%06d", &n); err == nil {
			m.mu.Lock()
			if n > m.nextID {
				m.nextID = n
			}
			m.mu.Unlock()
		}
		h, err := m.launch(id, spec, false)
		if err != nil {
			m.logf("studysvc: recover %s: %v", id, err)
			continue
		}
		out = append(out, h)
	}
	return out, nil
}

// Shutdown cancels every study and waits (bounded by ctx) for each to stop
// at its day boundary and write its final checkpoint.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	m.closed = true
	ids := append([]string(nil), m.order...)
	m.mu.Unlock()
	for _, id := range ids {
		m.Cancel(id)
	}
	done := make(chan struct{})
	go func() { m.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("studysvc: shutdown: %w", ctx.Err())
	}
}
