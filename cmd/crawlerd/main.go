// Command crawlerd serves the study-service plane and demonstrates the
// measurement pipeline over a real network socket.
//
// Service mode (-data-dir) is the primary face: a versioned JSON API
// (/v1/studies, see internal/studysvc) runs many concurrent studies —
// each with its own seed, fault profile, checkpoint directory and
// telemetry registry — over one shared worker budget, recovers the whole
// fleet from disk on boot, and drains gracefully on SIGTERM (every study
// stops at its day boundary and writes a final checkpoint).
//
// The legacy single-study modes remain: -checkpoint runs one checkpointed
// study; the default mode builds one world, serves its web, and crawls it.
// All three modes resolve their configuration through the same validated
// searchseizure.StudySpec that POST /v1/studies accepts, so a flag
// combination the API would reject is rejected identically at the CLI.
//
// Usage:
//
//	crawlerd -data-dir /var/lib/searchseizure [-budget 8] [-max-active 2]
//	crawlerd -checkpoint DIR [-checkpoint-every 1] [-faults off]
//	crawlerd [-addr 127.0.0.1:0] [-day 30] [-max 200] [-serve-only] [-faults off]
//
// With -serve-only it just serves the web (useful for poking at doorways
// with curl: set the User-Agent and Referer headers and the ?simhost=
// query parameter to select the site). With -faults moderate|severe the
// server injects deterministic faults on the wire — dropped connections,
// 502s, truncated bodies — and the crawler runs with retries and circuit
// breakers, so the whole resilient pipeline can be exercised over real
// sockets.
//
// Telemetry is on by default (disable with -telemetry=false): the admin
// endpoints /metrics (Prometheus text), /debug/vars (JSON snapshot) and
// /debug/pprof/* (Go profiling) are served on the same listener, ahead of
// the simulated web and outside the fault-injection layer, so the live
// fetch/retry/circuit-breaker counters stay reachable even under a severe
// fault profile.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	searchseizure "repro"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/faults"
	"repro/internal/searchsim"
	"repro/internal/simclock"
	"repro/internal/simweb"
	"repro/internal/studysvc"
	"repro/internal/telemetry"

	"repro/internal/brands"
)

// requestTimeout bounds one simulated-page render; handlerFor mounts it via
// http.TimeoutHandler inside the fault layer (the fault layer needs the raw
// connection for its drop injections).
const requestTimeout = 5 * time.Second

// newServer wraps a handler in an http.Server with explicit I/O deadlines,
// so a stuck or malicious client cannot pin a connection (and a wedged
// handler cannot pin a response) forever.
func newServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      15 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
}

// handlerFor assembles the serving stack: per-request deadline innermost,
// fault injection outermost (injection decides per request whether to sever
// the raw connection, answer 502, or truncate the page).
func handlerFor(p *faults.Plan, web http.Handler) http.Handler {
	return faults.Handler(p, http.TimeoutHandler(web, requestTimeout, "simulated web: render timeout"))
}

// adminHandler mounts the observability endpoints ahead of the simulated
// web: /healthz, /readyz, /metrics, /debug/vars and /debug/pprof/* answer
// directly (and are never fault-injected — the admin plane must stay
// reachable while the data plane burns); everything else falls through to
// web. The simulated web addresses pages via the ?simhost= query parameter
// with the page path in ?u=, so reserving these URL paths shadows no
// simulated content. With telemetry off (nil reg) /metrics and /debug/vars
// serve empty documents; the pprof handlers work regardless.
//
// /healthz answers 200 whenever the process serves at all (liveness).
// /readyz gates on ready: in checkpoint mode it turns 200 only once
// crash recovery has completed, so an orchestrator never routes work to a
// replica still restoring state; a nil ready (no recovery phase) is
// always ready.
func adminHandler(reg *telemetry.Registry, ready *atomic.Bool, web http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(rw http.ResponseWriter, _ *http.Request) {
		io.WriteString(rw, "ok\n")
	})
	mux.HandleFunc("/readyz", func(rw http.ResponseWriter, _ *http.Request) {
		if ready != nil && !ready.Load() {
			http.Error(rw, "recovering", http.StatusServiceUnavailable)
			return
		}
		io.WriteString(rw, "ready\n")
	})
	mux.Handle("/metrics", reg.MetricsHandler())
	mux.Handle("/debug/vars", reg.VarsHandler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", web)
	return mux
}

// serve runs srv on ln until ctx is cancelled, then shuts down gracefully:
// the listener closes immediately but in-flight requests drain (bounded by
// drainTimeout) before serve returns.
func serve(ctx context.Context, srv *http.Server, ln net.Listener, drainTimeout time.Duration) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// runServiceMode is the study-service plane: the versioned /v1 JSON API
// over a studysvc.Manager, with the admin endpoints mounted ahead of it.
// On boot every study a previous process persisted under dataDir is
// recovered and resumed before /readyz turns 200; SIGTERM cancels the
// fleet at day boundaries, waits for final checkpoints, then drains the
// listener.
func runServiceMode(reg *telemetry.Registry, addr, dataDir string, budget, maxActive int) error {
	m, err := studysvc.NewManager(studysvc.Options{
		BaseDir:   dataDir,
		Budget:    budget,
		MaxActive: maxActive,
		Telemetry: reg,
		Logger:    log.New(os.Stdout, "", log.LstdFlags),
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	base := "http://" + ln.Addr().String()
	fmt.Printf("study service on %s\n", base)
	fmt.Printf("api: POST %s/v1/studies, GET %s/v1/studies\n", base, base)
	fmt.Printf("admin: %s/healthz, %s/readyz, %s/metrics\n", base, base, base)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var ready atomic.Bool
	srv := newServer(adminHandler(reg, &ready, m.Handler()))
	done := make(chan error, 1)
	go func() { done <- serve(ctx, srv, ln, 10*time.Second) }()

	recovered, err := m.RecoverAll()
	if err != nil {
		return err
	}
	if len(recovered) > 0 {
		fmt.Printf("recovered %d studies from %s\n", len(recovered), dataDir)
	}
	ready.Store(true)

	<-ctx.Done()
	fmt.Println("draining: cancelling studies at their day boundaries...")
	shCtx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := m.Shutdown(shCtx); err != nil {
		return err
	}
	stop()
	if err := <-done; err != nil {
		return err
	}
	fmt.Println("drained, bye")
	return nil
}

// runStudyMode runs one full longitudinal study with durable checkpoints
// while serving the admin plane (and the simulated web) on addr. On boot it
// auto-recovers from the newest good snapshot before declaring /readyz; a
// SIGTERM/SIGINT stops the run at the next day boundary and writes a final
// checkpoint, so the next boot resumes exactly where this one drained.
func runStudyMode(spec searchseizure.StudySpec, reg *telemetry.Registry, addr, dir string, every int) error {
	fmt.Println("building simulated world...")
	s, err := searchseizure.NewFromSpec(spec,
		searchseizure.WithTelemetry(reg),
		searchseizure.WithCheckpoint(dir, every),
		searchseizure.WithLogger(log.New(os.Stdout, "", log.LstdFlags)))
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	base := "http://" + ln.Addr().String()
	fmt.Printf("serving %d simulated domains on %s\n", s.World.Web.Domains(), base)
	fmt.Printf("admin: %s/healthz, %s/readyz, %s/metrics\n", base, base, base)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var ready atomic.Bool
	srv := newServer(adminHandler(reg, &ready, handlerFor(s.World.Faults, s.World.Web)))
	done := make(chan error, 1)
	go func() { done <- serve(ctx, srv, ln, 10*time.Second) }()

	if err := s.Recover(); err != nil {
		return err
	}
	ready.Store(true)

	data, runErr := s.RunContext(ctx)
	if runErr != nil {
		fmt.Printf("drained after day %d/%d; writing final checkpoint\n",
			data.DaysRun, s.World.Sim.Days())
		if err := s.Checkpoint(); err != nil {
			return err
		}
	} else {
		fmt.Printf("study complete: %d days, fingerprint %#x\n",
			data.DaysRun, uint64(data.Fingerprint()))
	}

	stop()
	if err := <-done; err != nil {
		return err
	}
	fmt.Println("drained, bye")
	return nil
}

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:0", "listen address")
		day       = flag.Int("day", 30, "simulation day to crawl")
		maxDom    = flag.Int("max", 200, "max domains to crawl")
		serveOnly = flag.Bool("serve-only", false, "serve the simulated web and wait")
		ckptDir   = flag.String("checkpoint", "", "checkpoint directory: run one full study with durable day snapshots, auto-recovering on boot")
		ckptEvery = flag.Int("checkpoint-every", 1, "days between checkpoints (with -checkpoint)")
		dataDir   = flag.String("data-dir", "", "service data directory: run the multi-tenant /v1 study API, recovering persisted studies on boot")
		budget    = flag.Int("budget", 0, "total simulation worker budget shared across studies (with -data-dir; 0 = GOMAXPROCS)")
		maxActive = flag.Int("max-active", 2, "max studies executing a day concurrently (with -data-dir)")
	)
	shared := cli.RegisterStudyFlags(flag.CommandLine, 1, true)
	flag.Parse()
	reg := shared.Registry()

	if *dataDir != "" {
		if err := runServiceMode(reg, *addr, *dataDir, *budget, *maxActive); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	// The single-study modes go through the same validated StudySpec as
	// POST /v1/studies: a flag combination the API rejects (an unknown
	// -faults profile, say) is rejected identically here, with the same
	// field-level codes.
	noTail := false
	spec := searchseizure.StudySpec{
		Preset:       "test",
		Seed:         int64(shared.Seed()),
		Faults:       shared.FaultProfileName(),
		ExtendedTail: &noTail,
	}
	if verr := spec.Validate(); verr != nil {
		fmt.Fprintln(os.Stderr, verr)
		os.Exit(2)
	}

	if *ckptDir != "" {
		if err := runStudyMode(spec, reg, *addr, *ckptDir, *ckptEvery); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	cfg, err := spec.Config()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg.Telemetry = reg
	faultCfg := cfg.Faults
	fmt.Println("building simulated world...")
	w := core.NewWorld(cfg)
	w.Engine.Advance(simclock.Day(*day))

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	base := "http://" + ln.Addr().String()
	fmt.Printf("serving %d simulated domains on %s\n", w.Web.Domains(), base)
	fmt.Printf("example: curl -H 'User-Agent: Googlebot' '%s/?simhost=<domain>&u=/'\n", base)
	if reg != nil {
		fmt.Printf("admin: %s/metrics (Prometheus), %s/debug/vars (JSON), %s/debug/pprof/\n", base, base, base)
	}
	if faultCfg.Enabled() {
		fmt.Printf("fault profile %q mounted on the wire\n", shared.FaultProfileName())
	}

	// SIGTERM/SIGINT drain the server instead of killing in-flight requests.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv := newServer(adminHandler(reg, nil, handlerFor(w.Faults, w.Web)))

	if *serveOnly {
		if err := serve(ctx, srv, ln, 10*time.Second); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println("drained, bye")
		return
	}
	done := make(chan error, 1)
	go func() { done <- serve(ctx, srv, ln, 10*time.Second) }()

	// Crawl today's SERPs over the real socket. Under fault injection the
	// HTTP fetcher is wrapped with the same retry + circuit-breaker policy
	// the in-process study pipeline uses.
	var fetch simweb.Fetcher = simweb.NewHTTPFetcher(base)
	var resilient *crawler.ResilientFetcher
	if faultCfg.Enabled() {
		resilient = crawler.NewResilientFetcher(fetch, crawler.DefaultResilience(), cfg.Seed)
		resilient.Instrument(reg)
		fetch = resilient
	}
	det := crawler.NewDetector(fetch)
	c := crawler.New(det)
	c.Instrument(reg)
	// One job per unique result domain, in vertical and slot order.
	var jobs []crawler.DomainJob
	seen := make(map[string]bool)
	for _, v := range brands.All() {
		w.Engine.EachSlot(v, func(_, _ int, s *searchsim.Slot) {
			if len(jobs) < *maxDom && !seen[s.Domain] {
				seen[s.Domain] = true
				jobs = append(jobs, crawler.DomainJob{Domain: s.Domain, Checks: []crawler.DomainCheck{{URL: s.URL}}})
			}
		})
	}
	verdicts := make([]crawler.Verdict, len(jobs))
	for i := range jobs {
		jobs[i].Checks[0].Out = &verdicts[i]
	}
	fmt.Printf("crawling %d unique result domains over HTTP...\n", len(jobs))
	c.CheckDomains(jobs, simclock.Day(*day))

	type row struct {
		domain string
		v      crawler.Verdict
	}
	var poisoned []row
	unknown := 0
	for i, v := range verdicts {
		if v.Cloaked {
			poisoned = append(poisoned, row{jobs[i].Domain, v})
		}
		if v.Unknown {
			unknown++
		}
	}
	sort.Slice(poisoned, func(i, j int) bool { return poisoned[i].domain < poisoned[j].domain })
	fmt.Printf("\n%d of %d domains are cloaking:\n", len(poisoned), len(jobs))
	for _, r := range poisoned {
		truth := "?"
		if spec, ok := w.TruthCampaign(r.v.StoreDomain); ok {
			truth = spec.Name
		}
		fmt.Printf("  %-34s %-16s store=%-30s campaign=%s\n",
			r.domain, r.v.Detector, r.v.StoreDomain, truth)
	}
	if resilient != nil {
		st := resilient.Stats()
		fmt.Printf("\n%d domains unknown (fetches failed; would be re-queued); %d attempts, %d retries, %d failed chains, %d short-circuited\n",
			unknown, st.Attempts, st.Retries, st.Failures, st.ShortCircuit)
	}

	// Drain the server before exiting.
	stop()
	if err := <-done; err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
