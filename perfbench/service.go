package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	searchseizure "repro"
	"repro/internal/brands"
	"repro/internal/faults"
	"repro/internal/simweb"
	"repro/internal/studysvc"
)

// userAgent is sent on every web read; the fault layer keys its coins on
// it, so the predictions in readMix use it too.
const userAgent = "perfbench"

// readReq is one request of the closed-loop read mix.
type readReq struct {
	route string // get, experiment, web
	expID string
	url   string
	fault string // web: the fault the plan injects, "" for none
}

// Web faults the plan can inject into a read, as the client sees them.
const (
	faultDrop     = "drop"     // dead domain or timeout: connection dropped
	fault502      = "502"      // 502 carrying the "(injected)" marker
	faultTruncate = "truncate" // body cut short of its Content-Length
)

// readResult is how one read ended.
type readResult struct {
	ms    float64
	class string // reply class: 2xx, 3xx, 4xx, 5xx, or "injected <fault>"
	err   string // empty when the read succeeded or carried its injected fault
}

// prepareService builds the spec's world once, outside the timed repeats,
// for its fault plan. The socket fault handler keys every decision exactly
// as the plan does in process, so the plan says which web reads must come
// back faulted; only those count as absorbed faults.
func (b *bench) prepareService() {
	st, err := searchseizure.NewFromSpec(b.w.Spec)
	if b.checks.check(err == nil, fmt.Sprintf("fault plan build: %v", err)) {
		b.plan = st.World.Faults
	}
}

// expectWeb is the fault the plan injects into a read of host's front
// page, "" for none.
func (b *bench) expectWeb(host string) string {
	resp := b.plan.Apply(simweb.Request{URL: "http://" + host + "/", UserAgent: userAgent},
		func(simweb.Request) simweb.Response { return simweb.Response{Status: http.StatusOK, Body: "-"} })
	switch {
	case errors.Is(resp.Err, faults.ErrDNS) || errors.Is(resp.Err, faults.ErrTimeout):
		return faultDrop
	case resp.Status == http.StatusBadGateway:
		return fault502
	case resp.Truncated:
		return faultTruncate
	}
	return ""
}

// serviceRepeat drives one study through the /v1 API on a fresh Manager:
// launch, follow the NDJSON event stream to completion, then a closed loop
// of reads from b.w.Clients clients.
func (b *bench) serviceRepeat(traced bool) *sample {
	s := &sample{routeMS: map[string][]float64{}, expMS: map[string]float64{}}
	reg := registry(traced)
	dir, err := os.MkdirTemp(b.out, "svc-")
	if !b.checks.check(err == nil, fmt.Sprintf("service dir: %v", err)) {
		return s
	}
	defer os.RemoveAll(dir)
	mgr, err := studysvc.NewManager(studysvc.Options{BaseDir: dir, Budget: b.w.Budget, Telemetry: reg})
	if !b.checks.check(err == nil, fmt.Sprintf("manager: %v", err)) {
		return s
	}
	srv := httptest.NewServer(mgr.Handler())
	defer srv.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		b.checks.check(mgr.Shutdown(ctx) == nil, "manager shutdown timed out")
	}()
	client := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: b.w.Clients, MaxIdleConnsPerHost: b.w.Clients},
		// Simulated pages redirect to simulated hosts; never follow them.
		CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
		Timeout:       2 * time.Minute,
	}
	defer client.CloseIdleConnections()
	api := srv.URL + "/v1/studies"
	root := b.cur.begin("repeat", 0)
	defer root.end()

	spec, err := json.Marshal(b.w.Spec)
	if !b.checks.check(err == nil, fmt.Sprintf("encode spec: %v", err)) {
		return s
	}
	var st studysvc.Status
	c0 := readCPUClock()
	sp := b.cur.begin("http.launch", root.id)
	code, err := do(client, http.MethodPost, api, spec, &st)
	launch := sp.end()
	if !b.checks.check(err == nil && code == http.StatusCreated && st.ID != "",
		fmt.Sprintf("launch: status %d: %v", code, err)) {
		return s
	}
	// The Manager builds the world inside the POST, so the launch round
	// trip is both setup_s and core.new_world_ms here.
	s.setups = append(s.setups, launch.Seconds())
	s.setupNet = append(s.setupNet, launch.Seconds()*unstolen(c0, readCPUClock()))
	s.routeMS["launch"] = []float64{ms(launch)}
	h, _ := mgr.Get(st.ID)
	var stages *stageLog
	if traced {
		// Installed after the launch returns, so day 0 may be partly
		// missed; the straggler ratio skips days with missing verticals.
		stages = watchStages(h.Telemetry())
	}

	r0 := readRuntime()
	seg := b.cur.begin("segment", root.id)
	end := b.follow(client, api+"/"+st.ID+"/events", s, seg)
	seg.end()
	s.runWall = end.Sub(seg.start).Seconds()
	s.loopWall = s.runWall
	s.runEnded(r0)

	code, err = do(client, http.MethodGet, api+"/"+st.ID, nil, &st)
	b.checks.check(err == nil && code == http.StatusOK && st.State == studysvc.StateComplete && st.Fingerprint != "",
		fmt.Sprintf("final status: %d %s: %v", code, st.State, err))
	var doms struct {
		Domains []string `json:"domains"`
	}
	sp = b.cur.begin("http.domains", root.id)
	code, err = do(client, http.MethodGet, api+"/"+st.ID+"/domains", nil, &doms)
	s.routeMS["domains"] = []float64{ms(sp.end())}
	if !b.checks.check(err == nil && code == http.StatusOK && len(doms.Domains) > 0,
		fmt.Sprintf("domains: %d: %v", code, err)) {
		return s
	}

	reqs := b.readMix(api+"/"+st.ID, doms.Domains)
	results := make([]readResult, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	reads := b.cur.begin("reads", root.id)
	for c := 0; c < b.w.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				results[i] = b.read(client, reqs[i], reads.id)
			}
		}()
	}
	wg.Wait()
	s.readWallS = reads.end().Seconds()

	perExp := map[string][]float64{}
	web200 := 0
	for i, r := range results {
		s.reads = append(s.reads, r.ms)
		s.routeMS[reqs[i].route] = append(s.routeMS[reqs[i].route], r.ms)
		if reqs[i].expID != "" {
			perExp[reqs[i].expID] = append(perExp[reqs[i].expID], r.ms)
		}
		if reqs[i].route == "web" {
			b.webClasses[r.class]++
			if r.class == "2xx" {
				web200++
			}
		}
		if strings.HasPrefix(r.class, "injected") {
			b.checks.injected++
		}
		b.checks.check(r.err == "", reqs[i].url+": "+r.err)
	}
	// Reads that all came back as redirects or faults would leave htmlgen
	// idle; the web route is only exercised if pages render.
	b.checks.check(web200 > 0, "no web read returned 200")
	for _, id := range searchseizure.ExperimentIDs() {
		b.checks.check(len(perExp[id]) > 0, "read mix never requested experiment "+id)
		s.expMS[id] = median(perExp[id])
	}
	if traced {
		s.snap = h.Telemetry().Snapshot()
		s.svcSnap = reg.Snapshot()
		s.vertMS, s.straggler = stages.fanOut(len(brands.All()))
		s.ckptBytes = checkpointBytes(h.Dir)
	}
	return s
}

// follow reads the NDJSON event stream until the study is terminal,
// timing each day event's arrival from seg's start, and returns when the
// study completed.
func (b *bench) follow(client *http.Client, url string, s *sample, seg timing) time.Time {
	end := time.Now()
	resp, err := client.Get(url)
	if !b.checks.check(err == nil && resp.StatusCode == http.StatusOK, fmt.Sprintf("events: %v", err)) {
		if err == nil {
			resp.Body.Close()
		}
		return end
	}
	defer resp.Body.Close()
	var fps []string
	state := ""
	last := seg.start
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		now := time.Now()
		var e studysvc.Event
		if !b.checks.check(json.Unmarshal(sc.Bytes(), &e) == nil, "undecodable event: "+sc.Text()) {
			continue
		}
		switch e.Type {
		case studysvc.EventDay:
			b.checks.check(e.Day == s.days, fmt.Sprintf("day event %d arrived after %d days", e.Day, s.days))
			s.intervals = append(s.intervals, ms(now.Sub(last)))
			b.cur.add("day", seg.id, last, now)
			last = now
			s.days++
			s.peakHeapB = max(s.peakHeapB, heapBytes())
			fps = append(fps, e.Fingerprint)
		case studysvc.EventState:
			state = e.State
			end = now
		}
	}
	b.checks.check(sc.Err() == nil, fmt.Sprintf("event stream: %v", sc.Err()))
	b.checks.check(state == studysvc.StateComplete, "study ended "+state)
	b.checks.check(s.days == b.w.Spec.Days, fmt.Sprintf("ran %d of %d days", s.days, b.w.Spec.Days))
	if b.dayFPs == nil {
		b.dayFPs = fps
	}
	b.checks.check(slices.Equal(fps, b.dayFPs), "day fingerprints differ from the first repeat's")
	return end
}

// readMix lays out the fixed-count read sequence: routes cycle through
// read_mix, experiments through every id, web pages over domains drawn
// from the seed, each with the fault the plan injects into it.
func (b *bench) readMix(base string, domains []string) []readReq {
	r := rand.New(rand.NewPCG(uint64(b.seed), 0x5eed))
	pool := make([]string, min(b.w.WebDomains, len(domains)))
	for i := range pool {
		pool[i] = domains[r.IntN(len(domains))]
	}
	ids := searchseizure.ExperimentIDs()
	reqs := make([]readReq, b.w.Reads)
	exp := 0
	for i := range reqs {
		q := readReq{route: b.w.ReadMix[i%len(b.w.ReadMix)]}
		switch q.route {
		case "get":
			q.url = base
		case "experiment":
			q.expID = ids[exp%len(ids)]
			exp++
			q.url = base + "/experiments/" + q.expID
		case "web":
			host := pool[r.IntN(len(pool))]
			q.url = fmt.Sprintf("%s/web/?simhost=%s&u=/", base, host)
			q.fault = b.expectWeb(host)
		}
		reqs[i] = q
	}
	return reqs
}

// read performs one request of the mix and classifies it. Only the web
// route is fault-injected, and a web read may end faulted only the way
// the plan predicted for it; every other transport error, 5xx or 4xx is a
// failure.
func (b *bench) read(client *http.Client, q readReq, parent int) readResult {
	req, err := http.NewRequest(http.MethodGet, q.url, nil)
	if err != nil {
		return readResult{class: "bad request", err: err.Error()}
	}
	req.Header.Set("User-Agent", userAgent)
	t := time.Now()
	resp, err := client.Do(req)
	var body []byte
	status, sent := 0, err == nil
	if sent {
		status = resp.StatusCode
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	now := time.Now()
	b.cur.add("http."+q.route, parent, t, now)
	res := readResult{ms: ms(now.Sub(t)), class: fmt.Sprintf("%dxx", status/100)}
	injected := func(ok bool) {
		if ok {
			res.class = "injected " + q.fault
		} else {
			res.err = fmt.Sprintf("expected an injected %s, got status %d: %v", q.fault, status, err)
		}
	}
	switch {
	case q.fault == faultDrop:
		injected(!sent)
	case q.fault == fault502:
		injected(err == nil && status == http.StatusBadGateway && bytes.Contains(body, []byte("(injected)")))
	case q.fault == faultTruncate:
		injected(sent && err != nil)
	case err != nil:
		res.class = "transport error"
		res.err = err.Error()
	case status >= 500:
		res.err = fmt.Sprintf("non-injected %d", status)
	case q.route == "web" && status/100 == 3:
	case status != http.StatusOK:
		res.err = fmt.Sprintf("unexpected status %d", status)
	case q.expID != "":
		var tbl struct {
			Text string `json:"text"`
		}
		if json.Unmarshal(body, &tbl) != nil || tbl.Text == "" {
			res.err = "empty experiment table"
		}
	}
	return res
}

// printWebClasses reports how the web reads ended, by reply class.
func (b *bench) printWebClasses() {
	if len(b.webClasses) == 0 {
		return
	}
	fmt.Print("web replies:")
	for _, k := range sortedKeys(b.webClasses) {
		fmt.Printf(" %s=%d", k, b.webClasses[k])
	}
	fmt.Println()
}

// do sends one API request and decodes a JSON reply into out.
func do(client *http.Client, method, url string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}
