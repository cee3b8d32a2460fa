package core

import (
	"strings"
	"testing"

	"repro/internal/simclock"
	"repro/internal/simweb"
)

func TestAttributeCachesAndMatchesTruth(t *testing.T) {
	d := small(t)
	w := d.World()
	// Attribute every named campaign's first store domain; most must match
	// ground truth (classifier accuracy), and results must be cached.
	var right, wrong, unknown int
	for _, dep := range w.Deps {
		if dep.Spec.IsTail() {
			continue
		}
		dom := dep.Stores[0].Domains[0]
		got := w.Attribute(dom, 0)
		switch got {
		case dep.Spec.Name:
			right++
		case "":
			unknown++
		default:
			wrong++
		}
		if again := w.Attribute(dom, 100); again != got {
			t.Fatalf("attribution for %s not cached: %q then %q", dom, got, again)
		}
	}
	if right <= wrong {
		t.Fatalf("attribution right=%d wrong=%d unknown=%d", right, wrong, unknown)
	}
}

func TestAttributeTailMostlyUnknown(t *testing.T) {
	d := small(t)
	w := d.World()
	var named, unknown int
	for _, dep := range w.Deps {
		if !dep.Spec.IsTail() {
			continue
		}
		for _, sd := range dep.Stores {
			if w.Attribute(sd.Domains[0], 0) == "" {
				unknown++
			} else {
				named++
			}
		}
	}
	if unknown == 0 {
		t.Fatal("no tail store left unattributed")
	}
	if named > unknown {
		t.Fatalf("tail misattribution dominates: named=%d unknown=%d", named, unknown)
	}
}

func TestAttributeDeadDomainUnknown(t *testing.T) {
	d := small(t)
	w := d.World()
	if got := w.Attribute("no-such-store.example", 0); got != "" {
		t.Fatalf("dead domain attributed to %q", got)
	}
}

func TestDoorwayTargetsBelongToSameCampaign(t *testing.T) {
	d := small(t)
	w := d.World()
	for _, dep := range w.Deps {
		for _, dw := range dep.Doorways {
			st, ok := w.DoorwayTarget(dw.ID)
			if !ok || st == nil {
				t.Fatalf("doorway %s has no target", dw.ID)
			}
			if st.Dep.Campaign.Key() != dep.Spec.Key() {
				t.Fatalf("doorway %s forwards to foreign campaign %s",
					dw.ID, st.Dep.Campaign.Name)
			}
		}
	}
}

func TestPurchaseTargetsCoverFigureCampaigns(t *testing.T) {
	d := small(t)
	w := d.World()
	targets := w.purchaseTargets()
	byCampaign := map[string]int{}
	for _, tgt := range targets {
		byCampaign[tgt.CampaignKey]++
	}
	for _, key := range []string{"key", "moonkis", "vera", "php?p="} {
		if byCampaign[key] == 0 {
			t.Fatalf("figure-4 campaign %s unsampled", key)
		}
	}
	if byCampaign["php?p="] < 4 {
		t.Fatalf("php?p= needs its four scripted stores sampled, got %d", byCampaign["php?p="])
	}
	for key := range byCampaign {
		if strings.HasPrefix(key, "tail.") {
			t.Fatal("tail campaigns must not be purchase targets")
		}
	}
}

func TestSupplierSiteMounted(t *testing.T) {
	d := small(t)
	w := d.World()
	resp := w.Web.Fetch(simweb.Request{
		URL: "http://" + SupplierDomain + "/", UserAgent: simweb.BrowserUA})
	if resp.Status != 200 || !strings.Contains(resp.Body, "data-min") {
		t.Fatalf("supplier site not serving: %d", resp.Status)
	}
}

func TestPaymentInterventionConfig(t *testing.T) {
	cfg := TestConfig()
	cfg.TermsPerVertical = 3
	cfg.SlotsPerTerm = 15
	cfg.ExtendedTail = false
	cfg.BreakBank = "realypay"
	cfg.BreakBankDay = 50
	w := NewWorld(cfg)
	var affected int
	for _, st := range w.Stores {
		if st.Processor.Name == "realypay" {
			affected++
			if !st.PaymentHalted(simclock.Day(60)) {
				t.Fatal("realypay store must be halted after the break day")
			}
			if st.PaymentHalted(simclock.Day(10)) {
				t.Fatal("realypay store must work before the break day")
			}
		} else if st.PaymentHalted(simclock.Day(60)) {
			t.Fatal("other banks' stores must be unaffected")
		}
	}
	if affected == 0 {
		t.Fatal("no store uses the broken bank")
	}
}

func TestWatchedStoresArmed(t *testing.T) {
	d := small(t)
	if len(d.WatchedPSRs) < 5 {
		t.Fatalf("watched stores = %d, want coco + 4 php?p=", len(d.WatchedPSRs))
	}
	w := d.World()
	for id := range d.WatchedPSRs {
		st, ok := w.StoreByID(id)
		if !ok {
			t.Fatalf("watched store %s unknown", id)
		}
		if !st.AWStatsPublic {
			t.Fatalf("case-study store %s must expose AWStats", id)
		}
	}
}

// TestSeizedDomainsNeverCached: the crawler's verdict cache is keyed by
// the SERP domains it checks, doorways and benign sites. DeployAll draws
// store and doorway domains from one namespace without reuse, so no store
// domain, seized or not, is ever a cache key, and a seizure has no cached
// verdict to drop.
func TestSeizedDomainsNeverCached(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	w := NewWorld(smallConfig())
	data := w.Run()
	if len(data.Seizures) == 0 {
		t.Fatal("the run seized no domain")
	}
	entries := w.Crawler.ExportCache().Entries
	if len(entries) == 0 {
		t.Fatal("the run cached no verdict")
	}
	cached := make(map[string]bool, len(entries))
	for _, e := range entries {
		cached[e.Domain] = true
	}
	for _, s := range data.Seizures {
		if cached[s.Domain] {
			t.Errorf("seized domain %s (day %d) is a verdict-cache key", s.Domain, s.Day)
		}
	}
	for _, st := range w.Stores {
		for _, dom := range st.Dep.Domains {
			if cached[dom] {
				t.Errorf("store %s domain %s is a verdict-cache key", st.ID(), dom)
			}
		}
	}
}

// TestSeizureNoticeSharedPerCase: every seized domain of a court case is
// served by one notice site, so the notice is rendered once per case, both
// in the run that seized it and in a world restored from its snapshot.
func TestSeizureNoticeSharedPerCase(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := smallConfig()
	w := NewWorld(cfg)
	w.Run()
	restored := NewWorld(cfg)
	if err := restored.RestoreSnapshot(w.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for name, w := range map[string]*World{"run": w, "restored": restored} {
		shared := 0
		for _, c := range w.Seizure.Cases() {
			var first *simweb.SeizureNoticeSite
			for i := 0; i < len(c.ObservedStoreIDs) && i < len(c.Domains); i++ {
				site, _ := w.Web.Lookup(c.Domains[i])
				notice, ok := site.(*simweb.SeizureNoticeSite)
				switch {
				case !ok || notice.CaseID != c.ID:
					t.Fatalf("%s: seized domain %s is not served by case %s's notice", name, c.Domains[i], c.ID)
				case first == nil:
					first = notice
				case notice != first:
					t.Fatalf("%s: case %s serves domain %s from a second notice site", name, c.ID, c.Domains[i])
				default:
					shared++
				}
			}
		}
		if shared == 0 {
			t.Fatalf("%s: no case seized two observed domains", name)
		}
	}
}
