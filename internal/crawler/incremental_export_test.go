package crawler_test

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/brands"
	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/faults"
	"repro/internal/searchsim"
	"repro/internal/simclock"
)

// TestIncrementalExportMatchesReference runs 120 days of a faults-moderate
// study, seizures included, and checks after every day that ExportCache
// equals the full sort of the cache. A snapshot cut mid-run is restored
// onto a fresh world, whose exports must equal the full sort too and, day
// by day, the uninterrupted world's exports.
func TestIncrementalExportMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := core.TestConfig()
	cfg.TermsPerVertical = 3
	cfg.SlotsPerTerm = 20
	cfg.ExtendedTail = false
	fc, err := faults.Profile("moderate")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = fc
	cfg.MaxDays = 120

	check := func(w *core.World, when string) crawler.CrawlerState {
		t.Helper()
		got, want := w.Crawler.ExportCache(), crawler.ReferenceExportCache(w.Crawler)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: ExportCache has %d entries, the full sort %d", when, len(got.Entries), len(want.Entries))
		}
		return got
	}

	w := core.NewWorld(cfg)
	cut := w.TargetDays() / 2
	var snap *core.StudySnapshot
	exports := map[simclock.Day]crawler.CrawlerState{}
	w.OnDayEnd = func(d simclock.Day) {
		exports[d] = check(w, fmt.Sprintf("day %d", d))
		if int(d)+1 == cut {
			snap = w.Snapshot()
		}
	}
	if data := w.Run(); len(data.Seizures) == 0 {
		t.Fatal("the run seized no domain")
	}

	resumed := core.NewWorld(cfg)
	if err := resumed.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	check(resumed, "after restore")
	resumed.OnDayEnd = func(d simclock.Day) {
		if st := check(resumed, fmt.Sprintf("resumed day %d", d)); !reflect.DeepEqual(st, exports[d]) {
			t.Fatalf("resumed day %d: export differs from the uninterrupted run's", d)
		}
	}
	resumed.Run()
}

// TestRestoredOrphanVerdictExports: a snapshot may hold a verdict for a
// domain that no result slot holds, which only RestoreCache interns. The
// exports after the restore must carry it unchanged, in its sorted place.
func TestRestoredOrphanVerdictExports(t *testing.T) {
	cfg := core.TestConfig()
	cfg.TermsPerVertical = 3
	cfg.SlotsPerTerm = 20
	cfg.ExtendedTail = false
	cfg.MaxDays = 6

	w := core.NewWorld(cfg)
	var snap *core.StudySnapshot
	w.OnDayEnd = func(d simclock.Day) {
		if d == 2 {
			snap = w.Snapshot()
		}
	}
	w.Run()
	orphan := crawler.CachedVerdict{Domain: "orphan.example", Verdict: crawler.Verdict{
		Cloaked: true, Detector: "vangogh", IsStore: true, StoreDomain: "orphan-store.example", CheckedDay: 1,
	}}
	entries := snap.Crawler.Entries
	at, _ := slices.BinarySearchFunc(entries, orphan.Domain, func(e crawler.CachedVerdict, dom string) int {
		return strings.Compare(e.Domain, dom)
	})
	snap.Crawler.Entries = slices.Insert(slices.Clone(entries), at, orphan)

	resumed := core.NewWorld(cfg)
	if err := resumed.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		for _, v := range brands.All() {
			resumed.Engine.EachSlot(v, func(_, _ int, s *searchsim.Slot) {
				if s.Domain == orphan.Domain {
					t.Fatalf("%s: a slot holds %s", when, orphan.Domain)
				}
			})
		}
		got := resumed.Crawler.ExportCache()
		if !reflect.DeepEqual(got, crawler.ReferenceExportCache(resumed.Crawler)) {
			t.Fatalf("%s: ExportCache differs from the full sort", when)
		}
		i := slices.IndexFunc(got.Entries, func(e crawler.CachedVerdict) bool { return e.Domain == orphan.Domain })
		if i < 0 || !reflect.DeepEqual(got.Entries[i], orphan) {
			t.Fatalf("%s: the restored orphan verdict did not export unchanged", when)
		}
	}
	check("after restore")
	resumed.OnDayEnd = func(d simclock.Day) { check(fmt.Sprintf("resumed day %d", d)) }
	resumed.Run()
}
