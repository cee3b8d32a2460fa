package jsmini

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/htmlgen"
	"repro/internal/rng"
)

// doublingScript builds an 8 MiB string in 23 steps: far inside the step
// budget, so only the byte budget stops it.
var doublingScript = "var s='ab';" + strings.Repeat("s = s + s;", 22)

// allocatedBy returns the heap bytes fn allocates.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestByteBudgetStopsDoubling(t *testing.T) {
	var err error
	alloc := allocatedBy(func() { err = Exec(doublingScript, &Page{}) })
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("Exec = %v, want ErrBudget", err)
	}
	if alloc > 4*byteBudget {
		t.Fatalf("allocated %d bytes, want at most %d", alloc, 4*byteBudget)
	}
}

// FuzzExec runs arbitrary scripts, seeded with htmlgen's cloaking
// scripts: Exec must not panic, must return, and must stay within its
// budgets, which bound what one call allocates.
func FuzzExec(f *testing.F) {
	g := htmlgen.New(rng.New(1))
	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("door%d", i)
		f.Add(g.RedirectScript(id, "http://store.example.net/"), "http://www.google.com/search?q=x")
		f.Add(g.IframeScript(id, "http://store.example.net/"), "")
	}
	f.Add(doublingScript, "")
	f.Add(`var s = "eval(s)"; eval(s);`, "")
	f.Fuzz(func(t *testing.T, src, referrer string) {
		done := make(chan uint64, 1)
		go func() {
			done <- allocatedBy(func() {
				Exec(src, &Page{URL: "http://door.example/", Referrer: referrer})
			})
		}()
		select {
		case alloc := <-done:
			// Steps bound the fixed-size work, the byte budget the rest;
			// 64 MiB is well above what both allow.
			if alloc > 64<<20 {
				t.Fatalf("Exec allocated %d MiB", alloc>>20)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Exec did not return within 10 s")
		}
	})
}
