package shard

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"
)

func TestMapBasics(t *testing.T) {
	var m Map[string]
	if _, ok := m.Get("a"); ok {
		t.Fatal("empty map claims a key")
	}
	m.Set("a", "1")
	m.Set("b", "2")
	if v, ok := m.Get("a"); !ok || v != "1" {
		t.Fatalf("Get(a) = %q, %v", v, ok)
	}
	if v, ok := m.GetBytes([]byte("b")); !ok || v != "2" {
		t.Fatalf("GetBytes(b) = %q, %v", v, ok)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d", m.Len())
	}
	m.Delete("a")
	if _, ok := m.Get("a"); ok {
		t.Fatal("Delete left the key behind")
	}
	m.Clear()
	if m.Len() != 0 {
		t.Fatalf("Clear left %d entries", m.Len())
	}
}

func TestLoadOrStoreKeepsFirst(t *testing.T) {
	var m Map[int]
	if v, loaded := m.LoadOrStore("k", 1); loaded || v != 1 {
		t.Fatalf("first LoadOrStore = %d, %v", v, loaded)
	}
	if v, loaded := m.LoadOrStore("k", 2); !loaded || v != 1 {
		t.Fatalf("second LoadOrStore = %d, %v", v, loaded)
	}
}

func TestKeysSortedAcrossShards(t *testing.T) {
	var m Map[int]
	want := make([]string, 0, 500)
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("key-%03d", i)
		m.Set(k, i)
		want = append(want, k)
	}
	sort.Strings(want)
	got := m.Keys()
	if len(got) != len(want) {
		t.Fatalf("Keys returned %d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Keys[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	var m Map[int]
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				k := fmt.Sprintf("k%d", i)
				m.LoadOrStore(k, i)
				if v, ok := m.Get(k); !ok || v != i {
					t.Errorf("worker %d: Get(%s) = %d, %v", w, k, v, ok)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if m.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", m.Len())
	}
}

func TestGetBytesAllocFree(t *testing.T) {
	var m Map[string]
	m.Set("door/abc|term one|term two", "page")
	key := []byte("door/abc|term one|term two")
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := m.GetBytes(key); !ok {
			t.Fatal("key missing")
		}
	})
	if allocs != 0 {
		t.Fatalf("GetBytes allocates %v/op, want 0", allocs)
	}
}

func TestMergeSorted(t *testing.T) {
	for _, tc := range []struct {
		base, adds, want []string
	}{
		{nil, nil, []string{}},
		{nil, []string{"b", "a", "b"}, []string{"a", "b"}},
		{[]string{"b", "d"}, nil, []string{"b", "d"}},
		{[]string{"b", "d"}, []string{"e", "a", "c", "d", "c"}, []string{"a", "b", "c", "d", "e"}},
	} {
		base := slices.Clone(tc.base)
		got := MergeSorted(tc.base, slices.Clone(tc.adds))
		if !slices.Equal(got, tc.want) || got == nil {
			t.Errorf("MergeSorted(%q, %q) = %#v, want %q", tc.base, tc.adds, got, tc.want)
		}
		if !slices.Equal(tc.base, base) {
			t.Errorf("MergeSorted wrote into base %q", base)
		}
		if !StrictlySorted(got) {
			t.Errorf("MergeSorted(%q, %q) = %q is not strictly sorted", tc.base, tc.adds, got)
		}
	}
	for _, keys := range [][]string{{"a", "a"}, {"b", "a"}} {
		if StrictlySorted(keys) {
			t.Errorf("StrictlySorted(%q) = true", keys)
		}
	}
}
