package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/enclave"
)

// TestRegistryConcurrentSharding hammers Add/Lookup/Remove/Len across many
// app names from many goroutines; under -race this is the regression test
// for the registry's locking.
func TestRegistryConcurrentSharding(t *testing.T) {
	reg := NewRegistry()
	const workers, names, rounds = 8, 64, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for n := 0; n < names; n++ {
					name := fmt.Sprintf("app-%d", n)
					switch (w + r + n) % 3 {
					case 0:
						reg.Add(&Deployment{App: &enclave.App{Name: name}})
					case 1:
						if d, ok := reg.Lookup(name); ok && d.App.Name != name {
							t.Errorf("lookup %q returned deployment for %q", name, d.App.Name)
						}
					case 2:
						reg.Remove(name)
					}
				}
				_ = reg.Len()
			}
		}(w)
	}
	wg.Wait()

	// Deterministic final state: everything present exactly once.
	for n := 0; n < names; n++ {
		reg.Add(&Deployment{App: &enclave.App{Name: fmt.Sprintf("app-%d", n)}})
	}
	if got := reg.Len(); got != names {
		t.Errorf("Len = %d, want %d", got, names)
	}
	for n := 0; n < names; n++ {
		if _, ok := reg.Lookup(fmt.Sprintf("app-%d", n)); !ok {
			t.Errorf("app-%d missing after concurrent phase", n)
		}
	}
}

// TestRegistryAtomicReplace is the lookup/replace race regression test:
// Add of a duplicate name must swap the whole *Deployment atomically, so
// a concurrent Lookup returns one of the two complete deployments — never
// a torn mix, never a deployment whose name disagrees with its key.
func TestRegistryAtomicReplace(t *testing.T) {
	reg := NewRegistry()
	d1 := &Deployment{App: &enclave.App{Name: "counter"}}
	d2 := &Deployment{App: &enclave.App{Name: "counter"}}
	reg.Add(d1)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				reg.Add(d2)
			} else {
				reg.Add(d1)
			}
		}
	}()
	for i := 0; i < 10000; i++ {
		d, ok := reg.Lookup("counter")
		if !ok {
			t.Fatal("deployment vanished during replace")
		}
		if d != d1 && d != d2 {
			t.Fatalf("Lookup returned a torn deployment: %p", d)
		}
	}
	close(stop)
	wg.Wait()
}

func TestRegistryRemove(t *testing.T) {
	reg := NewRegistry()
	reg.Add(&Deployment{App: &enclave.App{Name: "counter"}})
	if !reg.Remove("counter") {
		t.Error("Remove of a registered name reported false")
	}
	if _, ok := reg.Lookup("counter"); ok {
		t.Error("Lookup found a removed deployment")
	}
	if reg.Remove("counter") {
		t.Error("second Remove reported true")
	}
	if reg.Len() != 0 {
		t.Errorf("Len = %d after removal", reg.Len())
	}

	// A snapshot taken before Remove stays valid.
	d := &Deployment{App: &enclave.App{Name: "kv"}}
	reg.Add(d)
	snap, _ := reg.Lookup("kv")
	reg.Remove("kv")
	if snap != d || snap.App.Name != "kv" {
		t.Error("pre-removal snapshot was invalidated")
	}
}

func TestSessionTable(t *testing.T) {
	tbl := NewSessionTable()
	a, b := new(enclave.Runtime), new(enclave.Runtime)
	if old := tbl.Add("alpha", a); old != nil {
		t.Errorf("first Add displaced %p", old)
	}
	if old := tbl.Add("alpha", b); old != a {
		t.Errorf("replacement Add returned %p, want the displaced runtime", old)
	}
	if rt, ok := tbl.Lookup("alpha"); !ok || rt != b {
		t.Error("Lookup did not see the replacement")
	}
	tbl.Add("beta", a)
	if tbl.Len() != 2 {
		t.Errorf("Len = %d, want 2", tbl.Len())
	}
	seen := map[string]bool{}
	tbl.Range(func(name string, rt *enclave.Runtime) bool {
		seen[name] = true
		return true
	})
	if !seen["alpha"] || !seen["beta"] {
		t.Errorf("Range visited %v", seen)
	}
	if !tbl.Remove("alpha") || tbl.Remove("alpha") {
		t.Error("Remove semantics wrong")
	}
	if tbl.Len() != 1 {
		t.Errorf("Len = %d after removal, want 1", tbl.Len())
	}
}

func TestSessionTableConcurrent(t *testing.T) {
	tbl := NewSessionTable()
	const workers, names = 8, 32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rt := new(enclave.Runtime)
			for i := 0; i < 100; i++ {
				name := fmt.Sprintf("enc-%d", (w+i)%names)
				tbl.Add(name, rt)
				tbl.Lookup(name)
				tbl.Range(func(string, *enclave.Runtime) bool { return true })
				if i%5 == 0 {
					tbl.Remove(name)
				}
			}
		}(w)
	}
	wg.Wait()
}
