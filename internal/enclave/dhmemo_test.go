package enclave

import (
	"testing"

	"repro/internal/tcb"
)

// TestDHMemo: the memo answers only for the seed it was built from, and
// only once; any other seed, and the same seed a second time, are built
// afresh. Every answer is the seed's own key pair.
func TestDHMemo(t *testing.T) {
	a, b := [tcb.SeedSize]byte{1}, [tcb.SeedSize]byte{1, 2}
	public := func(seed [tcb.SeedSize]byte) tcb.DHPublic {
		kp, err := tcb.NewDHKeyPairFromSeed(seed)
		if err != nil {
			t.Fatal(err)
		}
		return kp.Public()
	}
	want := map[[tcb.SeedSize]byte]tcb.DHPublic{a: public(a), b: public(b)}

	builds := 0
	tcb.DHHook = func(op tcb.DHOp) {
		if op == tcb.DHKeyPairBuilt {
			builds++
		}
	}
	t.Cleanup(func() { tcb.DHHook = nil })
	var m dhMemo
	kp, err := m.build(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		name   string
		seed   [tcb.SeedSize]byte
		hit    bool
		builds int
	}{
		{"a seed differing in one byte", b, false, 2},
		{"the seed it was built from", a, true, 2},
		{"the same seed again", a, false, 3},
	} {
		got, err := m.take(step.seed)
		if err != nil {
			t.Fatal(err)
		}
		if (got == kp) != step.hit || builds != step.builds {
			t.Fatalf("%s: memo hit %v after %d builds, want hit %v after %d", step.name, got == kp, builds, step.hit, step.builds)
		}
		if got.Public() != want[step.seed] {
			t.Fatalf("%s: the key pair returned is not the seed's", step.name)
		}
	}
}
