package vclock

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNew(t *testing.T) {
	v := New(3)
	if len(v) != 3 {
		t.Fatalf("len = %d, want 3", len(v))
	}
	for i, x := range v {
		if x != None {
			t.Errorf("v[%d] = %d, want None", i, x)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	v := VC{1, 2, 3}
	w := v.Clone()
	w[0] = 99
	if v[0] != 1 {
		t.Errorf("clone shares storage: v[0] = %d", v[0])
	}
}

func TestMerge(t *testing.T) {
	v := VC{1, 5, None}
	v.Merge(VC{3, 2, 0})
	want := VC{3, 5, 0}
	for i := range want {
		if v[i] != want[i] {
			t.Errorf("v[%d] = %d, want %d", i, v[i], want[i])
		}
	}
}

func TestMergeLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on length mismatch")
		}
	}()
	v := VC{1}
	v.Merge(VC{1, 2})
}

func TestMergeLowered(t *testing.T) {
	v := VC{1, 5, None}
	o := VC{3, 7, 0}
	v.MergeLowered(o, 1, 2)
	if want := (VC{3, 5, 0}); !slices.Equal(v, want) {
		t.Errorf("MergeLowered = %v, want %v", v, want)
	}
	if want := (VC{3, 7, 0}); !slices.Equal(o, want) {
		t.Errorf("MergeLowered changed its argument to %v", o)
	}
}

func TestString(t *testing.T) {
	v := VC{None, 0, 12}
	if got, want := v.String(), "[- 0 12]"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func randVC(r *rand.Rand, n int) VC {
	v := New(n)
	for i := range v {
		v[i] = int32(r.Intn(5) - 1)
	}
	return v
}

// Property: Merge computes a least upper bound — both inputs are ≤ the
// result, and the result is ≤ any other upper bound.
func TestMergeLUBProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randVC(r, 5), randVC(r, 5)
		m := a.Clone()
		m.Merge(b)
		// Any upper bound u of a and b dominates m, component-wise.
		u := a.Clone()
		u.Merge(b)
		for i := range u {
			u[i] += int32(r.Intn(3))
		}
		for i := range m {
			if a[i] > m[i] || b[i] > m[i] || m[i] > u[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Merge is commutative, associative, and idempotent.
func TestMergeAlgebraProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randVC(r, 4), randVC(r, 4), randVC(r, 4)

		ab := a.Clone()
		ab.Merge(b)
		ba := b.Clone()
		ba.Merge(a)
		if !slices.Equal(ab, ba) {
			return false
		}

		abc1 := ab.Clone()
		abc1.Merge(c)
		bc := b.Clone()
		bc.Merge(c)
		abc2 := a.Clone()
		abc2.Merge(bc)
		if !slices.Equal(abc1, abc2) {
			return false
		}

		aa := a.Clone()
		aa.Merge(a)
		return slices.Equal(aa, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
