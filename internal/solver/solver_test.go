package solver_test

import (
	"sort"
	"strings"
	"testing"

	"kanon"
	"kanon/internal/solver"
)

// mustPanic runs fn and fails unless it panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

func noop(solver.Request) (*solver.Result, error) { return &solver.Result{}, nil }

func TestRegisterRejectsProgrammerErrors(t *testing.T) {
	mustPanic(t, "empty name", func() { solver.Register(solver.Info{Run: noop}) })
	mustPanic(t, "nil Run", func() { solver.Register(solver.Info{Name: "test-nil-run"}) })
	if _, ok := solver.Lookup("test-nil-run"); ok {
		t.Error("a rejected registration is visible")
	}

	solver.Register(solver.Info{Name: "test-dup", Run: noop, Description: "first"})
	mustPanic(t, "duplicate", func() { solver.Register(solver.Info{Name: "test-dup", Run: noop}) })
	if info, ok := solver.Lookup("test-dup"); !ok || info.Description != "first" {
		t.Errorf("duplicate replaced the original: %+v %v", info, ok)
	}
	mustPanic(t, "duplicate of a family", func() { solver.Register(solver.Info{Name: "ball", Run: noop}) })
}

func TestLookup(t *testing.T) {
	if _, ok := solver.Lookup("no-such-solver"); ok {
		t.Error("Lookup found an unregistered name")
	}
	if _, ok := solver.Lookup(""); ok {
		t.Error("Lookup found the empty name")
	}
	info, ok := solver.Lookup("exact")
	if !ok || info.Name != "exact" || info.Run == nil || !info.Optimal {
		t.Errorf("Lookup(exact) = %+v %v", info, ok)
	}
}

// TestNamesCoverFacade: Names is sorted and includes every algorithm
// the public facade names, so every surface that resolves through the
// registry accepts every algorithm.
func TestNamesCoverFacade(t *testing.T) {
	names := solver.Names()
	if !sort.StringsAreSorted(names) {
		t.Errorf("Names not sorted: %v", names)
	}
	registered := map[string]bool{}
	for _, n := range names {
		registered[n] = true
	}
	families := 0
	for a := kanon.Algorithm(0); !strings.HasPrefix(a.String(), "Algorithm("); a++ {
		families++
		if !registered[a.String()] {
			t.Errorf("facade algorithm %q not registered (have %v)", a, names)
		}
	}
	if families < 9 {
		t.Errorf("facade enumerates %d algorithms, want at least 9", families)
	}
}

func TestErrUnknownListsRegistered(t *testing.T) {
	msg := solver.ErrUnknown("quantum").Error()
	if !strings.Contains(msg, `"quantum"`) {
		t.Errorf("error does not name the unknown solver: %s", msg)
	}
	for _, n := range solver.Names() {
		if !strings.Contains(msg, n) {
			t.Errorf("error omits registered solver %q: %s", n, msg)
		}
	}
}
