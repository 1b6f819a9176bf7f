package store

import (
	"errors"
	"io/fs"
	"testing"
	"time"
)

// testBackends is the table the backend-generic suites run over. open
// returns a fresh, empty store and a reopen func that mounts another
// handle on the same substrate — for Local, what a second process
// sharing the directory would see.
var testBackends = []struct {
	name string
	open func(t *testing.T) (*Store, func() *Store)
}{
	{"local", func(t *testing.T) (*Store, func() *Store) {
		dir := t.TempDir()
		reopen := func() *Store {
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		return reopen(), reopen
	}},
	{"memory", func(t *testing.T) (*Store, func() *Store) {
		be := NewMemory()
		reopen := func() *Store {
			s, err := OpenBackend(be)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		return reopen(), reopen
	}},
}

// forEachBackend runs fn as one subtest per backend.
func forEachBackend(t *testing.T, fn func(t *testing.T, s *Store, reopen func() *Store)) {
	for _, b := range testBackends {
		t.Run(b.name, func(t *testing.T) {
			s, reopen := b.open(t)
			fn(t, s, reopen)
		})
	}
}

// seedJobs persists a small queued job under each ID.
func seedJobs(t *testing.T, s *Store, ids ...string) {
	t.Helper()
	for _, id := range ids {
		if err := s.CreateJob(testManifest(id), []string{"a", "b"}, [][]string{{"1", "2"}, {"3", "4"}, {"5", "6"}}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBackendPrimitives pins the file-primitive contract the store's
// correctness arguments rest on, identically for every backend.
func TestBackendPrimitives(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s *Store, _ func() *Store) {
		be := s.Backend()
		if err := be.WriteAtomic("no-such/f", []byte("x")); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("write into a missing directory: %v, want ErrNotExist", err)
		}
		if err := be.MkdirAll("d/e"); err != nil {
			t.Fatal(err)
		}
		if err := be.WriteAtomic("d/f", []byte("one")); err != nil {
			t.Fatal(err)
		}
		buf := []byte("two")
		if err := be.WriteAtomic("d/f", buf); err != nil {
			t.Fatal(err)
		}
		buf[0] = 'X' // the backend holds its own copy
		got, err := be.ReadFile("d/f")
		if err != nil || string(got) != "two" {
			t.Fatalf("read %q, %v; want the last complete write", got, err)
		}
		got[0] = 'Y' // and hands out copies
		if again, _ := be.ReadFile("d/f"); string(again) != "two" {
			t.Errorf("mutating a read changed the file: %q", again)
		}
		if size, mtime, err := be.Stat("d/f"); err != nil || size != 3 || time.Since(mtime) > time.Minute {
			t.Errorf("stat: %d %v %v", size, mtime, err)
		}
		if err := be.MkdirAll("d/f"); err == nil {
			t.Error("MkdirAll over a file succeeded")
		}
		entries, err := be.List("d")
		if err != nil || len(entries) != 2 || entries[0] != (Entry{Name: "e", Dir: true}) || entries[1] != (Entry{Name: "f"}) {
			t.Errorf("list: %+v %v", entries, err)
		}
		if _, err := be.List("nope"); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("list of a missing directory: %v", err)
		}
		if _, err := be.ReadFile("d/nope"); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("read of a missing file: %v", err)
		}
		if _, _, err := be.Stat("d/nope"); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("stat of a missing file: %v", err)
		}

		// The lock primitive: exclusive while the file exists, ENOENT
		// when its directory is gone.
		if err := be.TryLock("d/lock"); err != nil {
			t.Fatal(err)
		}
		if err := be.TryLock("d/lock"); !errors.Is(err, fs.ErrExist) {
			t.Errorf("second lock: %v, want ErrExist", err)
		}
		if err := be.Remove("d/lock"); err != nil {
			t.Fatal(err)
		}
		if err := be.Remove("d/lock"); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("second unlock: %v, want ErrNotExist", err)
		}
		if err := be.TryLock("gone/lock"); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("lock in a missing directory: %v, want ErrNotExist", err)
		}

		if err := be.RemoveAll("d"); err != nil {
			t.Fatal(err)
		}
		if err := be.RemoveAll("d"); err != nil {
			t.Errorf("removing nothing: %v", err)
		}
		if err := be.RemoveAll("nope/d"); err != nil {
			t.Errorf("removing under a missing directory: %v", err)
		}
		// Removing a nested tree leaves its parent empty: nothing set
		// aside on the way survives.
		if err := be.MkdirAll("p/d/e"); err != nil {
			t.Fatal(err)
		}
		if err := be.WriteAtomic("p/d/e/f", []byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := be.RemoveAll("p/d"); err != nil {
			t.Fatal(err)
		}
		if entries, err := be.List("p"); err != nil || len(entries) != 0 {
			t.Errorf("parent after RemoveAll: %+v %v", entries, err)
		}
		if _, err := be.ReadFile("d/f"); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("file survived RemoveAll: %v", err)
		}
		if err := be.MkdirAll("d"); err != nil {
			t.Fatal(err)
		}
		if entries, err := be.List("d"); err != nil || len(entries) != 0 {
			t.Errorf("recreated directory not empty: %+v %v", entries, err)
		}
	})
}
