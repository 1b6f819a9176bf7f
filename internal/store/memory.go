package store

import (
	"io/fs"
	"path"
	"sort"
	"sync"
	"time"
)

// Memory is the in-process Backend: a directory tree held in maps, for
// a server that runs without a data directory. It honors the same
// contract as Local — whole-file atomic replacement, exclusive lock
// creation, ENOENT for a missing parent — so the store's lease and
// journal logic runs unchanged over it. Nothing survives the process.
type Memory struct {
	mu    sync.Mutex
	files map[string]memFile
	// dirs maps each directory to its children (name → is-directory).
	dirs map[string]map[string]bool
}

type memFile struct {
	data  []byte
	mtime time.Time
}

// NewMemory returns an empty in-memory backend.
func NewMemory() *Memory {
	return &Memory{
		files: make(map[string]memFile),
		dirs:  map[string]map[string]bool{".": {}},
	}
}

// Root is empty: a Memory backend has no directory on disk.
func (m *Memory) Root() string { return "" }

func memErr(op, rel string, err error) error {
	return &fs.PathError{Op: op, Path: rel, Err: err}
}

// WriteAtomic stores a private copy of data at rel; the parent
// directory must exist, as with a rename into it.
func (m *Memory) WriteAtomic(rel string, data []byte) error {
	rel = path.Clean(rel)
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.create(rel, "write"); err != nil {
		return err
	}
	m.files[rel] = memFile{data: append([]byte(nil), data...), mtime: time.Now()}
	return nil
}

// create links rel into its parent directory, refusing a missing
// parent or a directory at rel. Callers hold m.mu.
func (m *Memory) create(rel, op string) error {
	parent, ok := m.dirs[path.Dir(rel)]
	if !ok {
		return memErr(op, rel, fs.ErrNotExist)
	}
	if _, isDir := m.dirs[rel]; isDir {
		return memErr(op, rel, fs.ErrExist)
	}
	parent[path.Base(rel)] = false
	return nil
}

// ReadFile returns a copy of the content at rel.
func (m *Memory) ReadFile(rel string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[path.Clean(rel)]
	if !ok {
		return nil, memErr("open", rel, fs.ErrNotExist)
	}
	return append([]byte(nil), f.data...), nil
}

// MkdirAll creates rel and every missing parent.
func (m *Memory) MkdirAll(rel string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	var chain []string // rel and its ancestors, leaf first
	for dir := path.Clean(rel); dir != "."; dir = path.Dir(dir) {
		chain = append(chain, dir)
	}
	for i := len(chain) - 1; i >= 0; i-- {
		dir := chain[i]
		if _, ok := m.files[dir]; ok {
			return memErr("mkdir", dir, fs.ErrExist)
		}
		if _, ok := m.dirs[dir]; !ok {
			m.dirs[dir] = map[string]bool{}
			m.dirs[path.Dir(dir)][path.Base(dir)] = true
		}
	}
	return nil
}

// Remove deletes the single file rel.
func (m *Memory) Remove(rel string) error {
	rel = path.Clean(rel)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[rel]; !ok {
		return memErr("remove", rel, fs.ErrNotExist)
	}
	delete(m.files, rel)
	delete(m.dirs[path.Dir(rel)], path.Base(rel))
	return nil
}

// RemoveAll deletes rel and everything below it.
func (m *Memory) RemoveAll(rel string) error {
	rel = path.Clean(rel)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.removeTree(rel)
	if parent, ok := m.dirs[path.Dir(rel)]; ok {
		delete(parent, path.Base(rel))
	}
	return nil
}

// removeTree drops rel and, for a directory, its descendants. Callers
// hold m.mu.
func (m *Memory) removeTree(rel string) {
	delete(m.files, rel)
	children, ok := m.dirs[rel]
	if !ok {
		return
	}
	for name := range children {
		m.removeTree(path.Join(rel, name))
	}
	delete(m.dirs, rel)
}

// List returns the entries of directory rel in name order, as
// os.ReadDir does.
func (m *Memory) List(rel string) ([]Entry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	children, ok := m.dirs[path.Clean(rel)]
	if !ok {
		return nil, memErr("open", rel, fs.ErrNotExist)
	}
	out := make([]Entry, 0, len(children))
	for name, dir := range children {
		out = append(out, Entry{Name: name, Dir: dir})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// TryLock creates the empty file rel unless it already exists.
func (m *Memory) TryLock(rel string) error {
	rel = path.Clean(rel)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[rel]; ok {
		return memErr("open", rel, fs.ErrExist)
	}
	if err := m.create(rel, "open"); err != nil {
		return err
	}
	m.files[rel] = memFile{mtime: time.Now()}
	return nil
}

// Stat returns rel's size and modification time.
func (m *Memory) Stat(rel string) (int64, time.Time, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[path.Clean(rel)]
	if !ok {
		return 0, time.Time{}, memErr("stat", rel, fs.ErrNotExist)
	}
	return int64(len(f.data)), f.mtime, nil
}
