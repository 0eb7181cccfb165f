package main

import (
	"io"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"chc/internal/wal"
)

// memFS is a memory-backed wal.FS: the write-ahead logs of the service
// workload live in this process, so neither the host disk's fsync latency
// nor files outside the benchmark's checkout enter the measurement. Sync is
// free, as it is on a tmpfs.
type memFS struct {
	mu    sync.Mutex
	files map[string]*memData
}

type memData struct{ b []byte }

func newMemFS() *memFS { return &memFS{files: map[string]*memData{}} }

func notExist(op, path string) error {
	return &fs.PathError{Op: op, Path: path, Err: fs.ErrNotExist}
}

func (m *memFS) Create(path string) (wal.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := &memData{}
	m.files[path] = d
	return &memFile{fs: m, d: d}, nil
}

func (m *memFS) OpenRW(path string) (wal.File, error) { return m.open("open", path, false) }

func (m *memFS) Open(path string) (wal.File, error) { return m.open("open", path, true) }

func (m *memFS) open(op, path string, readOnly bool) (wal.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.files[path]
	if !ok {
		return nil, notExist(op, path)
	}
	return &memFile{fs: m, d: d, readOnly: readOnly}, nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.files[oldpath]
	if !ok {
		return notExist("rename", oldpath)
	}
	delete(m.files, oldpath)
	m.files[newpath] = d
	return nil
}

func (m *memFS) Remove(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[path]; !ok {
		return notExist("remove", path)
	}
	delete(m.files, path)
	return nil
}

func (m *memFS) List(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var names []string
	for path := range m.files {
		if filepath.Dir(path) == filepath.Clean(dir) {
			names = append(names, filepath.Base(path))
		}
	}
	sort.Strings(names)
	return names, nil
}

func (m *memFS) Size(path string) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.files[path]
	if !ok {
		return 0, notExist("stat", path)
	}
	return int64(len(d.b)), nil
}

// memFile is an open handle with its own offset. The file system's lock
// guards the shared contents.
type memFile struct {
	fs       *memFS
	d        *memData
	off      int64
	readOnly bool
}

func (f *memFile) Write(p []byte) (int, error) {
	if f.readOnly {
		return 0, fs.ErrPermission
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	end := f.off + int64(len(p))
	if end > int64(len(f.d.b)) {
		f.d.b = append(f.d.b, make([]byte, end-int64(len(f.d.b)))...)
	}
	copy(f.d.b[f.off:], p)
	f.off = end
	return len(p), nil
}

func (f *memFile) Read(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.off >= int64(len(f.d.b)) {
		return 0, io.EOF
	}
	n := copy(p, f.d.b[f.off:])
	f.off += int64(n)
	return n, nil
}

func (f *memFile) Seek(offset int64, whence int) (int64, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	switch whence {
	case io.SeekCurrent:
		offset += f.off
	case io.SeekEnd:
		offset += int64(len(f.d.b))
	}
	if offset < 0 {
		return 0, fs.ErrInvalid
	}
	f.off = offset
	return offset, nil
}

func (f *memFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if size < int64(len(f.d.b)) {
		f.d.b = f.d.b[:size]
	} else {
		f.d.b = append(f.d.b, make([]byte, size-int64(len(f.d.b)))...)
	}
	return nil
}

func (f *memFile) Sync() error  { return nil }
func (f *memFile) Close() error { return nil }

// walKind classifies a WAL path: the live log, a rotated segment, or a
// checkpoint snapshot (written as <log>.ckpt.tmp, then renamed).
func walKind(path string) string {
	switch {
	case strings.Contains(path, ".ckpt"):
		return "snapshot"
	case strings.Contains(path, ".seg-"):
		return "segment"
	default:
		return "live"
	}
}

// timingFS wraps a wal.FS and counts what the write-ahead logs do through
// it: bytes written by file kind, write and fsync time, and fsyncs.
type timingFS struct {
	wal.FS
	mu      sync.Mutex
	bytes   map[string]int64
	writeNS time.Duration
	syncNS  time.Duration
	syncs   int64
}

func newTimingFS(inner wal.FS) *timingFS {
	return &timingFS{FS: inner, bytes: map[string]int64{}}
}

func (t *timingFS) Create(path string) (wal.File, error) {
	f, err := t.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: f, fs: t, kind: walKind(path)}, nil
}

func (t *timingFS) OpenRW(path string) (wal.File, error) {
	f, err := t.FS.OpenRW(path)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: f, fs: t, kind: walKind(path)}, nil
}

// walStats is a copy of the counters of a timingFS.
type walStats struct {
	bytes       map[string]int64
	write, sync time.Duration
	syncs       int64
}

func (t *timingFS) stats() walStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := make(map[string]int64, len(t.bytes))
	for k, v := range t.bytes {
		b[k] = v
	}
	return walStats{bytes: b, write: t.writeNS, sync: t.syncNS, syncs: t.syncs}
}

type timedFile struct {
	wal.File
	fs   *timingFS
	kind string
}

func (f *timedFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	d := time.Since(start)
	f.fs.mu.Lock()
	f.fs.bytes[f.kind] += int64(n)
	f.fs.writeNS += d
	f.fs.mu.Unlock()
	return n, err
}

func (f *timedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	d := time.Since(start)
	f.fs.mu.Lock()
	f.fs.syncNS += d
	f.fs.syncs++
	f.fs.mu.Unlock()
	return err
}
