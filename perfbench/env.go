package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// printEnv prints the environment header: the revision of the code under
// test, the Go toolchain and scheduler width, and where the WAL lives.
func printEnv(name string, seed int64, ops int, trace bool) {
	walFS := "none"
	if name == "svc-tcp-wal" {
		walFS = "memory (in-process wal.FS)"
	}
	fmt.Printf("# perfbench workload=%s seed=%d ops=%d trace=%v\n", name, seed, ops, trace)
	fmt.Printf("# env revision=%s go=%s gomaxprocs=%d nproc=%d walfs=%q\n",
		revision(), runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), walFS)
}

// revision identifies the code under test by a hash of every Go source and
// module file of the repository: a checkout need not be a git repository,
// and the hash also tells apart uncommitted changes.
func revision() string {
	root := repoRoot()
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00", rel)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "src:" + hex.EncodeToString(h.Sum(nil))[:12]
}

// repoRoot is the directory holding the repository's go.mod: the working
// directory when the benchmark is started from the checkout root, or its
// parent when started from the benchmark's own directory.
func repoRoot() string {
	for _, dir := range []string{".", ".."} {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(b), "module chc\n") {
			return dir
		}
	}
	return "."
}
