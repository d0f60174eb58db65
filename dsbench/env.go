package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// environment is the block every result carries: where and on what it
// ran, and how many samples stand behind its numbers.
func environment(o *options, passes, samples int) map[string]any {
	host, _ := os.Hostname() // an unknown host is reported as ""
	return map[string]any{
		"host":       host,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     gitCommit(),
		"source":     sourceDigest(),
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds.Seconds(),
		"trace":      o.trace,
		"passes":     passes,
		"op_samples": samples,
	}
}

// gitCommit reads the checked-out commit from .git in the working
// directory, or returns "unknown" outside a git checkout.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// sourceDigest is a SHA-256 over the Go sources and module files under
// the working directory, skipping hidden directories: it names the code
// measured even where no git metadata exists.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(path))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
