package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// hostInfo fingerprints the machine and build a result came from. Two
// records are comparable only when their hosts match.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
	Seed       int64  `json:"seed"`
}

// sameMachine reports whether two hosts can be compared: the same
// processor, CPU count and Go toolchain. Commit and source differ between
// a parent and its change by design.
func (h hostInfo) sameMachine(o hostInfo) bool {
	return h.CPU == o.CPU && h.NProc == o.NProc && h.GOMAXPROCS == o.GOMAXPROCS && h.GoVersion == o.GoVersion
}

// cpuModel returns the processor's model name from /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func hostFingerprint(seed int64) hostInfo {
	h := hostInfo{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Source:     sourceHash(),
		Seed:       seed,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// sourceHash hashes every Go source and module file under the working
// directory, which run.sh makes the repository root. It identifies the
// benchmarked code when the build carries no version-control data.
func sourceHash() string {
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only weakens the fingerprint
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || strings.HasSuffix(path, ".s") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// streamInfo fingerprints one rank's stream.
type streamInfo struct {
	Name   string `json:"name"`
	Events int    `json:"events"`
	SHA256 string `json:"sha256"`
}

// inputInfo fingerprints a workload's inputs: every rank's stream, with
// its event count and a hash of its events.
type inputInfo struct {
	Events  int64        `json:"events"`
	SHA256  string       `json:"sha256"`
	Streams []streamInfo `json:"streams"`
}

func inputFingerprint(ss []stream) inputInfo {
	var info inputInfo
	all := sha256.New()
	for _, s := range ss {
		h := sha256.New()
		for _, name := range s.names {
			h.Write([]byte(name))
			h.Write([]byte{'\n'})
		}
		si := streamInfo{
			Name:   fmt.Sprintf("%s.small/%d", app, s.tid),
			Events: len(s.names),
			SHA256: hex.EncodeToString(h.Sum(nil))[:16],
		}
		fmt.Fprintf(all, "%s %d %s\n", si.Name, si.Events, si.SHA256)
		info.Streams = append(info.Streams, si)
		info.Events += int64(len(s.names))
	}
	info.SHA256 = hex.EncodeToString(all.Sum(nil))[:16]
	return info
}

func (in inputInfo) summary() string {
	return fmt.Sprintf("%d rank streams, %d events per replay, sha256 %s", len(in.Streams), in.Events, in.SHA256)
}
