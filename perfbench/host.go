package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
)

// fingerprint identifies where and from what a result was measured. The
// host part (everything but Commit and Dirty) must match for two results
// to be comparable; Commit and Dirty differ by design in an A/B pair.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// WALFS is the filesystem type under the benchmark's working
	// directory, where the ingest workload's WAL lives and fsyncs.
	WALFS string `json:"wal_fs"`
	// Commit and Dirty come from the VCS stamp go build embeds; a build
	// outside a git checkout records "unknown".
	Commit string `json:"commit"`
	Dirty  bool   `json:"dirty"`
}

func hostFingerprint(walDir string) fingerprint {
	fp := fingerprint{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		WALFS:      fsType(walDir),
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				fp.Commit = s.Value
			case "vcs.modified":
				fp.Dirty = s.Value == "true"
			}
		}
	}
	return fp
}

// sameHost reports whether two fingerprints describe the same host setup,
// and if not, the first field that differs.
func sameHost(a, b fingerprint) (bool, string) {
	switch {
	case a.CPUModel != b.CPUModel:
		return false, fmt.Sprintf("cpu_model %q vs %q", a.CPUModel, b.CPUModel)
	case a.NumCPU != b.NumCPU:
		return false, fmt.Sprintf("nproc %d vs %d", a.NumCPU, b.NumCPU)
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return false, fmt.Sprintf("gomaxprocs %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS)
	case a.GoVersion != b.GoVersion:
		return false, fmt.Sprintf("go_version %s vs %s", a.GoVersion, b.GoVersion)
	case a.WALFS != b.WALFS:
		return false, fmt.Sprintf("wal_fs %s vs %s", a.WALFS, b.WALFS)
	}
	return true, ""
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// fsMagic names the statfs(2) f_type values likely under a WAL.
var fsMagic = map[int64]string{
	0xEF53:     "ext4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x01021994: "tmpfs",
	0x794C7630: "overlayfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
	0x2FC12FC1: "zfs",
	0xF2F52010: "f2fs",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// peakRSSMB is the process's peak resident set size (ru_maxrss, KiB on
// Linux) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
