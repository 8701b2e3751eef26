package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
)

// environment is recorded with every result, so that two result files can
// be told apart by more than their numbers.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Kernel     string `json:"kernel"`
	// DataFS is the file system type under the data directories; WALSync
	// the log's flush policy. In a sandbox fsync and reads hit the OS
	// cache, so latencies are the sandbox's and not a device's.
	DataFS  string `json:"data_fs"`
	WALSync string `json:"wal_sync"`
}

func readEnvironment(dataDir string) environment {
	e := environment{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Kernel:     "unknown",
		DataFS:     "unknown",
		WALSync:    "always",
	}
	// The driver's checkout is not a git repository; a developer's is.
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		e.Commit = string(bytes.TrimSpace(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dataDir, &st); err == nil {
		e.DataFS = fsName(int64(st.Type))
	}
	return e
}

func fsName(magic int64) string {
	switch magic {
	case 0xef53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	}
	return fmt.Sprintf("0x%x", magic)
}
