package layers

import (
	"bufio"
	"bytes"
	"crypto/md5"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"os/exec"
	"syscall"
	"time"

	"repro/internal/wmslog"
)

// CLIRun is one finished run of a command-line program, measured at
// the users' entry point: the process, not the packages inside it.
type CLIRun struct {
	Wall      time.Duration // cmd.Start → cmd.Wait
	User, Sys time.Duration
	MaxRSSMB  float64
	Stdout    []byte
}

// CPU is user plus system time.
func (r CLIRun) CPU() time.Duration { return r.User + r.Sys }

// RunCLI runs bin with args and extra environment entries (KEY=VALUE)
// on top of the harness's own. A nonzero exit is an error carrying the
// program's stderr.
func RunCLI(extraEnv []string, bin string, args ...string) (CLIRun, error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), extraEnv...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return CLIRun{}, err
	}
	err := cmd.Wait()
	run := CLIRun{Wall: time.Since(start), Stdout: stdout.Bytes()}
	if err != nil {
		return run, fmt.Errorf("%s %v: %w: %s", bin, args, err, bytes.TrimSpace(stderr.Bytes()))
	}
	run.User, run.Sys = cmd.ProcessState.UserTime(), cmd.ProcessState.SystemTime()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		run.MaxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return run, nil
}

// DigestLogs hashes the daily log files of dir concatenated in name
// order and counts their entries (lines that are not '#' headers). The
// md5 is the repo's log-identity contract: equal at every shard and
// lane count for one seed.
func DigestLogs(dir string) (sum string, entries int64, err error) {
	paths, err := wmslog.FindLogs(dir)
	if err != nil {
		return "", 0, err
	}
	if len(paths) == 0 {
		return "", 0, fmt.Errorf("no log files under %s", dir)
	}
	h := md5.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return "", 0, err
		}
		sc := bufio.NewScanner(io.TeeReader(f, h))
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			if line := sc.Bytes(); len(line) > 0 && line[0] != '#' {
				entries++
			}
		}
		if err := sc.Err(); err != nil {
			f.Close()
			return "", 0, err
		}
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil)), entries, nil
}

// Digest is the md5 of a byte slice, in hex.
func Digest(b []byte) string {
	s := md5.Sum(b)
	return hex.EncodeToString(s[:])
}
