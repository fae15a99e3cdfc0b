package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"stac/internal/model"
	"stac/internal/proof"
)

// coalitionKey is the signing key stacd is started with; the traced
// run's in-process replay verifies the daemon's proofs under it.
const coalitionKey = "bench-coalition-key"

// clockTicks is the Linux USER_HZ that /proc/<pid>/stat counts CPU
// time in.
const clockTicks = 100

// buildStacd compiles ./cmd/stacd of the repository at root into dir.
func buildStacd(root, dir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(dir, "stacd"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/stacd")
	cmd.Dir = root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build stacd in %s: %w", root, err)
	}
	return bin, nil
}

// daemonArgs are stacd's flags for a workload: its defaults, plus the
// generated policy, the coalition layout and demo credentials.
func daemonArgs(policyPath string) []string {
	v := vocabulary()
	servers := make([]string, len(v.Servers))
	for i, s := range v.Servers {
		servers[i] = string(s)
	}
	args := []string{
		"-policy", policyPath,
		"-servers", strings.Join(servers, ","),
		"-listen", "127.0.0.1:0",
		"-key", coalitionKey,
		"-issue-credentials",
	}
	for _, s := range v.Servers {
		for _, r := range v.Resources {
			args = append(args, "-resource", fmt.Sprintf("%s:%s=payload of %s", s, r, r))
		}
	}
	return args
}

// daemon is one running stacd child process.
type daemon struct {
	cmd     *exec.Cmd
	stderr  bytes.Buffer
	drained chan struct{}
	// setup is the time from exec to the parsed "ready" line.
	setup time.Duration
	addrs map[model.ServerID]string
	creds map[string]proof.Credential
}

// startDaemon execs stacd and reads its addresses and credentials up to
// the "ready" line. On error the process has already been stopped.
func startDaemon(bin string, args []string) (*daemon, error) {
	d := &daemon{
		cmd:     exec.Command(bin, args...),
		drained: make(chan struct{}),
		addrs:   map[model.ServerID]string{},
		creds:   map[string]proof.Credential{},
	}
	// The daemon must not outlive the benchmark, however it ends.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d.cmd.Stderr = &d.stderr
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start stacd: %w", err)
	}
	br := bufio.NewReaderSize(stdout, 64<<10)
	var lines []string
	ready := false
	for !ready {
		line, err := br.ReadString('\n')
		if err != nil {
			break
		}
		line = strings.TrimSuffix(line, "\n")
		if ready = line == "ready"; !ready {
			lines = append(lines, line)
		}
	}
	d.setup = time.Since(start)
	go func() {
		_, _ = io.Copy(io.Discard, br)
		close(d.drained)
	}()
	if !ready {
		_ = d.stop()
		return nil, fmt.Errorf("stacd exited before ready: %s", strings.TrimSpace(d.stderr.String()))
	}
	for _, line := range lines {
		if err := d.parseLine(line); err != nil {
			_ = d.stop()
			return nil, err
		}
	}
	return d, nil
}

// parseLine reads one "<server> <addr>" or "credential <user> <json>"
// line of stacd's start-up output.
func (d *daemon) parseLine(line string) error {
	head, rest, _ := strings.Cut(line, " ")
	if head != "credential" {
		d.addrs[model.ServerID(head)] = rest
		return nil
	}
	user, blob, _ := strings.Cut(rest, " ")
	var c proof.Credential
	if err := json.Unmarshal([]byte(blob), &c); err != nil {
		return fmt.Errorf("stacd credential line for %q: %w", user, err)
	}
	d.creds[user] = c
	return nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop shuts stacd down with SIGTERM (SIGKILL after ten seconds) and
// waits for it to exit.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	kill := time.AfterFunc(10*time.Second, func() { _ = d.cmd.Process.Kill() })
	defer kill.Stop()
	<-d.drained
	err := d.cmd.Wait()
	// stacd prints "ready" before it installs its signal handler, so a
	// SIGTERM right after start-up ends it by the default action.
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
			return nil
		}
	}
	if err != nil {
		return fmt.Errorf("stacd: %w: %s", err, strings.TrimSpace(d.stderr.String()))
	}
	return nil
}

// cpuTime reads a process's user+system CPU time from /proc/<pid>/stat.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat cpu fields", pid)
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// peakRSSMB reads a process's resident-set high-water mark (VmHWM).
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("bad VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
