package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// signalHelperEnv carries the policy path to the child process that
// TestSIGTERMRightAfterReady runs stacd's main in.
const signalHelperEnv = "STACD_SIGNAL_HELPER_POLICY"

// TestSignalHelper is the child side of TestSIGTERMRightAfterReady: it
// runs stacd's main in the re-executed test binary and reports when
// main returns, which it only does after shutdown. Skipped in a normal
// test run.
func TestSignalHelper(t *testing.T) {
	policy := os.Getenv(signalHelperEnv)
	if policy == "" {
		t.Skip("child process of TestSIGTERMRightAfterReady")
	}
	os.Args = []string{"stacd", "-policy", policy, "-servers", "s1", "-listen", "127.0.0.1:0"}
	main()
	fmt.Println("main returned")
}

// A SIGTERM sent the moment stacd prints "ready" must reach its
// handler: shutdown runs, main returns and the process exits 0 instead
// of dying by the signal's default action.
func TestSIGTERMRightAfterReady(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-test.run=^TestSignalHelper$")
	cmd.Env = append(os.Environ(), signalHelperEnv+"="+writePolicy(t))
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	kill := time.AfterFunc(30*time.Second, func() { _ = cmd.Process.Kill() })
	defer kill.Stop()

	sc := bufio.NewScanner(stdout)
	ready := false
	for !ready && sc.Scan() {
		ready = sc.Text() == "ready"
	}
	if !ready {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		t.Fatal("stacd exited before printing ready")
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	var rest []string
	for sc.Scan() {
		rest = append(rest, sc.Text())
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("stacd did not exit cleanly on SIGTERM right after ready: %v (output %q)", err, rest)
	}
	if !strings.Contains(strings.Join(rest, "\n"), "main returned") {
		t.Fatalf("main did not return through shutdown; output after ready: %q", rest)
	}
}
