package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
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
	os.Args = []string{"stacd", "-policy", policy, "-servers", "s1,s2", "-listen", "127.0.0.1:0", "-issue-credentials"}
	main()
	fmt.Println("main returned")
}

// signalUsers is how many users the signal test's policy registers:
// enough credential lines to fill stdout's buffer several times over.
const signalUsers = 100

// writeManyUsersPolicy writes a policy of signalUsers users, each
// assigned one role, and returns its path.
func writeManyUsersPolicy(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	b.WriteString("role worker\npermission p-read read * @ *\ngrant worker p-read\n")
	for i := 0; i < signalUsers; i++ {
		fmt.Fprintf(&b, "user device-%d\nassign device-%d worker\n", i, i)
	}
	path := filepath.Join(t.TempDir(), "policy.stac")
	if err := os.WriteFile(path, []byte(b.String()), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// Every start-up line arrives before "ready" and nothing after it: an
// address line per server and a credential line per policy user. A
// SIGTERM sent the moment stacd prints "ready" must reach its handler:
// shutdown runs, main returns and the process exits 0 instead of dying
// by the signal's default action.
func TestSIGTERMRightAfterReady(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-test.run=^TestSignalHelper$")
	cmd.Env = append(os.Environ(), signalHelperEnv+"="+writeManyUsersPolicy(t))
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
	addrs := map[string]bool{}
	creds := map[string]bool{}
	for !ready && sc.Scan() {
		line := sc.Text()
		if ready = line == "ready"; ready {
			break
		}
		head, rest, _ := strings.Cut(line, " ")
		if head == "credential" {
			user, _, _ := strings.Cut(rest, " ")
			creds[user] = true
		} else {
			addrs[head] = true
		}
	}
	if !ready {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		t.Fatal("stacd exited before printing ready")
	}
	if len(addrs) != 2 || !addrs["s1"] || !addrs["s2"] {
		t.Errorf("address lines before ready: %v, want s1 and s2", addrs)
	}
	for i := 0; i < signalUsers; i++ {
		if u := fmt.Sprintf("device-%d", i); !creds[u] {
			t.Errorf("no credential line for %s before ready", u)
		}
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
	// What stacd prints comes before main returns, so the helper's line
	// must be the first after ready (the test binary's own verdict
	// follows it).
	if len(rest) == 0 || rest[0] != "main returned" {
		t.Fatalf("output after ready = %q, want the helper's \"main returned\" first", rest)
	}
}
