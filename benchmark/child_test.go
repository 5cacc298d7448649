package main

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// testEnv makes an env over a directory that looks enough like a checkout.
func testEnv(t *testing.T) *env {
	t.Helper()
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "cmd", "passd"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "cmd", "passd", "main.go"), []byte("package main\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	e, err := newEnv(root)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.close)
	return e
}

// gone reports whether no process, not even a zombie, has the pid.
func gone(pid int) bool {
	return errors.Is(syscall.Kill(pid, 0), syscall.ESRCH)
}

// startWithGrandchild starts a shell that starts a sleep of its own and
// returns both pids: the child's whole group has to go, not only the
// process the harness started.
func startWithGrandchild(t *testing.T, e *env) (c *child, grandchild int) {
	t.Helper()
	pidFile := filepath.Join(e.runDir, "grandchild.pid")
	c, err := e.start(e.runDir, "child.log", "sh", "-c", "sleep 300 & echo $! > "+pidFile+"; wait")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if b, err := os.ReadFile(pidFile); err == nil && strings.TrimSpace(string(b)) != "" {
			grandchild, err = strconv.Atoi(strings.TrimSpace(string(b)))
			if err != nil {
				t.Fatal(err)
			}
			return c, grandchild
		}
		if time.Now().After(deadline) {
			t.Fatal("the child never wrote its grandchild's pid")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestKillLeavesNoProcess(t *testing.T) {
	e := testEnv(t)
	c, grandchild := startWithGrandchild(t, e)
	pid := c.cmd.Process.Pid
	if gone(pid) || gone(grandchild) {
		t.Fatal("child or grandchild not running after start")
	}
	c.kill()
	if !gone(pid) {
		t.Errorf("child %d still exists after kill (a zombie counts)", pid)
	}
	// the grandchild is reaped by init, not by us: give that a moment
	for i := 0; i < 400 && !gone(grandchild); i++ {
		time.Sleep(5 * time.Millisecond)
	}
	if !gone(grandchild) {
		t.Errorf("grandchild %d outlived its process group's kill", grandchild)
	}
	c.kill() // a second kill is harmless
}

func TestCloseStopsChildrenAndRemovesScratch(t *testing.T) {
	e := testEnv(t)
	c, grandchild := startWithGrandchild(t, e)
	pid := c.cmd.Process.Pid
	e.close()
	if !gone(pid) {
		t.Errorf("child %d survived close", pid)
	}
	for i := 0; i < 400 && !gone(grandchild); i++ {
		time.Sleep(5 * time.Millisecond)
	}
	if !gone(grandchild) {
		t.Errorf("grandchild %d survived close", grandchild)
	}
	if _, err := os.Stat(e.runDir); !os.IsNotExist(err) {
		t.Errorf("scratch dir %s still there after close (err %v)", e.runDir, err)
	}
	if _, err := e.start(e.runDir, "late.log", "sleep", "300"); err == nil {
		t.Error("start succeeded after close")
	}
	e.close() // idempotent
}

func TestRunReportsFailureWithOutput(t *testing.T) {
	e := testEnv(t)
	err := e.run(e.runDir, "fail.log", "sh", "-c", "echo the reason >&2; exit 3")
	if err == nil || !strings.Contains(err.Error(), "the reason") {
		t.Errorf("run error = %v, want the exit status and the command's output", err)
	}
	if err := e.run(e.runDir, "ok.log", "true"); err != nil {
		t.Errorf("run of true: %v", err)
	}
}

func TestSweepRemovesOnlyDeadRuns(t *testing.T) {
	e := testEnv(t)
	// a pid that certainly names no live process: a child we have reaped
	c, err := e.start(e.runDir, "done.log", "true")
	if err != nil {
		t.Fatal(err)
	}
	<-c.exited
	dead := filepath.Join(e.buildDir, "run-"+strconv.Itoa(c.cmd.Process.Pid))
	other := filepath.Join(e.buildDir, "bin")
	for _, d := range []string{dead, other} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	e.sweepStale()
	if _, err := os.Stat(dead); !os.IsNotExist(err) {
		t.Errorf("stale %s not swept", dead)
	}
	for _, keep := range []string{other, e.runDir} {
		if _, err := os.Stat(keep); err != nil {
			t.Errorf("%s swept: %v", keep, err)
		}
	}
}
