package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env owns everything one benchmark invocation leaves outside its own
// memory: a scratch directory and the child processes. close releases
// both, and every way out of the program goes through it — a normal
// return, a failed check, a /readyz timeout and a panic through main's
// defer, SIGINT and SIGTERM through the handler newEnv installs.
type env struct {
	root     string // the repo checkout
	buildDir string // root/.bench_build: binaries, and the scratch dirs of live runs
	runDir   string // buildDir/run-<pid>: data dirs, passd logs, ladder inputs

	mu       sync.Mutex
	children []*child
	closed   bool
}

// child is a started process in its own process group. A goroutine waits
// for it from the start, so it never lingers as a zombie and an early
// exit is seen by whoever polls for readiness.
type child struct {
	cmd    *exec.Cmd
	log    string
	exited chan struct{}
	err    error // cmd.Wait's result, valid once exited is closed
}

func newEnv(root string) (*env, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "passd", "main.go")); err != nil {
		return nil, fmt.Errorf("%s is not a checkout of the repo: %w", root, err)
	}
	e := &env{root: root, buildDir: filepath.Join(root, ".bench_build")}
	e.runDir = filepath.Join(e.buildDir, "run-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(e.runDir, 0o755); err != nil {
		return nil, err
	}
	e.sweepStale()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "benchmark: %v: stopping children and cleaning up\n", s)
		e.close()
		os.Exit(130)
	}()
	return e, nil
}

// sweepStale removes the scratch dirs of earlier runs whose process is
// gone: a harness killed with SIGKILL cannot clean up after itself (its
// passd still dies, through Pdeathsig).
func (e *env) sweepStale() {
	entries, _ := os.ReadDir(e.buildDir)
	for _, ent := range entries {
		pid, err := strconv.Atoi(strings.TrimPrefix(ent.Name(), "run-"))
		if err != nil || !strings.HasPrefix(ent.Name(), "run-") || pid == os.Getpid() {
			continue
		}
		if errors.Is(syscall.Kill(pid, 0), syscall.ESRCH) {
			os.RemoveAll(filepath.Join(e.buildDir, ent.Name()))
		}
	}
}

// close kills every child's process group, waits for each child, and
// removes the scratch dir. It is safe to call more than once and from
// the signal handler while main is still running.
func (e *env) close() {
	e.mu.Lock()
	e.closed = true
	children := e.children
	e.children = nil
	e.mu.Unlock()
	for _, c := range children {
		c.kill()
	}
	os.RemoveAll(e.runDir)
}

// start runs bin in its own process group, with both output streams
// going to a file in the scratch dir — passd writes one log line per
// request, which would fill an undrained pipe. Pdeathsig covers the one
// exit close cannot: the harness itself being killed. (It is tied to the
// starting thread, which the Go runtime keeps for the process's life as
// long as no goroutine exits while locked to it; none here locks.)
func (e *env) start(dir, logName, bin string, args ...string) (*child, error) {
	logPath := filepath.Join(e.runDir, logName)
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = logFile, logFile
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	c := &child{cmd: cmd, log: logPath, exited: make(chan struct{})}

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		logFile.Close()
		return nil, errors.New("benchmark is shutting down")
	}
	err = cmd.Start()
	if err == nil {
		e.children = append(e.children, c)
	}
	e.mu.Unlock()
	if err != nil {
		logFile.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		c.err = cmd.Wait()
		logFile.Close()
		close(c.exited)
	}()
	return c, nil
}

// kill is kill -9 on the child's whole process group, then a wait until
// the child has been reaped.
func (c *child) kill() {
	_ = syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL) // ESRCH: already gone
	<-c.exited
}

func (c *child) logTail() string {
	b, _ := os.ReadFile(c.log)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return strings.TrimSpace(string(b))
}

// run executes a command to completion under the same lifetime rules as
// start (go build starts compilers of its own, hence the group).
func (e *env) run(dir, logName, bin string, args ...string) error {
	c, err := e.start(dir, logName, bin, args...)
	if err != nil {
		return err
	}
	<-c.exited
	if c.err != nil {
		return fmt.Errorf("%s %s: %w\n%s", bin, strings.Join(args, " "), c.err, c.logTail())
	}
	return nil
}

// goBuild builds one main package of a module into buildDir/bin. The
// daemon is always run from this prebuilt binary, never through go run,
// which would leave the real server as a grandchild.
func (e *env) goBuild(moduleDir, pkg, name string) (string, error) {
	out := filepath.Join(e.buildDir, "bin", name)
	if err := e.run(moduleDir, "build-"+name+".log", "go", "build", "-o", out, pkg); err != nil {
		return "", err
	}
	return out, nil
}

// passd is one running daemon.
type passd struct {
	*child
	base  string   // http://127.0.0.1:<port>
	flags []string // as started, for the output header
}

const readyDeadline = 60 * time.Second

// startPassd starts the daemon with default flags apart from the listen
// address, the shard count and (for a durable table) the data dir, and
// returns once /readyz answers 200. WAL fsync stays on.
func (e *env) startPassd(bin, dataDir string, hc *http.Client) (*passd, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	flags := []string{"-listen", addr, "-shards", "4"}
	if dataDir != "" {
		flags = append(flags, "-data-dir", dataDir)
	}
	c, err := e.start(e.runDir, "passd.log", bin, flags...)
	if err != nil {
		return nil, err
	}
	p := &passd{child: c, base: "http://" + addr, flags: flags}
	deadline := time.Now().Add(readyDeadline)
	for {
		resp, err := hc.Get(p.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		select {
		case <-c.exited:
			return nil, fmt.Errorf("passd exited before it was ready: %v\n%s", c.err, c.logTail())
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			c.kill()
			return nil, fmt.Errorf("passd not ready after %s\n%s", readyDeadline, c.logTail())
		}
	}
}
