package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Every child process and temp directory is registered here so that
// cleanup — run on normal exit, on a failed run, on a panic and on
// SIGINT/SIGTERM — leaves nothing behind.
var (
	regMu    sync.Mutex
	children = map[*server]bool{}
	tempDirs []string
)

func registerTemp(dir string) {
	regMu.Lock()
	defer regMu.Unlock()
	tempDirs = append(tempDirs, dir)
}

// cleanup kills and reaps every live child and removes the temp dirs.
func cleanup() {
	regMu.Lock()
	live := make([]*server, 0, len(children))
	for s := range children {
		live = append(live, s)
	}
	dirs := tempDirs
	tempDirs = nil
	regMu.Unlock()
	for _, s := range live {
		s.kill()
	}
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

// tail keeps the last max bytes written to it: the server's stderr,
// reported when the server dies.
type tail struct {
	mu  sync.Mutex
	buf []byte
	max int
}

func (t *tail) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > t.max {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-t.max:]...)
	}
	return len(p), nil
}

func (t *tail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// server is one running cpserver child.
type server struct {
	cmd    *exec.Cmd
	addr   string
	admin  string
	stderr *tail
	exited chan struct{} // closed once the process has been reaped
	waitMu sync.Mutex
	err    error // exit status, valid after exited is closed
}

// freeAddr picks a loopback address no listener holds right now.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// startServer execs the server on loopback addresses chosen here. A bind
// race with another process is retried on fresh ports.
func startServer(bin string, args []string) (*server, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		admin, err := freeAddr()
		if err != nil {
			return nil, err
		}
		s := &server{addr: addr, admin: admin, stderr: &tail{max: 16 << 10}, exited: make(chan struct{})}
		s.cmd = exec.Command(bin, append([]string{"-addr", addr, "-admin-addr", admin}, args...)...)
		s.cmd.Stdout = s.stderr
		s.cmd.Stderr = s.stderr
		// The kernel kills the server if this process dies without
		// running cleanup (SIGKILL, runtime fatal error).
		s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := s.cmd.Start(); err != nil {
			return nil, err
		}
		regMu.Lock()
		children[s] = true
		regMu.Unlock()
		go func() {
			err := s.cmd.Wait()
			s.waitMu.Lock()
			s.err = err
			s.waitMu.Unlock()
			close(s.exited)
		}()
		err = s.waitReady(60 * time.Second)
		if err == nil {
			return s, nil
		}
		s.kill()
		lastErr = err
		if !strings.Contains(s.stderr.String(), "address already in use") {
			break
		}
	}
	return nil, lastErr
}

// dead reports whether the process has exited.
func (s *server) dead() bool {
	select {
	case <-s.exited:
		return true
	default:
		return false
	}
}

// deathError describes an exited server with the tail of its stderr.
func (s *server) deathError() error {
	s.waitMu.Lock()
	defer s.waitMu.Unlock()
	err := s.err
	if err == nil {
		err = errors.New("exit status 0")
	}
	return fmt.Errorf("cpserver exited: %w; stderr tail:\n%s", err, s.stderr.String())
}

// waitReady polls /readyz until it answers 200.
func (s *server) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if s.dead() {
			return s.deathError()
		}
		c := httpConn{addr: s.addr}
		status, _, err := c.do("GET", "/readyz", nil)
		c.close()
		if err == nil && status == 200 {
			return nil
		}
		if time.Now().After(deadline) {
			if err == nil {
				err = fmt.Errorf("/readyz answered %d", status)
			}
			return fmt.Errorf("cpserver not ready after %v: %w; stderr tail:\n%s", timeout, err, s.stderr.String())
		}
		time.Sleep(time.Millisecond)
	}
}

// kill SIGKILLs the server and waits until it has been reaped.
func (s *server) kill() {
	if !s.dead() {
		_ = s.cmd.Process.Kill() // fails only if the process already exited
	}
	<-s.exited
	regMu.Lock()
	delete(children, s)
	regMu.Unlock()
}

// cpuSeconds reads the server's user plus system CPU time so far from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks of 1/100 s).
func (s *server) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after it are
	// counted from the closing parenthesis, starting at the state (3).
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", b)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line %q", b)
	}
	return (utime + stime) / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times; Linux fixes
// it at 100 on every architecture Go supports.
const clockTicks = 100

// peakRSSMB reads the server's VmHWM (peak resident set) in MiB.
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found in /proc status")
}

// scrape reads the admin /metrics endpoint and sums every series of a
// metric family by name (labels dropped).
func (s *server) scrape() (map[string]float64, error) {
	c := httpConn{addr: s.admin}
	defer c.close()
	status, body, err := c.do("GET", "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if status != 200 {
		return nil, fmt.Errorf("/metrics answered %d", status)
	}
	return parseMetrics(string(body)), nil
}

func parseMetrics(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out
}
