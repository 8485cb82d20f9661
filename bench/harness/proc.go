// Package harness holds what every workload needs around the program
// under test: child-process management for real boolqd servers, a
// keep-alive HTTP client, CPU and memory readings from /proc, and the
// segment statistics the metrics are made of.
package harness

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat's CPU
// fields. It is 100 on every Linux configuration Go supports.
const clockTick = 100

// Proc is one running boolqd.
type Proc struct {
	Name string
	Addr string // host:port the server listens on

	cmd    *exec.Cmd
	stderr *tail
	exited chan struct{} // closed once Wait has returned
}

var (
	liveMu sync.Mutex
	live   = map[*Proc]bool{}
)

// Spawn starts bin on a free loopback port with -addr prepended to args.
// The child is killed if this process dies (Pdeathsig) and by KillAll.
func Spawn(bin, name string, args ...string) (*Proc, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("choosing a port for %s: %w", name, err)
	}
	addr := ln.Addr().String()
	ln.Close()

	p := &Proc{Name: name, Addr: addr, stderr: &tail{max: 4096}, exited: make(chan struct{})}
	p.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	p.cmd.Stderr = p.stderr
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	liveMu.Lock()
	live[p] = true
	liveMu.Unlock()
	go func() {
		_ = p.cmd.Wait() // the exit status of a killed server carries nothing
		close(p.exited)
	}()
	return p, nil
}

// URL returns the server's base URL.
func (p *Proc) URL() string { return "http://" + p.Addr }

// Pid returns the server's process id.
func (p *Proc) Pid() int { return p.cmd.Process.Pid }

// WaitReady polls /readyz until it answers 200. It fails with the
// server's stderr tail if the process exits first or the timeout passes.
func (p *Proc) WaitReady(timeout time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-p.exited:
			return fmt.Errorf("%s exited before it was ready; stderr tail:\n%s", p.Name, p.stderr)
		default:
		}
		resp, err := hc.Get(p.URL() + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %v; stderr tail:\n%s", p.Name, timeout, p.stderr)
		}
		time.Sleep(time.Millisecond)
	}
}

// Exited reports whether the process has ended.
func (p *Proc) Exited() bool {
	select {
	case <-p.exited:
		return true
	default:
		return false
	}
}

// StderrTail returns the last few KiB the server wrote to stderr.
func (p *Proc) StderrTail() string { return p.stderr.String() }

// Kill sends SIGKILL and waits until the process has ended.
func (p *Proc) Kill() {
	_ = p.cmd.Process.Kill() // already-exited is fine
	<-p.exited
	liveMu.Lock()
	delete(live, p)
	liveMu.Unlock()
}

// KillAll kills every server still running.
func KillAll() {
	liveMu.Lock()
	procs := make([]*Proc, 0, len(live))
	for p := range live {
		procs = append(procs, p)
	}
	liveMu.Unlock()
	for _, p := range procs {
		p.Kill()
	}
}

// CPUSeconds returns the user+system CPU time the process has used.
func (p *Proc) CPUSeconds() (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(p.Pid()) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted from
	// after its closing parenthesis. utime and stime are fields 14 and 15.
	rest := data[bytes.LastIndexByte(data, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("unparsable /proc stat line")
	}
	return float64(ut+st) / clockTick, nil
}

// PeakRSSMB returns the process's resident-set high-water mark (VmHWM).
func (p *Proc) PeakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(p.Pid()) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// SelfCPUSeconds returns the CPU time this process has used.
func SelfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// tail keeps the last max bytes written to it.
type tail struct {
	mu  sync.Mutex
	max int
	buf []byte
}

func (t *tail) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > t.max {
		t.buf = t.buf[len(t.buf)-t.max:]
	}
	return len(p), nil
}

func (t *tail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}
