package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one child process the ledger started; every proc is stopped and
// waited for before the ledger exits.
type proc struct {
	name string
	cmd  *exec.Cmd
	log  *os.File
	done chan error
}

// startProc runs bin with args, its stdout and stderr going to logPath. The
// child is killed if the ledger itself dies first.
func startProc(name, bin, logPath string, args ...string) (*proc, error) {
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = lf
	cmd.Stderr = lf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, log: lf, done: make(chan error, 1)}
	go func() { p.done <- cmd.Wait() }()
	return p, nil
}

// stop sends SIGTERM, waits for a clean exit, and kills the process if it
// has not exited after grace.
func (p *proc) stop(grace time.Duration) error {
	defer p.log.Close()
	select {
	case err := <-p.done:
		return fmt.Errorf("%s exited early: %v", p.name, err)
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // an exited process is reaped below
	select {
	case err := <-p.done:
		return err
	case <-time.After(grace):
		_ = p.cmd.Process.Kill() // the wait below reports the outcome
		<-p.done
		return fmt.Errorf("%s ignored SIGTERM for %v; killed", p.name, grace)
	}
}

// exited reports whether the process has already ended.
func (p *proc) exited() bool {
	select {
	case err := <-p.done:
		p.done <- err
		return true
	default:
		return false
	}
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func (p *proc) peakRSSMB() (float64, error) {
	f, err := os.Open(filepath.Join("/proc", strconv.Itoa(p.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// freeAddr returns a loopback address with a port free at the time of the
// call.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// waitHealthy polls addr's /healthz until it answers 200 with status "ok",
// the process exits, or ctx ends.
func waitHealthy(ctx context.Context, addr string, p *proc) error {
	c := &http.Client{Timeout: time.Second}
	for {
		resp, err := c.Get("http://" + addr + "/healthz")
		if err == nil {
			body, _ := io.ReadAll(resp.Body) // a short read just retries
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && strings.Contains(string(body), `"status":"ok"`) {
				return nil
			}
		}
		if p.exited() {
			return fmt.Errorf("%s exited before it was healthy (see %s)", p.name, p.log.Name())
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s not healthy: %w", p.name, ctx.Err())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// runCmd runs bin to completion and returns its stdout.
func runCmd(ctx context.Context, bin string, args ...string) (string, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("%s %s: %v: %s", filepath.Base(bin), strings.Join(args, " "), err, stderr.String())
	}
	return string(out), nil
}
