package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// proc is one running doppio process.
type proc struct {
	cmd    *exec.Cmd
	addr   string        // bound host:port, for serve and route
	stderr *bytes.Buffer // kept for diagnostics
	done   chan struct{} // closed once stdout is drained
}

var listeningRE = regexp.MustCompile(`listening on ([0-9.:]+)`)

// startListener starts a doppio subcommand that prints a "listening
// on ADDR" line once it accepts connections, and returns once it has.
func startListener(bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	p := &proc{cmd: cmd, stderr: &bytes.Buffer{}, done: make(chan struct{})}
	cmd.Stderr = &lockedWriter{w: p.stderr}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting doppio %s: %w", args[0], err)
	}
	addr := make(chan string, 1)
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(out)
		sent := false
		for sc.Scan() {
			if m := listeningRE.FindStringSubmatch(sc.Text()); m != nil && !sent {
				addr <- m[1]
				sent = true
			}
		}
		if !sent {
			close(addr)
		}
		io.Copy(io.Discard, out)
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			p.stop()
			return nil, fmt.Errorf("doppio %s exited before listening: %s", args[0], p.stderr.String())
		}
		p.addr = a
		return p, nil
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, fmt.Errorf("doppio %s did not listen within 30s", args[0])
	}
}

// stop sends SIGTERM (a graceful drain) and waits for the process to
// exit.
func (p *proc) stop() error {
	if p.cmd.Process == nil {
		return nil
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	timer := time.AfterFunc(30*time.Second, func() { p.cmd.Process.Kill() })
	<-p.done
	err := p.cmd.Wait()
	timer.Stop()
	return err
}

// hwmMB reads the running process's peak resident set so far.
func (p *proc) hwmMB() (float64, error) { return vmHWMMB(p.cmd.Process.Pid) }

// vmHWMMB reads a running process's peak resident set so far (VmHWM)
// from its /proc status, in MB. Unlike the rusage of an exited child,
// it does not include the benchmark's own peak: Linux folds the
// parent's peak into a child's rusage when the child execs.
func vmHWMMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	m := vmHWMRE.FindSubmatch(b)
	if m == nil {
		return 0, fmt.Errorf("no VmHWM in the status of pid %d", pid)
	}
	kb, err := strconv.ParseFloat(string(m[1]), 64)
	return kb / 1024, err
}

var vmHWMRE = regexp.MustCompile(`(?m)^VmHWM:\s+(\d+) kB$`)

type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(b []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(b)
}

// tier is one `doppio route` in front of two `doppio serve` replicas,
// all with default flags.
type tier struct {
	replicas []*proc
	router   *proc
}

// bootTier starts two replicas and a router on loopback ports and
// returns once the router answers /readyz.
func bootTier(bin string) (*tier, error) {
	t := &tier{}
	for i := 0; i < 2; i++ {
		p, err := startListener(bin, "serve", "-addr", "127.0.0.1:0")
		if err != nil {
			t.stop()
			return nil, err
		}
		t.replicas = append(t.replicas, p)
	}
	r, err := startListener(bin, "route", "-addr", "127.0.0.1:0",
		"-replica", t.replicas[0].addr, "-replica", t.replicas[1].addr)
	if err != nil {
		t.stop()
		return nil, err
	}
	t.router = r
	if err := waitReady(context.Background(), "http://"+r.addr+"/readyz"); err != nil {
		t.stop()
		return nil, err
	}
	return t, nil
}

// hwmMB returns the sum of the processes' peak RSS so far.
func (t *tier) hwmMB() (float64, error) {
	total := 0.0
	for _, p := range append([]*proc{t.router}, t.replicas...) {
		mb, err := p.hwmMB()
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// stop drains every process.
func (t *tier) stop() (err error) {
	procs := append([]*proc{}, t.replicas...)
	if t.router != nil {
		procs = append([]*proc{t.router}, procs...)
	}
	for _, p := range procs {
		if perr := p.stop(); perr != nil && err == nil {
			err = fmt.Errorf("doppio exited uncleanly: %v: %s", perr, p.stderr.String())
		}
	}
	return err
}

// waitReady polls url until it answers 200.
func waitReady(ctx context.Context, url string) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready within 30s", url)
}
