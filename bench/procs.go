package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
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

// child is one served binary under test: the real ektelo-serve or
// ektelo-router, started with its default flags plus the address and
// paths the run needs.
type child struct {
	name string
	url  string
	args []string
	cmd  *exec.Cmd
	log  *os.File
}

// freeAddrs asks the kernel for n distinct unused loopback ports. The
// listeners stay open until all n are chosen, so no port comes back
// twice, and are closed before the children bind them; nothing else in
// the run's network namespace competes for ports in between.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}

// startChild launches bin with args and waits until /healthz answers.
// Pdeathsig makes the kernel kill the child if the benchmark dies, so
// no run can leave a server behind.
func startChild(ctx context.Context, bin, name, addr, dir string, args ...string) (*child, error) {
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	full := append([]string{"-addr", addr}, args...)
	cmd := exec.Command(bin, full...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	c := &child{name: name, url: "http://" + addr, args: full, cmd: cmd, log: logf}
	if err := c.waitHealthy(ctx); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

func (c *child) waitHealthy(ctx context.Context) error {
	deadline := time.Now().Add(readyTimeout)
	client := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) && ctx.Err() == nil {
		resp, err := client.Get(c.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s did not become healthy at %s (log: %s)", c.name, c.url, c.log.Name())
}

// stop asks the child to shut down gracefully (it fsyncs and closes its
// logs), waits for it to exit, and kills it only if it does not.
func (c *child) stop() {
	if c == nil || c.cmd == nil {
		return
	}
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = c.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		_ = c.cmd.Process.Kill()
		<-done
	}
	c.log.Close()
	c.cmd = nil
}

// procUsage is a child's CPU time so far and its peak resident set.
type procUsage struct {
	cpu      time.Duration
	rssPeakB int64
}

// usage reads /proc/<pid>/stat (utime+stime, fields 14 and 15) and
// VmHWM from /proc/<pid>/status.
func (c *child) usage() (procUsage, error) {
	pid := c.cmd.Process.Pid
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procUsage{}, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	rest := string(stat)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return procUsage{}, errors.New("short /proc stat line")
	}
	utime, _ := strconv.ParseInt(f[11], 10, 64)
	stime, _ := strconv.ParseInt(f[12], 10, 64)
	const clockTick = 100 // USER_HZ on Linux
	u := procUsage{cpu: time.Duration(utime+stime) * time.Second / clockTick}
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return u, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			u.rssPeakB = kb << 10
		}
	}
	return u, nil
}

// getJSON fetches url and decodes its body into v.
func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
