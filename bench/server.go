package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"structix/internal/client"
)

// The server side of the harness: build the shipped binary, spawn it on a
// pre-picked loopback port with its default flags, and make sure every
// process and every temp dir is gone on every exit path.

// procs tracks what must not outlive the run. cleanup is called from the
// normal return path, from a failed check and from the signal handler.
type procs struct {
	mu   sync.Mutex
	live map[*serverProc]bool
	dirs []string
}

func (p *procs) add(s *serverProc) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.live == nil {
		p.live = make(map[*serverProc]bool)
	}
	p.live[s] = true
}

func (p *procs) remove(s *serverProc) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.live, s)
}

// tempDir makes a directory under base that cleanup removes.
func (p *procs) tempDir(base, pattern string) (string, error) {
	d, err := os.MkdirTemp(base, pattern)
	if err != nil {
		return "", err
	}
	p.mu.Lock()
	p.dirs = append(p.dirs, d)
	p.mu.Unlock()
	return d, nil
}

// cleanup kills every live server, waits for each to exit, and removes
// every temp dir. It is called when the context ends and again when the
// run returns: the run may have respawned a server, which recreates its
// data directory, between the two.
func (p *procs) cleanup() {
	p.mu.Lock()
	live := make([]*serverProc, 0, len(p.live))
	for s := range p.live {
		live = append(live, s)
	}
	dirs := append([]string(nil), p.dirs...)
	p.mu.Unlock()
	for _, s := range live {
		s.kill()
	}
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

// moduleRoot finds the directory holding go.mod at or above the working
// directory: the repo root under `go run ./bench`, one level up under
// `go test ./bench`.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod at or above the working directory: run from the structix checkout")
		}
		dir = parent
	}
}

// buildServer compiles cmd/xsiserve into dir/bin. The build cache makes a
// repeat a sub-second no-op.
func buildServer(ctx context.Context, root, dir string) (string, error) {
	bin := filepath.Join(dir, "bin", "xsiserve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/xsiserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/xsiserve: %v\n%s", err, out)
	}
	return bin, nil
}

// freePort asks the kernel for an unused loopback port and releases it;
// xsiserve prints the -addr flag, not the bound address, so :0 cannot be
// discovered afterwards.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

type serverProc struct {
	cmd    *exec.Cmd
	base   string
	flags  []string // as spawned, minus the port: the environment stamp
	cli    *client.Client
	out    bytes.Buffer
	exited chan struct{}
	owner  *procs
}

// spawn starts xsiserve with flags on a free port and waits for the first
// healthy /healthz. The returned duration is spawn → healthy: load, index
// build, freeze and (durable) bootstrap snapshot.
func (p *procs) spawn(ctx context.Context, bin string, flags ...string) (*serverProc, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	s := &serverProc{
		base:   "http://" + addr,
		flags:  flags,
		exited: make(chan struct{}),
		owner:  p,
	}
	s.cmd = exec.Command(bin, append([]string{"-addr", addr}, flags...)...)
	s.cmd.Stdout = &s.out
	s.cmd.Stderr = &s.out
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, err
	}
	p.add(s)
	go func() {
		_ = s.cmd.Wait() // the exit status of a killed server carries nothing
		close(s.exited)
	}()
	s.cli = client.NewWithHTTPClient(s.base, oneConnClient())
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		hctx, cancel := context.WithTimeout(ctx, time.Second)
		err := s.cli.Health(hctx)
		cancel()
		if err == nil {
			return s, time.Since(start), nil
		}
		select {
		case <-s.exited:
			p.remove(s)
			return nil, 0, fmt.Errorf("xsiserve exited before becoming healthy:\n%s", s.out.String())
		case <-ctx.Done():
			s.kill()
			return nil, 0, fmt.Errorf("xsiserve not healthy: %w", ctx.Err())
		case <-tick.C:
		}
	}
}

// kill is SIGKILL + wait: the crash the durability check is about, and
// also the cheapest way to discard a server whose state is not needed.
func (s *serverProc) kill() {
	_ = s.cmd.Process.Signal(syscall.SIGKILL)
	<-s.exited
	s.owner.remove(s)
}

// oneConnClient is an http.Client that holds exactly one keep-alive
// connection: each load-generating client owns one, so the connection
// count equals the client count.
func oneConnClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		IdleConnTimeout:     time.Minute,
	}}
}

// runtimeStats is what /debug/pprof/heap?gc=1&debug=1 reports about the
// server's Go runtime (the trailing runtime.MemStats dump), read after a
// forced collection.
type runtimeStats struct {
	heapAlloc     float64 // bytes
	mallocs       float64
	gcCPUFraction float64
}

func (s *serverProc) runtimeStats(ctx context.Context) (runtimeStats, error) {
	var rs runtimeStats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/debug/pprof/heap?gc=1&debug=1", nil)
	if err != nil {
		return rs, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return rs, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return rs, fmt.Errorf("heap profile: http %d", resp.StatusCode)
	}
	found := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		name, val, ok := strings.Cut(strings.TrimPrefix(sc.Text(), "# "), " = ")
		if !ok {
			continue
		}
		var dst *float64
		switch name {
		case "HeapAlloc":
			dst = &rs.heapAlloc
		case "Mallocs":
			dst = &rs.mallocs
		case "GCCPUFraction":
			dst = &rs.gcCPUFraction
		default:
			continue
		}
		if *dst, err = strconv.ParseFloat(val, 64); err != nil {
			return rs, fmt.Errorf("heap profile: %s: %w", name, err)
		}
		found++
	}
	if err := sc.Err(); err != nil {
		return rs, err
	}
	if found != 3 {
		return rs, fmt.Errorf("heap profile: found %d of 3 runtime fields", found)
	}
	return rs, nil
}

// promCounters scrapes /metrics and returns the unlabelled samples by
// name: the commit counters /v1/stats does not carry (scripts, journal
// appends).
func (s *serverProc) promCounters(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if f, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = f
		}
	}
	return out, nil
}

// procUsage reads the server's CPU seconds (user+system) and peak RSS
// from /proc. ok is false where /proc is not Linux's.
func (s *serverProc) procUsage() (cpuS, peakRSSMB float64, ok bool) {
	pid := strconv.Itoa(s.cmd.Process.Pid)
	stat, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, 0, false
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (100/s on Linux).
	i := bytes.LastIndexByte(stat, ')')
	f := strings.Fields(string(stat[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, 0, false
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, 0, false
	}
	cpuS = (ut + st) / 100
	status, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return cpuS, 0, false
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, found := strings.CutPrefix(line, "VmHWM:"); found {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return cpuS, 0, false
			}
			return cpuS, kb / 1024, true
		}
	}
	return cpuS, 0, false
}
