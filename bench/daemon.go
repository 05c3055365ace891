package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// target is a running daemon as the benchmark sees it: an address, and the
// process its CPU and memory are charged to.
type target interface {
	URL() string
	PID() int
	// Kill stops the daemon as a crash would — no drain, no final snapshot —
	// and returns once it is gone.
	Kill()
}

// booter starts a daemon with the stock settings plus, when stateDir is
// not empty, -state-dir. It returns once the listener is up; the caller
// waits for /readyz.
type booter func(stateDir string) (target, error)

// buildDaemon compiles the stock qpredictd into dir, outside every timed
// region.
func buildDaemon(dir string) (string, error) {
	bin := filepath.Join(dir, "qpredictd")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/qpredictd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building qpredictd: %v\n%s", err, out)
	}
	return bin, nil
}

// process is a qpredictd child on loopback.
type process struct {
	cmd *exec.Cmd
	url string
}

const servingPrefix = "qpredictd serving on "

// spawn returns a booter over the built binary; each daemon's stderr is
// appended to logPath.
func spawn(bin, logPath string, train int) booter {
	return func(stateDir string) (target, error) {
		args := []string{"-addr", "127.0.0.1:0", "-train", strconv.Itoa(train)}
		if stateDir != "" {
			args = append(args, "-state-dir", stateDir)
		}
		logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return nil, err
		}
		defer logf.Close() // the child holds its own descriptor
		cmd := exec.Command(bin, args...)
		cmd.Stderr = logf
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		p := &process{cmd: cmd}
		// The daemon prints its address once the listener is up.
		rd := bufio.NewReader(stdout)
		line, err := rd.ReadString('\n')
		if err != nil || !strings.HasPrefix(line, servingPrefix) {
			p.Kill()
			return nil, fmt.Errorf("qpredictd did not come up (see %s): %q %v", logPath, line, err)
		}
		p.url = strings.Fields(line[len(servingPrefix):])[0]
		go io.Copy(io.Discard, rd) // ends when Kill's Wait closes the pipe
		return p, nil
	}
}

func (p *process) URL() string { return p.url }
func (p *process) PID() int    { return p.cmd.Process.Pid }

func (p *process) Kill() {
	p.cmd.Process.Kill()
	p.cmd.Wait()
}

// waitReady polls /readyz until it answers 200.
func waitReady(ctx context.Context, url string) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 60s (last error: %v)", url, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func getJSON(ctx context.Context, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// scrape is the daemon's own counters at one instant: the obs registry on
// /metrics, the Go runtime's memstats on /debug/vars, and the process's CPU
// time and resident set from /proc.
type scrape struct {
	obs.Snapshot
	Mem   runtime.MemStats
	CPU   time.Duration
	RSSMB float64
}

func takeScrape(ctx context.Context, t target) (*scrape, error) {
	s := &scrape{}
	if err := getJSON(ctx, t.URL()+"/metrics", &s.Snapshot); err != nil {
		return nil, err
	}
	var vars struct {
		Memstats *runtime.MemStats `json:"memstats"`
	}
	vars.Memstats = &s.Mem
	if err := getJSON(ctx, t.URL()+"/debug/vars", &vars); err != nil {
		return nil, err
	}
	var err error
	if s.CPU, err = procCPU(t.PID()); err != nil {
		return nil, err
	}
	if s.RSSMB, err = procRSSMB(t.PID()); err != nil {
		return nil, err
	}
	return s, nil
}

// procCPU is the CPU time a process has used: the on-CPU nanoseconds the
// scheduler keeps per thread in /proc/<pid>/task/*/schedstat, summed.
// utime+stime in /proc/<pid>/stat would be the obvious source, but the
// kernel fills those by sampling at the 100 Hz tick, and a daemon that runs
// in 100 µs bursts between sleeps is then charged ±8% from run to run for
// the same work.
func procCPU(pid int) (time.Duration, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("/proc/%d/task/*/schedstat: none readable (%v)", pid, err)
	}
	var total time.Duration
	for _, path := range tasks {
		data, err := os.ReadFile(path)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		f := strings.Fields(string(data))
		if len(f) == 0 {
			return 0, fmt.Errorf("%s: empty", path)
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %v", path, err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// procRSSMB is VmRSS from /proc/<pid>/status, in MB.
func procRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: %q", pid, line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmRSS", pid)
}
