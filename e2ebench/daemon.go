package main

import (
	"context"
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

	"stochsched/pkg/client"
)

// node is one running stochschedd process on loopback.
type node struct {
	cmd  *exec.Cmd
	url  string
	log  string // file holding the daemon's output
	http *http.Client
}

// freePorts reserves n distinct loopback ports. The listeners are closed
// before the daemons bind them, which is racy only against other programs
// picking ports in the same instant.
func freePorts(n int) ([]int, error) {
	var ports []int
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserving a loopback port: %w", err)
		}
		ls = append(ls, l)
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// startNodes starts n daemons; with n > 1 they form one -peers ring.
// Every node has its own HTTP client holding at most conns connections.
// Each daemon writes its output, one access-log line per request, to a
// file in logDir rather than to a pipe the benchmark would have to drain.
func startNodes(bin, logDir string, n, conns int) ([]*node, error) {
	ports, err := freePorts(n)
	if err != nil {
		return nil, err
	}
	urls := make([]string, n)
	for i, p := range ports {
		urls[i] = "http://127.0.0.1:" + strconv.Itoa(p)
	}
	var nodes []*node
	for i, p := range ports {
		args := []string{"-addr", "127.0.0.1:" + strconv.Itoa(p)}
		if n > 1 {
			args = append(args, "-peers", strings.Join(urls, ","), "-self", urls[i])
		}
		nd := &node{url: urls[i], log: filepath.Join(logDir, fmt.Sprintf("stochschedd-%d.log", i))}
		out, err := os.Create(nd.log)
		if err != nil {
			stopNodes(nodes)
			return nil, err
		}
		nd.cmd = exec.Command(bin, args...)
		nd.cmd.Stdout, nd.cmd.Stderr = out, out
		// The daemon dies with the benchmark, however the benchmark ends.
		nd.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		err = nd.cmd.Start()
		out.Close() // the daemon holds its own descriptor
		if err != nil {
			stopNodes(nodes)
			return nil, fmt.Errorf("starting %s: %w", bin, err)
		}
		nd.http = &http.Client{
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
			Timeout: 60 * time.Second,
		}
		nodes = append(nodes, nd)
	}
	return nodes, nil
}

// stopNodes kills the daemons and waits until each has exited. Nodes
// already stopped are skipped.
func stopNodes(nodes []*node) {
	for _, nd := range nodes {
		if nd.cmd.ProcessState == nil {
			nd.cmd.Process.Kill()
		}
	}
	for _, nd := range nodes {
		if nd.cmd.ProcessState == nil {
			nd.cmd.Wait()
		}
		nd.http.CloseIdleConnections()
	}
}

// waitReady polls /readyz until every node answers 200.
func waitReady(ctx context.Context, nodes []*node) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	for _, nd := range nodes {
		c := client.New(nd.url, client.WithHTTPClient(nd.http))
		for {
			if c.Readyz(ctx) == nil {
				break
			}
			if ctx.Err() != nil {
				return fmt.Errorf("daemon %s not ready: %w; its output ends:\n%s", nd.url, ctx.Err(), logTail(nd.log))
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// procCPU returns the CPU time the process's threads have used: the
// first field of /proc/<pid>/task/*/schedstat, in nanoseconds, where
// /proc/<pid>/stat counts 10 ms ticks. A thread that has exited no longer
// counts; the Go runtime keeps its threads.
func procCPU(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var sum int64
	for _, t := range tasks {
		data, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited after the listing
		}
		f := strings.Fields(string(data))
		if len(f) == 0 {
			return 0, fmt.Errorf("%s/%s/schedstat is empty", dir, t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s/%s/schedstat: %w", dir, t.Name(), err)
		}
		sum += ns
	}
	return time.Duration(sum), nil
}

// procHWM returns the process's peak resident set size (VmHWM) in MiB.
func procHWM(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status VmHWM: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no VmHWM", pid)
}

// nodesCPU sums the CPU time of every node.
func nodesCPU(nodes []*node) (time.Duration, error) {
	var sum time.Duration
	for _, nd := range nodes {
		d, err := procCPU(nd.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += d
	}
	return sum, nil
}

// nodesHWM sums the peak RSS of every node, in MiB.
func nodesHWM(nodes []*node) (float64, error) {
	var sum float64
	for _, nd := range nodes {
		v, err := procHWM(nd.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// hostSteal returns the steal time of all CPUs from /proc/stat: time the
// hypervisor gave this machine's virtual CPUs to something else.
func hostSteal() (time.Duration, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("/proc/stat steal: %w", err)
	}
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}

// selfCPU returns the benchmark process's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// logTail returns the last few KiB of a daemon's output file.
func logTail(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	return string(data[max(0, len(data)-4096):])
}
