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

// proc is one tpserve process of the fleet.
type proc struct {
	name string
	base string // http://127.0.0.1:port
	log  string // file holding the process's stdout and stderr
	cmd  *exec.Cmd
	done chan struct{} // closed once Wait has returned
	err  error         // Wait's result, valid after done
}

// fleet is every process one setup launched.
type fleet struct {
	nodes []*proc
	agg   *proc // nil when the workload has no aggregator
	all   []*proc
}

// fleetConfig is how a workload's fleet is launched.
type fleetConfig struct {
	bin     string // tpserve binary
	dir     string // per-fleet scratch directory (logs, checkpoint stores)
	nodes   int
	agg     bool
	ckpt    bool
	streamM int64 // -m: planned per-node stream length
	seed    uint64
}

// launchAttempts bounds how often one setup launches its fleet. Ports are
// picked by binding port 0 and closing the socket before the child binds
// it, so another socket can take one in between; the child then exits at
// once, and the fleet is launched again on fresh ports.
const launchAttempts = 3

// errExited marks a fleet process that exited before it was ready.
var errExited = errors.New("exited before ready")

// launch starts the fleet and waits until every /readyz answers 200.
// On error every started process is stopped.
func launch(ctx context.Context, cfg fleetConfig) (*fleet, error) {
	var err error
	for i := 0; i < launchAttempts; i++ {
		f := &fleet{}
		if err = f.start(ctx, cfg); err == nil {
			return f, nil
		}
		f.stop()
		if !errors.Is(err, errExited) {
			break
		}
	}
	return nil, err
}

func (f *fleet) start(ctx context.Context, cfg fleetConfig) error {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return err
	}
	n := cfg.nodes
	if cfg.agg {
		n++
	}
	ports, err := freePorts(n)
	if err != nil {
		return err
	}
	var urls []string
	for j := 0; j < cfg.nodes; j++ {
		args := []string{"-mode", "node", "-sampler", "l2", "-n", strconv.Itoa(universe),
			"-m", strconv.FormatInt(cfg.streamM, 10),
			// Distinct coordinator seeds per node: pool independence is part
			// of the merge's exactness argument.
			"-seed", strconv.FormatUint(nodeSeed(cfg.seed, j), 10), "-log", "off"}
		if cfg.ckpt {
			args = append(args, "-store", filepath.Join(cfg.dir, fmt.Sprintf("store%d", j)), "-checkpoint", "1s")
		}
		p, err := spawn(cfg.bin, cfg.dir, fmt.Sprintf("node%d", j), ports[j], args)
		if err != nil {
			return err
		}
		f.nodes = append(f.nodes, p)
		f.all = append(f.all, p)
		urls = append(urls, p.base)
	}
	if cfg.agg {
		p, err := spawn(cfg.bin, cfg.dir, "agg", ports[cfg.nodes], []string{"-mode", "aggregator", "-nodes", strings.Join(urls, ","), "-log", "off"})
		if err != nil {
			return err
		}
		f.agg = p
		f.all = append(f.all, p)
	}
	for _, p := range f.all {
		if err := p.waitReady(ctx); err != nil {
			return err
		}
	}
	return nil
}

// freePorts asks the kernel for n distinct unused loopback ports: every
// socket stays open until all n are picked.
func freePorts(n int) ([]int, error) {
	var ports []int
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

func spawn(bin, dir, name string, port int, args []string) (*proc, error) {
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	logPath := filepath.Join(dir, name+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// A fleet process must not outlive the generator, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, base: "http://" + addr, log: logPath, cmd: cmd, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// waitReady polls /readyz until it answers 200.
func (p *proc) waitReady(ctx context.Context) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("%s %w: %v: %s", p.name, errExited, p.err, p.logTail())
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if resp, err := client.Get(p.base + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		// A Go timer would wake ~1ms late; setup_s should not carry that.
		ts := syscall.NsecToTimespec(int64(200 * time.Microsecond))
		_ = syscall.Nanosleep(&ts, nil)
	}
	return fmt.Errorf("%s not ready after 30s", p.name)
}

// logTail is the end of the process's log, for error messages.
func (p *proc) logTail() string {
	data, _ := os.ReadFile(p.log)
	return strings.TrimSpace(string(data[max(0, len(data)-300):]))
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func (p *proc) peakRSSMB() (float64, error) {
	fh, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// peakRSSMB sums the fleet's peak resident sets.
func (f *fleet) peakRSSMB() (float64, error) {
	var sum float64
	for _, p := range f.all {
		mb, err := p.peakRSSMB()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", p.name, err)
		}
		sum += mb
	}
	return sum, nil
}

// stop asks every process to drain (SIGTERM; nodes write their final
// checkpoint), kills whatever has not exited after a grace period, and
// returns once every process has been reaped.
func (f *fleet) stop() {
	for _, p := range f.all {
		_ = p.cmd.Process.Signal(syscall.SIGTERM) // already exited is fine
	}
	deadline := time.Now().Add(15 * time.Second)
	for _, p := range f.all {
		t := time.NewTimer(time.Until(deadline))
		select {
		case <-p.done:
		case <-t.C:
			_ = p.cmd.Process.Kill()
			<-p.done
		}
		t.Stop()
	}
}
