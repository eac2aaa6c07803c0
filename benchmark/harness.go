package main

import (
	"bufio"
	"bytes"
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
	"sync"
	"syscall"
	"time"
)

// buildDirName is where the benchmark keeps everything it writes outside its
// own directory: the serenityd binary and the per-run store directories. It
// sits at the module root and is git-ignored.
const buildDirName = ".bench_build"

// moduleRoot walks up from the working directory to the directory holding
// go.mod, so the benchmark works from the root (go run ./benchmark) and from
// its own directory (go test).
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
			return "", errors.New("no go.mod above the working directory: run from inside the serenity module")
		}
		dir = parent
	}
}

// buildServer compiles cmd/serenityd from the checkout's own source into dir
// and reports how long the build took; the time is printed, never measured as
// set-up.
func buildServer(ctx context.Context, root, dir string) (string, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, err
	}
	bin := filepath.Join(dir, "serenityd")
	start := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/serenityd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/serenityd: %w\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// harness owns every child process and every file of one benchmark run.
// close is safe on every exit path: it kills what is still running, waits for
// it, and removes the run directory.
type harness struct {
	bin string
	dir string // this run's private directory under buildDirName

	mu    sync.Mutex
	procs []*proc
}

func newHarness(bin, parent string) (*harness, error) {
	dir, err := os.MkdirTemp(parent, "run-")
	if err != nil {
		return nil, err
	}
	return &harness{bin: bin, dir: dir}, nil
}

func (h *harness) close() {
	h.mu.Lock()
	procs := h.procs
	h.procs = nil
	h.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
	os.RemoveAll(h.dir)
}

// storeDir returns a fresh directory for one server's -store-dir.
func (h *harness) storeDir(name string) (string, error) {
	return os.MkdirTemp(h.dir, name+"-")
}

// freeAddrs reserves n distinct loopback ports by binding them all and then
// releasing them. Holding them together matters: two bind-and-release calls
// in a row can be handed the same port, and a node that lost its port to a
// sibling would still look ready, because the sibling answers /readyz.
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

// proc is one serenityd child.
type proc struct {
	cmd    *exec.Cmd
	addr   string
	url    string
	stderr bytes.Buffer
	exited chan struct{} // closed once Wait has returned
	err    error         // Wait's result, valid after exited
}

// serverFlags is the production-shaped configuration every workload runs the
// unmodified binary under: governor on but never shedding, persistent tier
// on, tracing off.
func serverFlags(addr, storeDir string) []string {
	return []string{
		"-addr", addr,
		"-parallelism", "2",
		"-compile-slots", "2",
		"-mem-limit", "1024MiB", // 1 GiB; the flag parser knows no GiB suffix
		"-store-dir", storeDir,
		"-trace-sample", "0",
		"-log-level", "error",
	}
}

// start spawns serenityd with args and waits until /readyz answers 200. A
// child that exits first fails loudly with its stderr.
func (h *harness) start(ctx context.Context, addr string, args ...string) (*proc, error) {
	p := &proc{addr: addr, url: "http://" + addr, exited: make(chan struct{})}
	p.cmd = exec.Command(h.bin, args...)
	p.cmd.Stdout = io.Discard
	p.cmd.Stderr = &p.stderr
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting serenityd: %w", err)
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.exited)
	}()
	h.mu.Lock()
	h.procs = append(h.procs, p)
	h.mu.Unlock()

	deadline := time.NewTimer(20 * time.Second)
	defer deadline.Stop()
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	client := &http.Client{Timeout: time.Second}
	for {
		if resp, err := client.Get(p.url + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				client.CloseIdleConnections()
				return p, nil
			}
		}
		select {
		case <-p.exited:
			return nil, p.exitError("before it was ready")
		case <-deadline.C:
			p.kill()
			return nil, fmt.Errorf("serenityd on %s not ready after 20s\n%s", addr, p.stderr.String())
		case <-ctx.Done():
			p.kill()
			return nil, ctx.Err()
		case <-tick.C:
		}
	}
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// alive reports whether the child is still running.
func (p *proc) alive() bool {
	select {
	case <-p.exited:
		return false
	default:
		return true
	}
}

func (p *proc) exitError(when string) error {
	return fmt.Errorf("serenityd on %s exited %s: %v\n%s", p.addr, when, p.err, p.stderr.String())
}

// stop asks for a graceful shutdown (drain, then store flush) and waits for
// the exit; a child that ignores SIGTERM for 20s is killed and reported.
func (p *proc) stop() error {
	if !p.alive() {
		return p.exitError("before it was stopped")
	}
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-p.exited:
		if p.err != nil {
			return p.exitError("uncleanly on SIGTERM")
		}
		return nil
	case <-time.After(20 * time.Second):
		p.kill()
		return fmt.Errorf("serenityd on %s ignored SIGTERM for 20s", p.addr)
	}
}

// kill ends the child immediately and waits for it. Idempotent.
func (p *proc) kill() {
	if p.alive() {
		p.cmd.Process.Kill()
	}
	<-p.exited
}

// clockTick is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat. It is 100 on every Linux configuration Go supports.
const clockTick = 100

// cpuSeconds reads utime+stime of pid from /proc.
func cpuSeconds(pid int) (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces and parentheses; fields resume after
	// the last ')'. utime and stime are fields 14 and 15 of the whole line,
	// so 12 and 13 of the remainder (which starts at field 3).
	rest := data[bytes.LastIndexByte(data, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad cpu fields in /proc/%d/stat", pid)
	}
	return float64(ut+st) / clockTick, nil
}

// selfCPUSeconds is this process's own CPU time. The client's share of a tiny
// run is less than one clock tick, so it is read from getrusage, which counts
// in microseconds.
func selfCPUSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), nil
}

// peakRSSMiB reads VmHWM, the resident-set high-water mark, of pid.
func peakRSSMiB(pid int) (float64, error) {
	f, err := os.Open("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("bad VmHWM in /proc/%d/status: %q", pid, rest)
			}
			return float64(kb) / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// promSample is one scrape of /metrics: series text (name plus label set,
// exactly as exposed) to value.
type promSample map[string]float64

// parseProm reads the Prometheus text exposition format, which serenityd
// writes without timestamps or escapes inside label values.
func parseProm(r io.Reader) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line without a value: %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

// scrape fetches and parses p's /metrics.
func (p *proc) scrape() (promSample, error) {
	resp, err := http.Get(p.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics on %s: %s", p.addr, resp.Status)
	}
	return parseProm(resp.Body)
}

// add accumulates other into s; a multi-round workload sums its rounds'
// counter deltas this way.
func (s promSample) add(other promSample) {
	for k, v := range other {
		s[k] += v
	}
}

// delta returns after − before for every series of after.
func (after promSample) delta(before promSample) promSample {
	d := make(promSample, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// sum adds up every series of a metric family, whatever its labels.
func (s promSample) sum(family string) float64 {
	var t float64
	for k, v := range s {
		if k == family || strings.HasPrefix(k, family+"{") {
			t += v
		}
	}
	return t
}
