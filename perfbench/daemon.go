package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicks is the kernel's USER_HZ, the unit of utime and stime in
// /proc/<pid>/stat; it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// daemon is one running topkd process.
type daemon struct {
	cmd  *exec.Cmd
	addr string

	mu   sync.Mutex
	tail []string // last lines of the daemon's log, for diagnostics

	logDone chan struct{} // closed when the log pipe reaches EOF
	stopped bool
}

// startDaemon launches bin with args on a loopback port the kernel picks
// and returns once the daemon logs the address it listens on.
func startDaemon(bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	logs, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, logDone: make(chan struct{})}
	ready := make(chan string, 1)
	go func() {
		defer close(d.logDone)
		sc := bufio.NewScanner(logs)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.tail = append(d.tail, line)
			if len(d.tail) > 20 {
				d.tail = d.tail[1:]
			}
			d.mu.Unlock()
			if _, addr, ok := strings.Cut(line, "topkd: listening on "); ok {
				select {
				case ready <- addr:
				default:
				}
			}
		}
	}()
	select {
	case d.addr = <-ready:
		return d, nil
	case <-d.logDone:
		d.stop()
		return nil, fmt.Errorf("topkd exited before listening: %s", d.logTail())
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, fmt.Errorf("topkd not listening after 60s: %s", d.logTail())
	}
}

func (d *daemon) logTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, " | ")
}

// cpu returns the daemon's user+system CPU time so far.
func (d *daemon) cpu() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("%v (daemon log: %s)", err, d.logTail())
	}
	// The command name may hold spaces; fields resume after its ')'.
	s := string(data)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad /proc stat times")
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// peakRSS returns the daemon's peak resident set size in MB (VmHWM).
func (d *daemon) peakRSS() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status: the daemon has exited (log: %s)", d.logTail())
}

// stop ends the daemon gracefully (SIGTERM, which drains requests and
// closes the WAL) and waits for it; after 20s it is killed. It returns an
// error when the daemon did not exit cleanly.
func (d *daemon) stop() error {
	if d.stopped {
		return nil
	}
	d.stopped = true
	d.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan error, 1)
	go func() {
		<-d.logDone
		exited <- d.cmd.Wait()
	}()
	select {
	case err := <-exited:
		if err != nil {
			return fmt.Errorf("topkd exit: %v (%s)", err, d.logTail())
		}
		return nil
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-exited
		return errors.New("topkd ignored SIGTERM for 20s and was killed")
	}
}
