package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// daemon is one selestd process listening on a loopback port.
type daemon struct {
	cmd      *exec.Cmd
	launched time.Time
	base     string
	log      string
	exited   chan struct{}
	err      error // set before exited closes
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon launches bin with args plus a fresh -addr; its output goes
// to logPath.
func startDaemon(bin string, args []string, logPath string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should the benchmark die without stopping it, the daemon goes too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	launched := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start selestd: %w", err)
	}
	d := &daemon{cmd: cmd, launched: launched, base: "http://" + addr, log: logPath, exited: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		logf.Close()
		close(d.exited)
	}()
	running.Store(d)
	return d, nil
}

// running is the daemon currently up, for the deadline and signal
// handlers in main.
var running atomic.Pointer[daemon]

// kill stops the process at once and waits for it to exit.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

// waitReady polls probe until it succeeds and returns the time from the
// process launch to the first success.
func (d *daemon) waitReady(probe func() bool, timeout time.Duration) (time.Duration, error) {
	for time.Since(d.launched) < timeout {
		select {
		case <-d.exited:
			return 0, fmt.Errorf("selestd exited during start-up (%v); log:\n%s", d.err, d.logTail())
		default:
		}
		if probe() {
			return time.Since(d.launched), nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return 0, fmt.Errorf("selestd not answering after %s; log:\n%s", timeout, d.logTail())
}

// stop sends SIGTERM, letting the daemon drain, and waits for it to
// exit; past the grace period it is killed.
func (d *daemon) stop() error {
	select {
	case <-d.exited:
		return nil
	default:
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.exited:
		return nil
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
		return fmt.Errorf("selestd ignored SIGTERM for 30s; killed")
	}
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(data)
}

func parseVmHWM(status []byte) (float64, error) {
	sc := bufio.NewScanner(bytes.NewReader(status))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in process status")
}

func (d *daemon) logTail() string {
	data, _ := os.ReadFile(d.log)
	if len(data) > 4000 {
		data = data[len(data)-4000:]
	}
	return string(data)
}
