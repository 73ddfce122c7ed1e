package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"kvcc/server"
)

// daemon is one kvccd child process listening on loopback.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	log     *os.File
	exited  chan struct{}
	waitErr error
}

// freePort asks the kernel for an unused loopback port. kvccd does not
// report the port it bound, so the driver picks one and passes it in.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon execs kvccd with args plus a loopback -addr, appending its
// output to logPath.
func startDaemon(bin, logPath string, args ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	log, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append(args, "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = log, log
	// If the driver dies, the kernel kills kvccd too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("start kvccd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, log: log, exited: make(chan struct{})}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	return d, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// waitHealthy polls /healthz until it answers 200, the process exits, or
// the timeout passes.
func (d *daemon) waitHealthy(timeout time.Duration) error {
	c := newClient(d.base)
	deadline := time.Now().Add(timeout)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		err := c.Health(ctx)
		cancel()
		if err == nil {
			return nil
		}
		select {
		case <-d.exited:
			return fmt.Errorf("kvccd exited before serving: %v (see %s)", d.waitErr, d.log.Name())
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("kvccd not healthy after %s: %w", timeout, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop sends SIGTERM, which makes kvccd drain and close its stores, and
// waits for the process to end; after 20 s it is killed.
func (d *daemon) stop() error {
	defer d.log.Close()
	select {
	case <-d.exited:
		return nil
	default:
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-d.exited:
		return nil
	case <-time.After(20 * time.Second):
	}
	d.cmd.Process.Kill()
	<-d.exited
	return fmt.Errorf("kvccd ignored SIGTERM for 20s and was killed")
}

// kill ends the process at once, as a crash would, and waits for it.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
	d.log.Close()
}

// countingClient is a server.Client whose transport counts response body
// bytes. Retry stays nil and HedgeDelay 0, so each op is one attempt and a
// first-attempt failure counts as failed.
type countingClient struct {
	*server.Client
	bytes *atomic.Int64
}

func newClient(base string) countingClient {
	n := new(atomic.Int64)
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 4
	return countingClient{
		Client: &server.Client{BaseURL: base, HTTPClient: &http.Client{Transport: countingTransport{tr, n}}},
		bytes:  n,
	}
}

type countingTransport struct {
	rt http.RoundTripper
	n  *atomic.Int64
}

func (t countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.rt.RoundTrip(r)
	if err == nil {
		resp.Body = &countingBody{resp.Body, t.n}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}
