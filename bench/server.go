package main

import (
	"bytes"
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

	"repro/internal/api"
)

// paths locates the checkout: the benchmark may be started from the root (by
// bench/run.sh) or from bench/ (go run .).
type paths struct {
	root  string // the checkout, where go.mod says "module repro"
	build string // root/.bench_build: binaries, caches, store directories
	out   string // where result.json and traces go
}

func findPaths(out string) (paths, error) {
	for _, rel := range []string{".", ".."} {
		root, err := filepath.Abs(rel)
		if err != nil {
			return paths{}, err
		}
		if _, err := os.Stat(filepath.Join(root, "cmd", "tvdp-server", "main.go")); err != nil {
			continue
		}
		if _, err := os.Stat(filepath.Join(root, "bench", "go.mod")); err != nil {
			continue
		}
		p := paths{root: root, build: filepath.Join(root, ".bench_build"), out: out}
		if p.out == "" {
			p.out = filepath.Join(root, "bench", "out")
		}
		for _, d := range []string{filepath.Join(p.build, "bin"), filepath.Join(p.build, "tmp"), p.out} {
			if err := os.MkdirAll(d, 0o755); err != nil {
				return paths{}, err
			}
		}
		return p, nil
	}
	return paths{}, fmt.Errorf("bench: run from the root of the repository or from bench/ (cmd/tvdp-server not found)")
}

// buildServer compiles ./cmd/tvdp-server from the checkout's source into
// .bench_build/bin. The Go build cache and temporary files stay inside the
// checkout unless the caller already pointed them elsewhere.
func buildServer(p paths) (string, error) {
	bin := filepath.Join(p.build, "bin", "tvdp-server")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/tvdp-server")
	cmd.Dir = p.root
	cmd.Env = os.Environ()
	if os.Getenv("GOCACHE") == "" {
		cmd.Env = append(cmd.Env, "GOCACHE="+filepath.Join(p.build, "gocache"))
	}
	if os.Getenv("GOTMPDIR") == "" {
		cmd.Env = append(cmd.Env, "GOTMPDIR="+filepath.Join(p.build, "tmp"))
	}
	cmd.Env = append(cmd.Env, "GOWORK=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building tvdp-server: %v\n%s", err, out)
	}
	return bin, nil
}

// server is one tvdp-server child process on a loopback port.
type server struct {
	cmd     *exec.Cmd
	baseURL string
	log     *os.File
	exited  chan struct{} // closed once the process has been waited for
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := ln.Addr().(*net.TCPAddr).Port
	return port, ln.Close()
}

// startServer execs the server on dir and returns once an authenticated
// request gets a 2xx; the second result is the time from exec to that reply.
func startServer(bin, dir, key string, args ...string) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.OpenFile(dir+".log", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr, "-dir", dir}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the benchmark is killed, the server must not outlive it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	begin := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, err
	}
	s := &server{cmd: cmd, baseURL: "http://" + addr, log: logf, exited: make(chan struct{})}
	go func() { cmd.Wait(); close(s.exited) }()
	c := api.NewClientTimeout(s.baseURL, key, 2*time.Second)
	c.HTTP.Transport = &http.Transport{DisableKeepAlives: true}
	for {
		if _, err := c.ListClassifications(); err == nil {
			return s, time.Since(begin), nil
		}
		select {
		case <-s.exited:
			logf.Close()
			tail, _ := os.ReadFile(dir + ".log")
			return nil, 0, fmt.Errorf("tvdp-server exited before serving: %s", lastLines(tail, 5))
		case <-time.After(2 * time.Millisecond):
		}
		if time.Since(begin) > 60*time.Second {
			s.kill()
			return nil, 0, fmt.Errorf("tvdp-server not ready after 60 s")
		}
	}
}

func lastLines(b []byte, n int) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, " | ")
}

// kill sends SIGKILL and waits for the process to be gone. The kernel keeps
// what the process had written: this is a process crash, not a power cut.
func (s *server) kill() {
	if s == nil {
		return
	}
	s.cmd.Process.Signal(syscall.SIGKILL)
	<-s.exited
	s.log.Close()
}

// procField reads one "Key:   value unit" line of /proc/<pid>/<file>.
func (s *server) procField(file, key string) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/%s", s.cmd.Process.Pid, file))
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if f := strings.Fields(string(line)); len(f) >= 2 && f[0] == key+":" {
			return strconv.ParseFloat(f[1], 64)
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/%s", key, s.cmd.Process.Pid, file)
}

// rssPeakMB is the high-water mark of the server's resident set.
func (s *server) rssPeakMB() (float64, error) {
	kb, err := s.procField("status", "VmHWM")
	return kb / 1024, err
}

// writeBytes is what the server has caused to be sent to the storage layer.
func (s *server) writeBytes() (float64, error) { return s.procField("io", "write_bytes") }

// dirBytes sums the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n
}
