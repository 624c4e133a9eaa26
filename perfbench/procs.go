package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tatooine/internal/datagen"
	"tatooine/internal/federation"
	"tatooine/internal/server"
	"tatooine/internal/source"
)

// proc is a child process whose output goes to a log file.
type proc struct {
	cmd  *exec.Cmd
	done chan struct{}
	err  error
}

var (
	procsMu sync.Mutex
	procs   = map[*proc]bool{}
)

// startProc launches name with args, appending its stdout and stderr to
// logPath (stdout instead to a pipe when pipeOut is set).
func startProc(logPath string, env []string, pipeOut bool, name string, args ...string) (*proc, io.Reader, error) {
	lf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(lf, "\n=== %s %s\n", filepath.Base(name), strings.Join(args, " "))
	cmd := exec.Command(name, args...)
	cmd.Env = append(os.Environ(), env...)
	// The child dies with the benchmark, even if the benchmark crashes.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = lf
	var out io.Reader
	if pipeOut {
		if out, err = cmd.StdoutPipe(); err != nil {
			lf.Close()
			return nil, nil, err
		}
	} else {
		cmd.Stdout = lf
	}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, nil, err
	}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	procsMu.Lock()
	procs[p] = true
	procsMu.Unlock()
	go func() {
		p.err = cmd.Wait()
		lf.Close()
		procsMu.Lock()
		delete(procs, p)
		procsMu.Unlock()
		close(p.done)
	}()
	return p, out, nil
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// stop asks the process to shut down cleanly (SIGTERM) and waits for it,
// killing it after timeout.
func (p *proc) stop(timeout time.Duration) error {
	if p.exited() {
		return p.err
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
		return p.err
	case <-time.After(timeout):
		_ = p.cmd.Process.Kill()
		<-p.done
		return fmt.Errorf("%s did not stop within %v", filepath.Base(p.cmd.Path), timeout)
	}
}

// killAll kills every child still running and waits for each to end.
func killAll() {
	procsMu.Lock()
	var ps []*proc
	for p := range procs {
		ps = append(ps, p)
	}
	procsMu.Unlock()
	for _, p := range ps {
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// onSignal kills the children when the benchmark itself is interrupted.
func onSignal() {
	c := make(chan os.Signal, 1)
	signal.Notify(c, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-c
		killAll()
		os.Exit(2)
	}()
}

// statusMB reads a memory field of /proc/<pid>/status ("VmHWM", "VmRSS")
// in MB.
func statusMB(pid int, field string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, field+":") {
			f := strings.Fields(line)
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s for pid %d", field, pid)
}

// secondPeaks returns the high-water resident size of each whole second
// until stop is closed: it resets the process's VmHWM
// (/proc/<pid>/clear_refs) at the start of each second and reads it at
// the end.
func secondPeaks(pid int, stop <-chan struct{}) (samples, error) {
	clear := fmt.Sprintf("/proc/%d/clear_refs", pid)
	if err := os.WriteFile(clear, []byte("5"), 0); err != nil {
		return nil, err
	}
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	var peaks samples
	for {
		select {
		case <-stop:
			return peaks, nil
		case <-tick.C:
			v, err := statusMB(pid, "VmHWM")
			if err != nil {
				return nil, err
			}
			peaks = append(peaks, v)
			if err := os.WriteFile(clear, []byte("5"), 0); err != nil {
				return nil, err
			}
		}
	}
}

// cpuTimes is the machine-wide steal and total jiffies of /proc/stat.
type cpuTimes struct{ steal, total float64 }

func cpuSteal() cpuTimes {
	var t cpuTimes
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return t
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// minus returns the share of CPU time stolen since an earlier reading.
func (t cpuTimes) minus(before cpuTimes) float64 {
	return ratio(t.steal-before.steal, t.total-before.total)
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// copyDir copies the regular files of a directory tree.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if fi.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n, err
}

// mediator is one running `tatooine serve` process.
type mediator struct {
	p    *proc
	base string
}

// serveArgs are the production command line for the workload: dataset
// shape, listen address and, for the durable workload, the data
// directory with its memory caps. No ablation flag is set.
func (r *runner) serveArgs(port int, dataDir string) []string {
	w := r.w
	args := []string{
		"-seed", strconv.Itoa(dataSeed),
		"-politicians", strconv.Itoa(w.politicians),
		"-tweets", strconv.Itoa(w.tweets),
		"serve", "-addr", fmt.Sprintf("127.0.0.1:%d", port),
	}
	if w.durable {
		args = append(args, "-data-dir", dataDir,
			"-page-cache-mb", strconv.Itoa(w.pageCacheMB),
			"-join-mem-budget", strconv.Itoa(w.joinBudgetMB))
	}
	return args
}

// startMediator launches the mediator and returns once it answers
// /healthz (and, for the federated workload, once the two remote
// sources replace the local ones). The returned duration is the set-up
// time a user waits for.
func (r *runner) startMediator(dataDir string) (*mediator, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	p, _, err := startProc(filepath.Join(r.runDir, "mediator.log"), []string{"TMPDIR=" + r.tmpDir}, false, r.bin, r.serveArgs(port, dataDir)...)
	if err != nil {
		return nil, 0, err
	}
	m := &mediator{p: p, base: fmt.Sprintf("http://127.0.0.1:%d", port)}
	hc := &http.Client{Timeout: 2 * time.Second}
	for {
		if p.exited() {
			return nil, 0, fmt.Errorf("mediator exited during start-up (%v); see %s", p.err, filepath.Join(r.runDir, "mediator.log"))
		}
		if time.Since(start) > 5*time.Minute {
			p.stop(10 * time.Second)
			return nil, 0, fmt.Errorf("mediator not ready after 5m")
		}
		resp, err := hc.Get(m.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if r.w.federated {
		for _, s := range []struct{ uri, path string }{{datagen.TweetsURI, "/tweets"}, {datagen.INSEEURI, "/insee"}} {
			if err := m.swapSource(s.uri, r.remoteBase+s.path); err != nil {
				m.p.stop(10 * time.Second)
				return nil, 0, err
			}
		}
	}
	return m, time.Since(start), nil
}

// swapSource drops a local source and registers the remote endpoint that
// serves the same data, through the mediator's public routes.
func (m *mediator) swapSource(uri, url string) error {
	req, _ := http.NewRequest(http.MethodDelete, m.base+"/sources?uri="+uri, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("DELETE /sources %s: status %d", uri, resp.StatusCode)
	}
	body, _ := json.Marshal(server.SourceRequest{URL: url})
	resp, err = http.Post(m.base+"/sources", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var sr server.SourceResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil || resp.StatusCode != http.StatusOK || sr.URI != uri {
		return fmt.Errorf("POST /sources %s: status %d, uri %q, error %q", url, resp.StatusCode, sr.URI, sr.Error)
	}
	return nil
}

// startRemote launches the federated workload's remote-source process
// and returns its base URL.
func (r *runner) startRemote() (*proc, string, error) {
	p, out, err := startProc(filepath.Join(r.runDir, "remote.log"), []string{"TMPDIR=" + r.tmpDir}, true, r.self, "remote")
	if err != nil {
		return nil, "", err
	}
	line := make(chan string, 1)
	go func() {
		s := bufio.NewScanner(out)
		if s.Scan() {
			line <- s.Text()
		}
		close(line)
		io.Copy(io.Discard, out)
	}()
	select {
	case addr, ok := <-line:
		if !ok {
			p.stop(10 * time.Second)
			return nil, "", fmt.Errorf("remote source process exited before listening")
		}
		// Build both remote digests now, so every set-up round of the
		// mediator finds the remote equally warm.
		base := "http://" + addr
		for _, path := range []string{"/tweets/digest", "/insee/digest"} {
			resp, err := http.Get(base + path)
			if err != nil {
				p.stop(10 * time.Second)
				return nil, "", err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		return p, base, nil
	case <-time.After(2 * time.Minute):
		p.stop(10 * time.Second)
		return nil, "", fmt.Errorf("remote source process not ready after 2m")
	}
}

// remoteCounters is the federated workload's middleware around
// federation.Handler: it injects the fixed per-request delay and counts
// requests, bytes both ways and handler time.
type remoteCounters struct {
	requests, bytes atomic.Int64
	mu              sync.Mutex
	handlerNs       []int64
}

// remoteStats is the JSON of GET /bench/counters.
type remoteStats struct {
	Requests  int64   `json:"requests"`
	Bytes     int64   `json:"bytes"`
	Samples   int     `json:"samples"`   // handler times recorded so far
	HandlerNs []int64 `json:"handlerNs"` // those recorded since ?from=
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

type countingWriter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (w countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n.Add(int64(n))
	return n, err
}

func (c *remoteCounters) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c.requests.Add(1)
		time.Sleep(remoteDelayMs * time.Millisecond)
		r.Body = countingBody{r.Body, &c.bytes}
		start := time.Now()
		h.ServeHTTP(countingWriter{w, &c.bytes}, r)
		d := time.Since(start).Nanoseconds()
		c.mu.Lock()
		if len(c.handlerNs) < 1<<20 {
			c.handlerNs = append(c.handlerNs, d)
		}
		c.mu.Unlock()
	})
}

func (c *remoteCounters) serve(w http.ResponseWriter, r *http.Request) {
	from, _ := strconv.Atoi(r.URL.Query().Get("from"))
	c.mu.Lock()
	st := remoteStats{Requests: c.requests.Load(), Bytes: c.bytes.Load(), Samples: len(c.handlerNs)}
	if from < len(c.handlerNs) {
		st.HandlerNs = append([]int64(nil), c.handlerNs[from:]...)
	}
	c.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

// runRemote is the `remote` subcommand: it serves solr://tweets and
// sql://insee of the federated workload's dataset through
// federation.Handler on a loopback port, each request delayed by
// remoteDelayMs, prints the address on its first output line, and exits
// on SIGTERM.
func runRemote() error {
	ds, err := datagen.Generate(workloads["federated"].config())
	if err != nil {
		return err
	}
	c := &remoteCounters{}
	mux := http.NewServeMux()
	mount := func(prefix string, src source.DataSource) {
		mux.Handle(prefix+"/", http.StripPrefix(prefix, c.wrap(federation.Handler(src))))
	}
	mount("/tweets", source.NewDocSource(datagen.TweetsURI, ds.Tweets))
	mount("/insee", source.NewRelSource(datagen.INSEEURI, ds.INSEE))
	mux.HandleFunc("GET /bench/counters", c.serve)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := server.NewHTTPServer("", mux)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		<-sig
		srv.Close()
	}()
	fmt.Println(ln.Addr().String())
	if err := srv.Serve(ln); err != http.ErrServerClosed {
		return err
	}
	return nil
}
