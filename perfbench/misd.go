package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// misdTimeout bounds each lifecycle step: reporting the address,
// becoming ready, exiting after SIGTERM.
const misdTimeout = 30 * time.Second

// misdProc is one misd child process, started with default flags on an
// ephemeral loopback port.
type misdProc struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan struct{}
	err    error // cmd.Wait's result, valid once exited is closed
}

// startMisd starts bin in dir and returns once /v1/readyz answers 200.
// It fails if misd exits first or is not ready within misdTimeout.
func startMisd(bin, dir string) (*misdProc, error) {
	addr := &addrWriter{found: make(chan string, 1)}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Dir = dir
	cmd.Stdout = addr
	cmd.Stderr = os.Stderr
	// If the benchmark dies, misd goes with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start misd: %w", err)
	}
	p := &misdProc{cmd: cmd, exited: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		close(p.exited)
	}()
	deadline := time.After(misdTimeout)
	select {
	case a := <-addr.found:
		p.base = "http://" + a
	case <-p.exited:
		return nil, fmt.Errorf("misd exited before listening: %v", p.err)
	case <-deadline:
		p.kill()
		return nil, errors.New("misd did not report a listen address within 30s")
	}
	p.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
	for {
		select {
		case <-p.exited:
			return nil, fmt.Errorf("misd exited before ready: %v", p.err)
		case <-deadline:
			p.kill()
			return nil, errors.New("misd not ready within 30s")
		default:
		}
		if status, _, err := p.get("/v1/readyz"); err == nil && status == http.StatusOK {
			return p, nil
		}
		time.Sleep(time.Millisecond)
	}
}

// alive reports whether misd is still running.
func (p *misdProc) alive() bool {
	select {
	case <-p.exited:
		return false
	default:
		return true
	}
}

// stop sends SIGTERM and waits for misd to exit; it kills misd if the
// graceful shutdown takes longer than misdTimeout. A non-zero exit is
// an error: misd crashed or refused to drain.
func (p *misdProc) stop() error {
	p.client.CloseIdleConnections()
	if !p.alive() {
		return fmt.Errorf("misd exited early: %v", p.err)
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // an exit racing the signal is seen below
	select {
	case <-p.exited:
	case <-time.After(misdTimeout):
		p.kill()
		return errors.New("misd did not exit within 30s of SIGTERM")
	}
	if p.err != nil {
		return fmt.Errorf("misd exit: %w", p.err)
	}
	return nil
}

// kill ends misd without grace and waits for it.
func (p *misdProc) kill() {
	_ = p.cmd.Process.Kill() // already exited is fine
	<-p.exited
}

// addrWriter receives misd's stdout and reports the address from its
// "misd: listening on ADDR (...)" line.
type addrWriter struct {
	mu    sync.Mutex
	buf   []byte
	found chan string
	sent  bool
}

func (w *addrWriter) Write(b []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.sent {
		return len(b), nil
	}
	w.buf = append(w.buf, b...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			return len(b), nil
		}
		line := string(w.buf[:i])
		w.buf = w.buf[i+1:]
		if rest, ok := strings.CutPrefix(line, "misd: listening on "); ok {
			w.found <- strings.Fields(rest)[0]
			w.sent = true
			w.buf = nil
			return len(b), nil
		}
	}
}

// procCPU returns the process's user+system CPU time from
// /proc/<pid>/stat (all threads, 10 ms ticks).
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("parse /proc/%d/stat: %d fields", pid, len(f))
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat times", pid)
	}
	const tick = 10 * time.Millisecond // USER_HZ is 100 on Linux
	return time.Duration(utime+stime) * tick, nil
}

// procStatusMB returns a size field of /proc/<pid>/status, such as
// "VmHWM" (peak resident set) or "VmRSS", in MB.
func procStatusMB(pid int, field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse %s: %w", field, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// rssEvery is the resident-set sampling period: a few hundred samples
// per run, each a small /proc read.
const rssEvery = 20 * time.Millisecond

// rssSampler samples a process's resident set until stopped.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
	err     error
}

// sampleRSS starts sampling pid's VmRSS every rssEvery.
func sampleRSS(pid int) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			mb, err := procStatusMB(pid, "VmRSS")
			if err != nil {
				s.err = err
				return
			}
			s.samples = append(s.samples, mb)
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns its samples.
func (s *rssSampler) finish() ([]float64, error) {
	close(s.stop)
	<-s.done
	return s.samples, s.err
}

// jobView is the slice of misd's job snapshot the benchmark reads.
type jobView struct {
	ID      string  `json:"id"`
	Status  string  `json:"status"`
	Error   string  `json:"error"`
	Cached  bool    `json:"cached"`
	QueueMs float64 `json:"queue_ms"`
	RunMs   float64 `json:"run_ms"`
}

// get issues a GET and returns status and body.
func (p *misdProc) get(path string) (int, []byte, error) {
	resp, err := p.client.Get(p.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// submit POSTs a spec and decodes the job snapshot.
func (p *misdProc) submit(spec []byte) (jobView, int, error) {
	resp, err := p.client.Post(p.base+"/v1/scenarios", "application/json", bytes.NewReader(spec))
	if err != nil {
		return jobView{}, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return jobView{}, resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return jobView{}, resp.StatusCode, fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var v jobView
	if err := json.Unmarshal(body, &v); err != nil {
		return jobView{}, resp.StatusCode, fmt.Errorf("submit: %w", err)
	}
	return v, resp.StatusCode, nil
}

// await follows the job's SSE stream to its terminal "status" event and
// returns that snapshot. Completion is observed as misd publishes it,
// not by polling at an interval.
func (p *misdProc) await(id string) (jobView, error) {
	resp, err := p.client.Get(p.base + "/v1/scenarios/" + id + "/events")
	if err != nil {
		return jobView{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return jobView{}, fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	terminal := false
	var v jobView
	for sc.Scan() {
		line := sc.Text()
		if line == "event: status" {
			terminal = true
			continue
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok && terminal {
			if err := json.Unmarshal([]byte(data), &v); err != nil {
				return jobView{}, fmt.Errorf("events: %w", err)
			}
			// Drain to the end of the stream so the connection is reused.
			_, _ = io.Copy(io.Discard, resp.Body)
			return v, nil
		}
	}
	if err := sc.Err(); err != nil {
		return jobView{}, fmt.Errorf("events: %w", err)
	}
	return jobView{}, errors.New("events: stream ended without a status event")
}

// fetch GETs the job's result bytes.
func (p *misdProc) fetch(id string) ([]byte, error) {
	status, body, err := p.get("/v1/scenarios/" + id + "/result")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("result: HTTP %d: %s", status, bytes.TrimSpace(body))
	}
	return body, nil
}

// sample is one series of misd's /metrics.json exposition.
type sample struct {
	Name   string  `json:"name"`
	Labels string  `json:"labels"`
	Value  float64 `json:"value"`
}

// scrape reads /metrics.json, indexed by name and labels.
type scrape map[string]sample

func (s scrape) value(name string) float64 { return s[name+"|"].Value }

func (p *misdProc) scrape() (scrape, error) {
	status, body, err := p.get("/metrics.json")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/metrics.json: HTTP %d", status)
	}
	var samples []sample
	if err := json.Unmarshal(body, &samples); err != nil {
		return nil, fmt.Errorf("/metrics.json: %w", err)
	}
	out := make(scrape, len(samples))
	for _, s := range samples {
		out[s.Name+"|"+s.Labels] = s
	}
	return out, nil
}
