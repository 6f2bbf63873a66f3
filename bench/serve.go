package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"thermbal/internal/experiment"
	"thermbal/internal/service"
	"thermbal/internal/store"
)

// Load shape of the service workloads. Generation runs in one process
// over at most maxConns connections, so it never needs more than the
// two cores the rates were sized on. Each connection is busy for the
// round trip plus the generator's timer slop (about 0.5 ms), so the
// high rates keep every connection idle most of the time: when a
// neighbour on the shared host slowed it, serve-hot at 1000 req/s
// queued on its connections and its p90 tripled.
const (
	maxConns = 2

	coldLoRPS = 100
	coldHiRPS = 150
	hotLoRPS  = 250
	hotHiRPS  = 500

	// sampleEvery is the serve-cold re-execution sampling rate: one
	// body in sampleEvery is re-run in process and compared byte for
	// byte.
	sampleEvery = 20
)

// servd is one running thermservd process.
type servd struct {
	cmd    *exec.Cmd
	base   string
	log    *logWatch
	exited chan error
}

var listenRE = regexp.MustCompile(`listening on http://(\S+)`)

// logWatch is thermservd's stderr: it keeps the last lines for error
// reports and hands over the listen address once it is logged.
type logWatch struct {
	mu   sync.Mutex
	buf  []byte
	tail []string
	addr chan string
}

func (l *logWatch) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = append(l.buf, p...)
	for {
		i := bytes.IndexByte(l.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		line := string(l.buf[:i])
		l.buf = l.buf[i+1:]
		if len(l.tail) == 8 {
			l.tail = l.tail[1:]
		}
		l.tail = append(l.tail, line)
		if m := listenRE.FindStringSubmatch(line); m != nil {
			select {
			case l.addr <- m[1]:
			default:
			}
		}
	}
}

func (l *logWatch) lines() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.tail, " | ")
}

// startServd spawns thermservd on dataDir and returns once /healthz
// answers 200, with the time from exec to that answer: the service's
// set-up time, which includes replaying the store in dataDir.
func startServd(o Options, client *http.Client, dataDir string) (*servd, time.Duration, error) {
	lw := &logWatch{addr: make(chan string, 1)}
	cmd := sutCommand(o.Servd, "-addr", "127.0.0.1:0", "-data-dir", dataDir)
	cmd.Stderr = lw
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start thermservd: %w", err)
	}
	s := &servd{cmd: cmd, log: lw, exited: make(chan error, 1)}
	go func() { s.exited <- cmd.Wait() }()
	const limit = 60 * time.Second
	select {
	case addr := <-lw.addr:
		s.base = "http://" + addr
	case err := <-s.exited:
		return nil, 0, fmt.Errorf("thermservd exited before listening (%v): %s", err, lw.lines())
	case <-time.After(limit):
		s.kill()
		return nil, 0, fmt.Errorf("thermservd did not listen within %v: %s", limit, lw.lines())
	}
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		if time.Since(start) > limit {
			s.kill()
			return nil, 0, fmt.Errorf("thermservd /healthz not ready within %v: %s", limit, lw.lines())
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts thermservd down gracefully and waits for it to exit.
func (s *servd) stop() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-s.exited:
		if err != nil {
			return fmt.Errorf("thermservd exit: %w: %s", err, s.log.lines())
		}
		return nil
	case <-time.After(20 * time.Second):
		s.kill()
		return errors.New("thermservd ignored SIGTERM for 20 s")
	}
}

// kill stops thermservd forcibly and waits for it to exit.
func (s *servd) kill() {
	_ = s.cmd.Process.Kill()
	<-s.exited
}

func (s *servd) pid() string { return strconv.Itoa(s.cmd.Process.Pid) }

// cpuSeconds reads a process's user+system CPU time from
// /proc/<pid>/stat.
func cpuSeconds(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (USER_HZ, 100
	// on Linux).
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc/" + pid + "/stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc/" + pid + "/stat")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (ut + st) / 100, nil
}

// newClient is the generator's HTTP client: at most maxConns
// connections, kept alive between requests.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

// reply is one /run response.
type reply struct {
	status int
	body   []byte
	key    string // X-Content-Key
	cache  string // X-Cache
	timing string // X-Timing
}

// post sends one request body to url and reads the whole response.
func post(c *http.Client, url string, body []byte) (reply, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	r := reply{
		status: resp.StatusCode,
		body:   b,
		key:    resp.Header.Get("X-Content-Key"),
		cache:  resp.Header.Get("X-Cache"),
		timing: resp.Header.Get("X-Timing"),
	}
	if r.status != http.StatusOK {
		return r, fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(b))
	}
	return r, nil
}

// target is the request sequence a service workload sends: body(i) is
// request i's wire form and check(i, r) validates its reply. observe,
// when set, sees every successful reply.
type target struct {
	n       int // requests available; later indices fail
	body    func(i int) []byte
	check   func(i int, r reply) error
	observe func(r reply)
}

// sender returns the generator's request function for requests
// numbered from base: it posts, checks and records the outcome.
func sender(client *http.Client, url string, t target, rec *recorder, base int) func(i int) bool {
	return func(i int) bool {
		g := base + i
		var err error
		if g >= t.n {
			err = fmt.Errorf("request %d: the generated request pool (%d) is exhausted", g, t.n)
		} else {
			var r reply
			r, err = post(client, url, t.body(g))
			if err == nil {
				err = t.check(g, r)
			}
			if err == nil && t.observe != nil {
				t.observe(r)
			}
			if err != nil {
				err = fmt.Errorf("request %d: %w", g, err)
			}
		}
		rec.op(err)
		return err == nil
	}
}

// plan is a service run's load: open loop at loRPS for lo, then at
// hiRPS for hi.
type plan struct {
	loRPS, hiRPS float64
	lo, hi       time.Duration
}

// runPlan splits a run's seconds: a fifth at the low rate, which also
// warms the server's cache, and four fifths at the high rate, whose
// latency is gated.
func runPlan(seconds, loRPS, hiRPS float64) plan {
	sec := func(f float64) time.Duration { return time.Duration(f * seconds * float64(time.Second)) }
	return plan{loRPS: loRPS, hiRPS: hiRPS, lo: sec(0.2), hi: sec(0.8)}
}

// requests is how many requests p sends.
func (p plan) requests() int {
	return int(p.loRPS*p.lo.Seconds()) + int(p.hiRPS*p.hi.Seconds())
}

// loadResult is what the load phases measured.
type loadResult struct {
	lo, hi  phaseStats
	cpuMs   float64   // server CPU per request over both phases
	samples []sample  // both phases
	rss     []float64 // server RSS during the high-rate phase, MiB
}

// drive runs p against s. after, when non-nil, is called off the clock
// after each phase with the index range it sent.
func drive(client *http.Client, s *servd, t target, rec *recorder, p plan, after func(from, to int)) (loadResult, error) {
	var out loadResult
	url := s.base + "/run"
	clk := newRealClock()
	cpu0, err := cpuSeconds(s.pid())
	if err != nil {
		return out, err
	}
	next := 0
	for i, ph := range []struct {
		rate float64
		dur  time.Duration
	}{{p.loRPS, p.lo}, {p.hiRPS, p.hi}} {
		var rss *rssSampler
		if i == 1 {
			rss = sampleRSS(s.pid())
		}
		n := int(ph.rate * ph.dur.Seconds())
		ss := runOpenLoop(clk, maxConns, n, ph.rate, sender(client, url, t, rec, next))
		if i == 0 {
			out.lo = summarizePhase(ss)
		} else {
			out.hi = summarizePhase(ss)
			out.rss = rss.done()
		}
		out.samples = append(out.samples, ss...)
		if after != nil {
			after(next, next+n)
		}
		next += n
	}
	cpu1, err := cpuSeconds(s.pid())
	if err != nil {
		return out, err
	}
	out.cpuMs = (cpu1 - cpu0) * 1e3 / float64(max(next, 1))
	return out, nil
}

// spawnTimed starts thermservd processes one after another, each on a
// fresh data directory from mkDir, and records the median set-up time.
// Every process but the last is stopped; the last is returned running.
func spawnTimed(o Options, client *http.Client, rec *recorder, mkDir func(k int) (string, error)) (*servd, error) {
	var last *servd
	err := timeSetups(o.limits(), rec, func(k int) (time.Duration, error) {
		if last != nil {
			if err := last.stop(); err != nil {
				return 0, err
			}
			client.CloseIdleConnections()
			last = nil
		}
		dir, err := mkDir(k)
		if err != nil {
			return 0, err
		}
		s, d, err := startServd(o, client, dir)
		last = s
		return d, err
	})
	if err != nil && last != nil {
		last.kill()
	}
	return last, err
}

// scratchDir makes a fresh directory for the run's data.
func scratchDir(o Options, name string) (string, error) {
	dir := filepath.Join(o.scratch, name)
	return dir, os.Mkdir(dir, 0o755)
}

// ---------------------------------------------------------------------
// serve-cold: every key new, so every request executes.

// coldReq is one generated serve-cold request.
type coldReq struct {
	body  []byte
	canon service.Request
	rc    experiment.RunConfig
	key   string
}

// coldRequests generates n requests with distinct content keys:
// {sdr-radio, video-decoder, bursty-sdr} × {thermal-balance, stop-go}
// in turn, mobile, 2.5 s + 5 s windows, δ drawn from [2, 5] by the
// seed. Taking the six combinations in turn gives every seed the same
// mix of engine costs.
func coldRequests(seed int64, n int) ([]coldReq, error) {
	rng := rand.New(rand.NewPCG(uint64(seed), 0xc01d))
	scen := []string{"sdr-radio", "video-decoder", "bursty-sdr"}
	pols := []string{"thermal-balance", "stop-go"}
	seen := make(map[string]bool, n)
	out := make([]coldReq, 0, n)
	for len(out) < n {
		combo := len(out) % (len(scen) * len(pols))
		req := service.Request{
			Scenario: scen[combo%len(scen)],
			Policy:   pols[combo/len(scen)],
			Delta:    2 + 3*rng.Float64(),
			Package:  "mobile",
			WarmupS:  2.5,
			MeasureS: 5,
		}
		canon, rc, err := service.Canonicalize(req)
		if err != nil {
			return nil, err
		}
		key := canon.Key()
		if seen[key] {
			continue
		}
		seen[key] = true
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		out = append(out, coldReq{body: body, canon: canon, rc: rc, key: key})
	}
	return out, nil
}

// coldTarget sends reqs, checking each reply's content key against
// the in-process Key() and keeping the bodies of a seeded 1-in-20
// sample for re-execution.
func coldTarget(reqs []coldReq, seed int64) (target, *sampledBodies) {
	sb := &sampledBodies{bodies: map[int][]byte{}, pick: make([]bool, len(reqs))}
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5a3b1e))
	for i := range sb.pick {
		sb.pick[i] = rng.IntN(sampleEvery) == 0
	}
	return target{
		n:    len(reqs),
		body: func(i int) []byte { return reqs[i].body },
		check: func(i int, r reply) error {
			if r.key != reqs[i].key {
				return fmt.Errorf("X-Content-Key %q, want %q", r.key, reqs[i].key)
			}
			if sb.pick[i] {
				sb.put(i, r.body)
			}
			return nil
		},
	}, sb
}

// sampledBodies holds the reply bodies picked for re-execution.
type sampledBodies struct {
	mu     sync.Mutex
	pick   []bool
	bodies map[int][]byte
}

func (s *sampledBodies) put(i int, b []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bodies[i] = b
}

// verify re-executes the sampled requests in [from, to) in process and
// requires the served bytes to equal the re-encoded document.
func (s *sampledBodies) verify(reqs []coldReq, from, to int, rec *recorder) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := from; i < min(to, len(reqs)); i++ {
		got, ok := s.bodies[i]
		if !ok {
			continue // not sampled, or already failed
		}
		delete(s.bodies, i)
		res, _, err := experiment.Run(reqs[i].rc)
		var want []byte
		if err == nil {
			want, err = encodeRun(reqs[i].canon, res)
		}
		if err == nil && !bytes.Equal(got, want) {
			err = errors.New("served body differs from the in-process re-execution")
		}
		if err != nil {
			rec.fail(fmt.Errorf("request %d re-execution: %w", i, err))
		}
	}
}

// runCold is the untraced serve-cold workload.
func runCold(o Options, rec *recorder) error {
	p := runPlan(o.Seconds, coldLoRPS, coldHiRPS)
	reqs, err := coldRequests(o.Seed, p.requests())
	if err != nil {
		return err
	}
	client := newClient()
	defer client.CloseIdleConnections()
	s, err := spawnTimed(o, client, rec, func(k int) (string, error) {
		return scratchDir(o, fmt.Sprintf("cold%d", k))
	})
	if err != nil {
		return err
	}
	t, sb := coldTarget(reqs, o.Seed)
	load, err := drive(client, s, t, rec, p, func(from, to int) {
		sb.verify(reqs, from, to, rec)
	})
	return finishServe(s, rec, load, err)
}

// finishServe records the end-to-end metrics common to both service
// workloads and stops the server.
func finishServe(s *servd, rec *recorder, load loadResult, err error) error {
	hwm, herr := procMiB(s.pid(), "VmHWM")
	if serr := s.stop(); err == nil {
		err = errors.Join(herr, serr)
	}
	if err != nil {
		return err
	}
	if len(load.rss) == 0 {
		return errors.New("no RSS samples of thermservd")
	}
	tailNote(rec, "hi.p90_ms", serviceTailP, load.hi.n)
	rec.set("latency_ms", load.hi.p50, load.hi.n)
	rec.set("rss_mb", median(load.rss), len(load.rss))
	lates := lateUs(load.samples)
	for name, v := range map[string]float64{
		"lo.p50_ms": load.lo.p50, "lo.p90_ms": load.lo.p90, "lo.p99_ms": load.lo.p99,
		"hi.p90_ms": load.hi.p90, "hi.p99_ms": load.hi.p99,
		"gen.late_us.p50": quantile(lates, 0.5), "gen.late_us.p99": quantile(lates, 0.99),
		"peak_rss_mb": hwm,
	} {
		rec.diag(name, v)
	}
	return nil
}

// ---------------------------------------------------------------------
// serve-hot: a prefilled store, a Zipf-skewed key mix, no engine work.

// hotRequests lists the n prefill requests: six small scenarios ×
// {thermal-balance, stop-go} × both packages, 0.3 s + 0.7 s windows,
// δ on a fixed grid in [2, 5). The key set does not depend on the
// seed; the seed drives only the draws.
func hotRequests(n int) []service.Request {
	scen := []string{"sdr-radio", "video-decoder", "bursty-sdr", "pipeline-d4", "fanout-w4", "fanout-w8"}
	pols := []string{"thermal-balance", "stop-go"}
	pkgs := []string{"mobile", "high-performance"}
	combos := len(scen) * len(pols) * len(pkgs)
	perCombo := (n + combos - 1) / combos
	out := make([]service.Request, n)
	for i := range out {
		c, j := i%combos, i/combos
		out[i] = service.Request{
			Scenario: scen[c%len(scen)],
			Policy:   pols[(c/len(scen))%len(pols)],
			Package:  pkgs[c/(len(scen)*len(pols))],
			Delta:    2 + 3*float64(j)/float64(perCombo),
			WarmupS:  0.3,
			MeasureS: 0.7,
		}
	}
	return out
}

// hotSet is the prefilled key set: wire bodies and the documents the
// store holds for them.
type hotSet struct {
	reqs   []service.Request
	bodies [][]byte // request JSON
	docs   [][]byte // expected response bytes
	keys   []string
	dir    string // prefilled store, copied for each spawn
	bytes  int64  // store size after prefill
}

// prefillHot executes every hot request in process (two workers) and
// appends the documents, in key order, to a fresh store in the run's
// scratch directory.
func prefillHot(o Options, n int) (*hotSet, error) {
	h := &hotSet{reqs: hotRequests(n)}
	h.bodies = make([][]byte, n)
	h.docs = make([][]byte, n)
	h.keys = make([]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	const workers = 2
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n; i += workers {
				errs[i] = h.fill(i)
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("prefill: %w", err)
	}
	dir, err := scratchDir(o, "hot-src")
	if err != nil {
		return nil, err
	}
	st, err := openStore(dir)
	if err != nil {
		return nil, err
	}
	for i := range h.docs {
		if err := st.Put(h.keys[i], h.docs[i]); err != nil {
			st.Close()
			return nil, err
		}
	}
	h.bytes = st.Stats().Bytes
	if err := st.Close(); err != nil {
		return nil, err
	}
	h.dir = dir
	return h, nil
}

func (h *hotSet) fill(i int) error {
	canon, rc, err := service.Canonicalize(h.reqs[i])
	if err != nil {
		return err
	}
	res, _, err := experiment.Run(rc)
	if err != nil {
		return err
	}
	doc, err := encodeRun(canon, res)
	if err != nil {
		return fmt.Errorf("%s: %w", canon.Key(), err)
	}
	body, err := json.Marshal(h.reqs[i])
	if err != nil {
		return err
	}
	h.bodies[i], h.docs[i], h.keys[i] = body, doc, canon.Key()
	return nil
}

// openStore opens a result store the way thermservd does.
func openStore(dir string) (*store.Store, error) {
	return store.Open(dir, store.Options{Pinned: service.JournalPinned, Version: experiment.EngineVersion})
}

// copyDir copies the regular files of src into the directory dst.
func copyDir(src, dst string) error {
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// zipfDraws draws n key indices in [0, keys) from a Zipf distribution
// with exponent 1.1: a few keys are hot, the long tail falls out of
// the server's 512-entry cache onto the store.
func zipfDraws(seed int64, keys, n int) []int32 {
	z := rand.NewZipf(rand.New(rand.NewPCG(uint64(seed), 0x21bf)), 1.1, 1, uint64(keys-1))
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(z.Uint64())
	}
	return out
}

// hotTarget sends the drawn keys and requires every body to equal its
// key's prefill document byte for byte.
func hotTarget(h *hotSet, draws []int32) target {
	key := func(i int) int32 { return draws[i] }
	return target{
		n:    len(draws),
		body: func(i int) []byte { return h.bodies[key(i)] },
		check: func(i int, r reply) error {
			if !bytes.Equal(r.body, h.docs[key(i)]) {
				return fmt.Errorf("key %s: body differs from its prefill document", h.keys[key(i)])
			}
			return nil
		},
	}
}

// runHot is the untraced serve-hot workload.
func runHot(o Options, rec *recorder) error {
	lim := o.limits()
	h, err := prefillHot(o, lim.hotKeys)
	if err != nil {
		return err
	}
	p := runPlan(o.Seconds, hotLoRPS, hotHiRPS)
	draws := zipfDraws(o.Seed, lim.hotKeys, p.requests())
	client := newClient()
	defer client.CloseIdleConnections()
	// Every spawn replays a fresh copy of the prefilled store.
	s, err := spawnTimed(o, client, rec, func(k int) (string, error) {
		dir, err := scratchDir(o, fmt.Sprintf("hot%d", k))
		if err != nil {
			return "", err
		}
		return dir, copyDir(h.dir, dir)
	})
	if err != nil {
		return err
	}
	load, err := drive(client, s, hotTarget(h, draws), rec, p, nil)
	return finishServe(s, rec, load, err)
}
