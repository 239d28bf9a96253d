package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/netgraph"
	"repro/internal/serve"
)

// jobKind is one request shape of the serve-mix traffic.
type jobKind struct {
	name, path, body string
}

var (
	verifyFill = jobKind{"verify-fill", "/verify", `{}`} // the first, cache-filling one
	verifyWarm = jobKind{"verify-warm", "/verify", `{}`}
	verifyCold = jobKind{"verify-cold", "/verify", `{"cache": false}`}
	runRing8   = jobKind{"run", "/run", `{"topo": "ring:8"}`}
	mcLine3    = jobKind{"mc", "/mc", mcBody()}
)

// mixBlock is the traffic mix: every block of ten consecutive jobs holds
// these kinds in a seeded order — 40% warm verify, 20% cold verify, 20%
// run, 20% model check.
var mixBlock = []jobKind{verifyWarm, verifyWarm, verifyWarm, verifyWarm, verifyCold, verifyCold, runRing8, runRing8, mcLine3, mcLine3}

// mcBody is a /mc request for the path-vector program with line:3 link
// facts.
func mcBody() string {
	var src strings.Builder
	src.WriteString(core.PathVectorSrc)
	for _, l := range netgraph.Line(3).LinkTuples() {
		fmt.Fprintf(&src, "link(@%s,%s,%d).\n", l[0].S, l[1].S, l[2].I)
	}
	b, err := json.Marshal(map[string]string{"src": src.String()})
	if err != nil {
		panic(err) // a string map always marshals
	}
	return string(b)
}

// mixConfig holds the expected answers every job is checked against;
// tests substitute wrong ones.
type mixConfig struct {
	obligations int // the standard suite's size; every one must be proved
	mcStates    int // reachable states of the /mc job
}

var defaultMix = mixConfig{obligations: 72, mcStates: 36}

// jobSeq is the seeded job sequence.
type jobSeq struct {
	r     rng
	block []jobKind
}

func (s *jobSeq) next() jobKind {
	if len(s.block) == 0 {
		s.block = append([]jobKind(nil), mixBlock...)
		for i := len(s.block) - 1; i > 0; i-- {
			j := s.r.intn(i + 1)
			s.block[i], s.block[j] = s.block[j], s.block[i]
		}
	}
	k := s.block[0]
	s.block = s.block[1:]
	return k
}

// liveServer is an in-process fvn serve behind a loopback listener.
type liveServer struct {
	srv  *serve.Server
	hs   *http.Server
	done chan error
	url  string
}

func startServer(dir string) (*liveServer, error) {
	srv, err := serve.New(serve.Options{CachePath: filepath.Join(dir, "cache.jsonl")})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	ls := &liveServer{srv: srv, hs: &http.Server{Handler: srv.Handler()}, done: make(chan error, 1), url: "http://" + ln.Addr().String()}
	go func() { ls.done <- ls.hs.Serve(ln) }()
	return ls, nil
}

// stop closes the listener, waits for the serving goroutine, and drains
// the service (which closes its cache).
func (ls *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := ls.hs.Shutdown(ctx)
	<-ls.done
	if err2 := ls.srv.Shutdown(ctx); err == nil {
		err = err2
	}
	return err
}

// envelope is the job response: the whole body, or the final line of a
// streamed one.
type envelope struct {
	ElapsedMs float64         `json:"elapsed_ms"`
	Cancelled bool            `json:"cancelled"`
	Result    json.RawMessage `json:"result"`
	Error     string          `json:"error"`
}

// event is the part of a streamed trace event the traced run reads.
type event struct {
	Kind  string `json:"kind"`
	N     int64  `json:"n"`
	DurNs int64  `json:"dur_ns"`
}

type jobResult struct {
	kind     jobKind
	latency  time.Duration // client-side wall time
	cpu      time.Duration // process CPU time, client and server
	env      envelope
	failure  string // empty when the job's answer is right
	rejected bool   // 429 or 503
	cached   float64
	states   float64
	// From streamed events (traced pass only).
	steps, prims   float64
	proverNs, mcNs float64
}

// checkJob compares a job's answer with the expected one and returns
// what is wrong with it ("" when nothing is). It also fills the counts
// the per-layer metrics read.
func checkJob(jr *jobResult, cfg mixConfig) string {
	if jr.env.Error != "" {
		return "job error: " + jr.env.Error
	}
	if jr.env.Cancelled {
		return "job cancelled"
	}
	switch jr.kind.path {
	case "/verify":
		var v struct{ Obligations, Proved, Cached int }
		if err := json.Unmarshal(jr.env.Result, &v); err != nil {
			return "bad verify result: " + err.Error()
		}
		jr.cached = share(float64(v.Cached), float64(v.Obligations))
		if v.Obligations != cfg.obligations || v.Proved != v.Obligations {
			return fmt.Sprintf("proved %d of %d obligations, want %d of %d", v.Proved, v.Obligations, cfg.obligations, cfg.obligations)
		}
		if jr.kind == verifyWarm && v.Cached != v.Obligations {
			return fmt.Sprintf("warm verify served %d of %d from the cache", v.Cached, v.Obligations)
		}
	case "/run":
		var v struct{ Converged bool }
		if err := json.Unmarshal(jr.env.Result, &v); err != nil {
			return "bad run result: " + err.Error()
		}
		if !v.Converged {
			return "run did not converge"
		}
	case "/mc":
		var v struct {
			Reachable  int
			Quiescence string
		}
		if err := json.Unmarshal(jr.env.Result, &v); err != nil {
			return "bad mc result: " + err.Error()
		}
		jr.states = float64(v.Reachable)
		if v.Reachable != cfg.mcStates || v.Quiescence != "holds" {
			return fmt.Sprintf("mc reached %d states (quiescence %s), want %d (holds)", v.Reachable, v.Quiescence, cfg.mcStates)
		}
	}
	return ""
}

// post runs one job over HTTP. In a traced pass it asks for the streamed
// response and reads the prover and model-checker events from it.
func post(client *http.Client, base string, kind jobKind, stream bool, rec *recorder, op int) jobResult {
	jr := jobResult{kind: kind}
	url := base + kind.path
	if stream {
		url += "?stream=1"
	}
	sp := rec.begin("serve.http", op)
	s0 := now()
	resp, err := client.Post(url, "application/json", strings.NewReader(kind.body))
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	jr.latency, jr.cpu = s0.since()
	rec.end(sp)
	switch {
	case err != nil:
		jr.failure = err.Error()
		return jr
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		jr.rejected = true
		jr.failure = fmt.Sprintf("rejected with status %d", resp.StatusCode)
		return jr
	case resp.StatusCode != http.StatusOK:
		jr.failure = fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		return jr
	}
	if stream {
		lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
		for _, line := range lines[:len(lines)-1] {
			var ev event
			if err := json.Unmarshal(line, &ev); err != nil {
				jr.failure = "bad stream event: " + err.Error()
				return jr
			}
			switch ev.Kind {
			case "proof_step":
				jr.steps++
				jr.prims += float64(ev.N)
				jr.proverNs += float64(ev.DurNs)
			case "mc_level":
				jr.mcNs += float64(ev.DurNs)
			}
		}
		body = lines[len(lines)-1]
	}
	if err := json.Unmarshal(body, &jr.env); err != nil {
		jr.failure = "bad response: " + err.Error()
		return jr
	}
	return jr
}

// runMix is the serve-mix workload: an in-process fvn serve with a
// persistent cache file, driven over loopback HTTP by one closed-loop
// client issuing the seeded job sequence. A single client makes the
// process's CPU time during a job that job's own cost. Set-up includes
// one /verify that fills the cache (its cost is converge_cpu_s).
func runMix(p params, cfg mixConfig) (*report, error) {
	rep := newReport()
	rec := p.rec
	wl := rec.begin("bench.workload", 0)
	defer rec.end(wl)

	dir, err := os.MkdirTemp("", "fvnbench-serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}

	var (
		ls                *liveServer
		setups, converges []float64
	)
	defer func() {
		if ls != nil {
			ls.stop()
		}
	}()
	for round := 0; round < p.rounds; round++ {
		if ls != nil {
			if err := ls.stop(); err != nil {
				return nil, err
			}
			ls = nil
		}
		liveHeapMB()
		sp := rec.begin("bench.setup", wl)
		s0 := now()
		rd := filepath.Join(dir, fmt.Sprint(round))
		if err := os.Mkdir(rd, 0o755); err != nil {
			return nil, err
		}
		c := rec.begin("serve.start", sp)
		ls, err = startServer(rd)
		rec.end(c)
		if err != nil {
			return nil, err
		}
		jr := post(client, ls.url, verifyFill, false, rec, sp)
		_, setupCPU := s0.since()
		rec.end(sp)
		setups = append(setups, setupCPU.Seconds())
		converges = append(converges, jr.cpu.Seconds())
		rep.attempted++
		if jr.failure == "" {
			jr.failure = checkJob(&jr, cfg)
		}
		if jr.failure != "" {
			rep.fail("serve-mix: cache-filling verify: %s", jr.failure)
		}
	}
	rep.metrics["setup_s"] = median(setups)
	rep.metrics["converge_cpu_s"] = median(converges)
	rep.metrics["heap_mb"] = liveHeapMB()

	seq := &jobSeq{r: rng{p.seed}}
	var results []jobResult
	cache0 := ls.srv.Cache().Stats()
	gc := readGC()
	phase := time.Now()
	for time.Since(phase) < p.dur {
		op := rec.beginOp("bench.job", wl)
		jr := post(client, ls.url, seq.next(), rec != nil, rec, op)
		if jr.failure == "" {
			jr.failure = checkJob(&jr, cfg)
		}
		rec.end(op)
		results = append(results, jr)
	}
	cycles, gcShare, allocs := gc.since()
	cache1 := ls.srv.Cache().Stats()
	err = ls.stop()
	ls = nil
	if err != nil {
		return nil, err
	}

	var (
		warm, cold, all, runs, mcs, overhead []float64
		warmCached, coldCached, states       []float64
		steps, prims, proverNs, mcNs         float64
		coldElapsed                          []float64
		rejected, ok                         int
	)
	for _, jr := range results {
		rep.attempted++
		rep.ops++
		rep.opCPU += jr.cpu
		if jr.rejected {
			rejected++
		}
		if jr.failure != "" {
			rep.fail("serve-mix: %s job: %s", jr.kind.name, jr.failure)
			continue
		}
		ok++
		cpu, l := ms(jr.cpu), ms(jr.latency)
		all = append(all, cpu)
		overhead = append(overhead, l-jr.env.ElapsedMs)
		switch jr.kind {
		case verifyWarm:
			warm = append(warm, cpu)
			warmCached = append(warmCached, jr.cached)
		case verifyCold:
			cold = append(cold, cpu)
			coldCached = append(coldCached, jr.cached)
			coldElapsed = append(coldElapsed, jr.env.ElapsedMs)
			steps += jr.steps
			prims += jr.prims
			proverNs += jr.proverNs
		case runRing8:
			runs = append(runs, l)
		case mcLine3:
			mcs = append(mcs, l)
			states = append(states, jr.states)
			mcNs += jr.mcNs
		}
	}
	if rep.ops == 0 {
		return nil, fmt.Errorf("serve-mix: no job ran in %v", p.dur)
	}
	nCold, nMC := float64(len(cold)), float64(len(mcs))
	rep.metrics["op_a_cpu_p50_ms"] = median(warm)
	rep.metrics["op_b_cpu_p50_ms"] = median(cold)
	rep.metrics["op_cpu_p90_ms"] = quantile(all, 0.9)
	rep.metrics["ops_per_cpu_s"] = share(float64(ok), rep.opCPU.Seconds())
	rep.metrics["serve.run_p50_ms"] = median(runs)
	rep.metrics["serve.mc_p50_ms"] = median(mcs)
	rep.metrics["serve.overhead_p50_ms"] = median(overhead)
	rep.metrics["serve.rejected"] = float64(rejected)
	rep.metrics["verify.warm_cached_share"] = mean(warmCached)
	rep.metrics["verify.cold_cached_share"] = mean(coldCached)
	rep.metrics["cache.hits"] = float64(cache1.Hits - cache0.Hits)
	rep.metrics["cache.misses"] = float64(cache1.Misses - cache0.Misses)
	rep.metrics["modelcheck.states_per_job"] = mean(states)
	rep.metrics["gc.alloc_kb_per_job"] = allocs / 1024 / float64(rep.ops)
	rep.metrics["gc.cycles"] = cycles
	rep.metrics["gc.cpu_share"] = gcShare
	if rec != nil {
		proverMs := share(proverNs/1e6, nCold)
		rep.metrics["prover.self_ms_per_cold_job"] = proverMs
		rep.metrics["prover.steps_per_cold_job"] = share(steps, nCold)
		rep.metrics["prover.prims_per_cold_job"] = share(prims, nCold)
		rep.metrics["verify.other_ms_per_cold_job"] = mean(coldElapsed) - proverMs
		rep.metrics["modelcheck.level_ms_per_job"] = share(mcNs/1e6, nMC)
	}
	return rep, nil
}
