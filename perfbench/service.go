package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/nice-go/nice/internal/service"
	"github.com/nice-go/nice/scenarios"
)

// artifactRoot holds each pass's artifact directory; it lives in the
// checkout's build directory and every pass removes its own.
const artifactRoot = ".bench_build/service-artifacts"

// serviceCell is one Table 2 cell submitted as a registry JobRequest.
type serviceCell struct {
	input
	req service.JobRequest
}

func serviceCells() []serviceCell {
	var out []serviceCell
	for _, sc := range scenarios.Table2() {
		for _, s := range scenarios.Strategies {
			in := input{name: sc.Name + "/" + s.String()}
			if !sc.Misses[s] {
				in.expected = sc.ExpectedProperty
			}
			out = append(out, serviceCell{input: in,
				req: service.JobRequest{Scenario: sc.Name, Strategy: strategyName(s)}})
		}
	}
	return out
}

// strategyName is the JobRequest spelling of a Table 2 column.
func strategyName(s scenarios.Strategy) string {
	switch s {
	case scenarios.NoDelay:
		return "no-delay"
	case scenarios.FlowIR:
		return "flow-ir"
	case scenarios.Unusual:
		return "unusual"
	default:
		return "pkt-seq"
	}
}

// serviceWorkload drives an in-process nice-server on loopback with a
// closed loop of GOMAXPROCS clients. Each pass boots a fresh server
// (its set-up) so that memory and artifacts do not grow with the
// run's length.
func serviceWorkload() *workload {
	passes := 0
	return &workload{
		name:         "service",
		mirrorInputs: table2Cells,
		setUp: func(rng *rand.Rand) (pass, error) {
			all := serviceCells()
			p := &servicePass{}
			for _, j := range rng.Perm(len(all)) {
				p.cells = append(p.cells, all[j])
			}
			passes++
			return p, p.boot(filepath.Join(artifactRoot, fmt.Sprintf("%d-%d", os.Getpid(), passes)))
		},
	}
}

type servicePass struct {
	cells  []serviceCell
	dir    string
	srv    *service.Server
	hs     *http.Server
	served chan error
	client *http.Client
	base   string
}

func (p *servicePass) boot(dir string) error {
	p.dir = dir
	srv, err := service.New(service.Options{
		Workers:           runtime.GOMAXPROCS(0),
		DefaultJobWorkers: 1,
		ArtifactDir:       dir,
	})
	if err != nil {
		return err
	}
	p.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background()) // no job was submitted: nothing to drain
		return err
	}
	p.hs = &http.Server{Handler: srv.Handler()}
	p.served = make(chan error, 1)
	go func() { p.served <- p.hs.Serve(ln) }()
	p.base = "http://" + ln.Addr().String()
	p.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * runtime.GOMAXPROCS(0)}}
	return nil
}

// close stops the HTTP server and the service, waits for both, and
// removes the pass's artifacts.
func (p *servicePass) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	p.client.CloseIdleConnections()
	if err := p.hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: http shutdown:", err)
	}
	<-p.served
	if err := p.srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: service shutdown:", err)
	}
	if err := os.RemoveAll(p.dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: removing artifacts:", err)
	}
}

// jobSample is one job as its client saw it.
type jobSample struct {
	id              string
	posted, created time.Time // POST sent, 201 received
	done            time.Time // done event received
	states          int64
	err             error
}

func (p *servicePass) run(tp *tracePass) []op {
	samples := make([]jobSample, len(p.cells))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < runtime.GOMAXPROCS(0); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(samples) {
					return
				}
				samples[i] = p.job(p.cells[i])
			}
		}()
	}
	wg.Wait()

	ops := make([]op, len(samples))
	for i, s := range samples {
		ops[i] = op{input: p.cells[i].name, dur: s.done.Sub(s.posted), states: s.states, err: s.err}
	}
	if tp != nil {
		p.traceJobs(tp, samples)
	}
	return ops
}

var artifactID = regexp.MustCompile(`^[0-9a-f]{64}$`)

// job submits one cell and follows its NDJSON stream to the done event.
// A job that fails early still gets an end time, so its operation time
// is where the client gave up.
func (p *servicePass) job(c serviceCell) (s jobSample) {
	s.posted = time.Now()
	defer func() {
		if s.done.IsZero() {
			s.done = time.Now()
		}
	}()
	body, err := json.Marshal(c.req)
	if err != nil {
		s.err = err
		return s
	}
	resp, err := p.client.Post(p.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		s.err = err
		return s
	}
	var st service.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	s.created = time.Now()
	if resp.StatusCode != http.StatusCreated || err != nil {
		s.err = fmt.Errorf("%w: submit returned %s (%v)", errVerdict, resp.Status, err)
		return s
	}
	s.id = st.ID

	resp, err = p.client.Get(p.base + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		s.err = err
		return s
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	for {
		var ev service.Event
		if err := dec.Decode(&ev); err != nil {
			if errors.Is(err, io.EOF) {
				err = errors.New("stream ended before the done event")
			}
			s.err = fmt.Errorf("%w: %v", errVerdict, err)
			return s
		}
		if ev.Type == "done" {
			s.done = time.Now()
			s.err = c.check(ev)
			if ev.Result != nil {
				s.states = ev.Result.UniqueStates
			}
			return s
		}
	}
}

// check verifies a job's done event: the job finished, its violated
// properties equal the Table 2 matrix, and every violation carries a
// persisted trace artifact.
func (c serviceCell) check(ev service.Event) error {
	if ev.State != service.StateDone || ev.Result == nil {
		return fmt.Errorf("%w: job ended %s", errVerdict, ev.State)
	}
	r := ev.Result
	var keys []string
	for _, v := range r.Violations {
		keys = append(keys, v.Property+"|"+v.Message)
	}
	if err := c.verdict(keys, r.Complete); err != nil {
		return err
	}
	if len(r.TraceArtifacts) != len(r.Violations) {
		return fmt.Errorf("%w: %d violations, %d trace artifacts", errVerdict, len(r.Violations), len(r.TraceArtifacts))
	}
	for _, id := range r.TraceArtifacts {
		if !artifactID.MatchString(id) {
			return fmt.Errorf("%w: violation without a trace artifact (%q)", errVerdict, id)
		}
	}
	return nil
}

// traceJobs joins the client timestamps with the server's JobStatus
// times into one trace per job, and records the service-layer values.
// The 201 response and the stream request overlap the queue wait and
// the run, so the job's phases are cut at the server's timestamps.
func (p *servicePass) traceJobs(tp *tracePass, samples []jobSample) {
	status := map[string]service.JobStatus{}
	for _, st := range p.srv.Jobs() {
		status[st.ID] = st
	}
	var submit, queue, runMS, deliver []float64
	for _, s := range samples {
		st, ok := status[s.id]
		if !ok || st.StartedAt == nil || st.EndedAt == nil {
			continue
		}
		started, ended := *st.StartedAt, *st.EndedAt
		submit = append(submit, ms(s.created.Sub(s.posted)))
		queue = append(queue, ms(started.Sub(st.QueuedAt)))
		runMS = append(runMS, ms(ended.Sub(started)))
		deliver = append(deliver, ms(s.done.Sub(ended)))

		// One process, one monotonic clock: posted <= QueuedAt <=
		// StartedAt <= EndedAt <= done, so the phases tile the job.
		root := tp.tr.at(spJob, -1, s.posted, s.done)
		tp.tr.at(spSubmit, root, s.posted, st.QueuedAt)
		tp.tr.at(spQueueWait, root, st.QueuedAt, started)
		tp.tr.at(spRun, root, started, ended)
		tp.tr.at(spDeliver, root, ended, s.done)
	}
	snap := p.srv.Telemetry().Snapshot()
	for _, k := range []string{"cache.packets_hits", "cache.packets_misses", "cache.stats_hits",
		"cache.stats_misses", "cache.evictions", "sym.solver_calls", "sym.memo_hits", "sym.memo_misses"} {
		tp.reg.Counter(k).Add(snap.Counter(k))
	}
	jobs := float64(len(samples))
	lt := tp.tr.table()
	tp.layers["service.submit_share"] = lt.share(spSubmit)
	tp.layers["service.queue_wait_share"] = lt.share(spQueueWait)
	tp.layers["service.run_share"] = lt.share(spRun)
	tp.layers["service.deliver_share"] = lt.share(spDeliver)
	tp.layers["service.submit_ms_p50"] = median(submit)
	tp.layers["service.queue_wait_ms_p50"] = median(queue)
	tp.layers["service.run_ms_p50"] = median(runMS)
	tp.layers["service.deliver_ms_p50"] = median(deliver)
	tp.layers["service.artifact_bytes_per_job"] = float64(snap.Counter("service.artifact_bytes")) / jobs
	tp.layers["service.artifacts_per_job"] = float64(snap.Counter("service.artifacts_written")) / jobs
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
