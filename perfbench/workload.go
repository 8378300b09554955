package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/harness"
	"repro/internal/server"
	"repro/pythia"
	"repro/pythia/client"
)

// workload is one traffic mix. Every workload is a closed loop: each load
// goroutine waits for its PredictAt answer before submitting the next
// event, as a runtime thread does. Every workload serves the reference
// trace from a daemon core running in this process and drives it over
// loopback TCP.
type workload struct {
	name string
	why  string
	// learn turns on online learning in the daemon with the default
	// LearnPolicy.
	learn bool
	// every is the PredictAt cadence in submitted events.
	every int
	// roundReplays is how many times a round replays the whole execution.
	// Every round after the first runs on a fresh connection, so the
	// connection the daemon holds when the phase ends has seen the same
	// number of session restarts in every run, and a learning oracle the
	// same stream length.
	roundReplays int
}

// distance is the prediction distance of every timed query.
const distance = 16

// app is the application whose small working set every workload records
// and replays.
const app = "CG"

var workloads = []workload{
	{name: "query-tcp", every: 4, roundReplays: 8,
		why: "read path: PredictAt round trip every 4 events; client, wire, server and TCP do the work"},
	{name: "ingest-tcp", every: 1024, roundReplays: 128,
		why: "write path: batched Submit with a PredictAt every 1024 events; client batching, codec and server Observe"},
	{name: "learn-tcp", learn: true, every: 64, roundReplays: 8,
		why: "ingest-tcp against an online-learning daemon; shadow recorder, model and learner do the work"},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// stream is one rank's captured event stream.
type stream struct {
	tid   int32
	names []string
}

// captureInputs generates the workload's inputs from seed: one stream per
// rank of the application's small working set. The same streams are
// recorded into the reference trace and replayed in the timed phase.
func captureInputs(seed int64) ([]stream, error) {
	a, err := apps.ByName(app)
	if err != nil {
		return nil, err
	}
	byTID := harness.CaptureStreams(a, apps.Small, seed)
	out := make([]stream, 0, len(byTID))
	for tid, names := range byTID {
		out = append(out, stream{tid: tid, names: names})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].tid < out[j].tid })
	return out, nil
}

// recordStats describes the record pass and its save/load round trip.
type recordStats struct {
	finish, save, load  time.Duration
	bytes, rules, nodes int64
}

// recordTrace records the streams into the reference trace, saves it to
// dir/<app>.pythia, where the daemon finds it, and loads it back to time
// the load. It returns the in-memory trace set.
func recordTrace(ss []stream, dir string, tr *tracer) (*pythia.TraceSet, recordStats, error) {
	var st recordStats
	o := pythia.NewRecordOracle()
	defer o.Close()
	for _, s := range ss {
		th := o.Thread(s.tid)
		for _, name := range s.names {
			th.Submit(o.Intern(name))
		}
	}
	t0 := time.Now()
	ts, err := o.Finish()
	t1 := time.Now()
	tr.add(tr.span(0, 0, "recorder.finish", t0, t1))
	st.finish = t1.Sub(t0)
	if err != nil {
		return nil, st, fmt.Errorf("recording %s: %w", app, err)
	}
	for _, th := range ts.Threads {
		st.rules += int64(len(th.Grammar.Rules))
		for _, r := range th.Grammar.Rules {
			st.nodes += int64(len(r.Body))
		}
	}
	path := filepath.Join(dir, app+".pythia")
	t0 = time.Now()
	if err := pythia.SaveTraceSet(path, ts); err != nil {
		return nil, st, err
	}
	t1 = time.Now()
	_, err = pythia.LoadTraceSet(path)
	t2 := time.Now()
	if err != nil {
		return nil, st, err
	}
	tr.add(tr.span(0, 0, "tracefile.save", t0, t1))
	tr.add(tr.span(0, 0, "tracefile.load", t1, t2))
	st.save, st.load = t1.Sub(t0), t2.Sub(t1)
	if fi, err := os.Stat(path); err == nil {
		st.bytes = fi.Size()
	}
	return ts, st, nil
}

// answer is one PredictAt result.
type answer struct {
	pr pythia.Prediction
	ok bool
}

func (a answer) same(b answer) bool {
	return a.ok == b.ok && a.pr.EventID == b.pr.EventID && a.pr.Distance == b.pr.Distance &&
		math.Float64bits(a.pr.Probability) == math.Float64bits(b.pr.Probability) &&
		math.Float64bits(a.pr.ExpectedNs) == math.Float64bits(b.pr.ExpectedNs)
}

// queryAt reports whether a replay queries after submitting event i of n:
// every `every` events, and once after the last event so that every replay
// ends with a round trip.
func queryAt(i, n, every int) bool { return (i+1)%every == 0 || i+1 == n }

// coreTiming accumulates time spent in local core.Thread calls.
type coreTiming struct {
	submitNs, submits, predictNs, predicts int64
}

// referenceAnswers replays every stream twice through an in-process
// oracle over the in-memory trace set and returns the answers of the
// first replay. A second replay that answers differently means the oracle
// is not deterministic across StartAtBeginning, and no per-answer check
// could hold. It also returns the predictors' statistics.
func referenceAnswers(w *workload, ss []stream, mem *pythia.TraceSet, ct *coreTiming) ([][]answer, pythia.Stats, error) {
	var stats pythia.Stats
	o, err := pythia.NewPredictOracle(mem, pythia.Config{})
	if err != nil {
		return nil, stats, err
	}
	defer o.Close()
	out := make([][]answer, len(ss))
	for si, s := range ss {
		ids := internAll(o.Intern, s.names)
		th := o.Thread(s.tid)
		var first []answer
		for rep := 0; rep < 2; rep++ {
			var got []answer
			th.StartAtBeginning()
			t0 := time.Now()
			for i, id := range ids {
				th.Submit(id)
				if !queryAt(i, len(ids), w.every) {
					continue
				}
				t1 := time.Now()
				pr, ok := th.PredictAt(distance)
				t2 := time.Now()
				ct.submitNs += int64(t1.Sub(t0))
				ct.predictNs += int64(t2.Sub(t1))
				ct.predicts++
				t0 = t2
				got = append(got, answer{pr, ok})
			}
			ct.submits += int64(len(ids))
			if rep == 0 {
				first = got
				continue
			}
			for q := range got {
				if !got[q].same(first[q]) {
					return nil, stats, fmt.Errorf("%s rank %d: reference oracle answers query %d differently on a second replay",
						app, s.tid, q)
				}
			}
		}
		stats = addStats(stats, th.Predictor().Stats())
		out[si] = first
	}
	return out, stats, nil
}

// env is one set-up workload: its inputs, reference trace, daemon and
// load connections.
type env struct {
	w      *workload
	in     []stream
	dir    string
	rec    recordStats
	mem    *pythia.TraceSet
	expect [][]answer // reference answers per stream

	srv       *server.Server
	ln        *countingListener // nil unless traced
	addr      string
	serveDone chan error
	dialMu    sync.Mutex // serializes dials so accepted conns map to workers
	openNs    int64
	opens     int64

	workers []*worker
}

// worker is one load goroutine's state: one connection and its sessions.
type worker struct {
	e  *env
	c  *client.Client
	ro *client.Oracle

	threads []*client.Thread
	ids     [][]pythia.ID

	used   bool          // the connection has replayed a round
	curReq atomic.Uint64 // id of the client span in flight, for server spans
	tr     *tracer
	spans  []span

	// results of the timed phase
	events, queries int64
	lats            []time.Duration
	rounds          []roundStat
	hits, judged    int64
	mismatches      int64
	failures        []string
	finishedAt      time.Time
	clientStats     client.Stats
	submitNs        int64
	learnInfo       pythia.ModelInfo
}

func (wk *worker) fail(format string, args ...any) {
	wk.failures = append(wk.failures, fmt.Sprintf(format, args...))
}

// setup builds the workload once: capture, record, save and load the
// reference trace, start the daemon, dial and open sessions. tr, when
// non-nil, records spans, wraps the listener in a counting one and
// profiles everything after the capture, adding the samples to shares.
func setup(w *workload, seed int64, nworkers int, tr *tracer, shares map[string]int64) (*env, time.Duration, error) {
	start := time.Now()
	in, err := captureInputs(seed)
	if err != nil {
		return nil, 0, err
	}
	var prof *cpuProfile
	if tr != nil {
		if prof, err = startProfile(); err != nil {
			return nil, 0, err
		}
	}
	e, err := build(w, in, nworkers, tr)
	elapsed := time.Since(start)
	if prof != nil {
		if perr := prof.stop(shares); perr != nil && err == nil {
			e.teardown()
			err = perr
		}
	}
	if err != nil {
		return nil, 0, err
	}
	return e, elapsed, nil
}

func build(w *workload, in []stream, nworkers int, tr *tracer) (*env, error) {
	e := &env{w: w, in: in}
	var err error
	if e.dir, err = os.MkdirTemp("", "perfbench-"); err != nil {
		return nil, err
	}
	e.mem, e.rec, err = recordTrace(e.in, e.dir, tr)
	if err == nil {
		err = e.startDaemon(tr)
	}
	for i := 0; err == nil && i < nworkers; i++ {
		wk := &worker{e: e, tr: tr}
		e.workers = append(e.workers, wk)
		err = wk.dial()
	}
	if err != nil {
		e.teardown()
		return nil, err
	}
	return e, nil
}

func (e *env) startDaemon(tr *tracer) error {
	cfg := server.Config{TraceDir: e.dir}
	if e.w.learn {
		cfg.Learn = &pythia.LearnPolicy{}
	}
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var ln net.Listener = raw
	if tr != nil {
		e.ln = newCountingListener(raw, tr)
		ln = e.ln
	}
	e.addr = raw.Addr().String()
	e.srv = server.New(cfg)
	e.serveDone = make(chan error, 1)
	go func() { e.serveDone <- e.srv.Serve(ln) }()
	return nil
}

// dial opens the worker's connection, its oracle and one session per
// rank.
func (wk *worker) dial() error {
	e := wk.e
	e.dialMu.Lock()
	defer e.dialMu.Unlock()
	t0 := time.Now()
	c, err := client.Dial(e.addr, client.Config{})
	if err != nil {
		return fmt.Errorf("dial: %w", err)
	}
	o, err := c.Oracle(app)
	if err != nil {
		if cerr := c.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
		return fmt.Errorf("open oracle: %w", err)
	}
	wk.c, wk.ro, wk.used = c, o, false
	if e.ln != nil {
		e.ln.bindNewest(wk)
	}
	wk.threads = wk.threads[:0]
	wk.ids = wk.ids[:0]
	for _, s := range e.in {
		th := o.Thread(s.tid)
		// Open the session now, at the start of the reference trace.
		th.StartAtBeginning()
		th.PredictAt(1)
		wk.threads = append(wk.threads, th)
		wk.ids = append(wk.ids, internAll(o.Intern, s.names))
	}
	t1 := time.Now()
	wk.tr.add(wk.tr.span(0, 0, "client.open", t0, t1))
	e.openNs += int64(t1.Sub(t0))
	e.opens++
	return c.Err()
}

func internAll(intern func(string, ...int64) pythia.ID, names []string) []pythia.ID {
	ids := make([]pythia.ID, len(names))
	for i, name := range names {
		ids[i] = intern(name)
	}
	return ids
}

// closeConn checks and closes the worker's connection: the oracle must be
// Healthy and the client error-free.
func (wk *worker) closeConn() {
	if wk.c == nil {
		return
	}
	if h := wk.ro.Health(); h.State != pythia.Healthy {
		wk.fail("remote oracle %s: %s", h.State, h.Cause)
	}
	if err := wk.c.Err(); err != nil {
		wk.fail("client: %v", err)
	}
	st := wk.c.Stats()
	wk.clientStats.Reconnects += st.Reconnects
	wk.clientStats.DroppedEvents += st.DroppedEvents
	wk.clientStats.RetryLater += st.RetryLater
	if err := wk.ro.Close(); err != nil {
		wk.fail("closing oracle: %v", err)
	}
	if err := wk.c.Close(); err != nil {
		wk.fail("closing client: %v", err)
	}
	wk.c, wk.ro = nil, nil
}

// teardown closes every oracle and connection, shuts the daemon down and
// removes the temporary directory. Failures land on the workers.
func (e *env) teardown() []string {
	var fails []string
	for _, wk := range e.workers {
		wk.closeConn()
	}
	if e.srv != nil {
		if err := e.srv.Shutdown(); err != nil {
			fails = append(fails, fmt.Sprintf("server shutdown: %v", err))
		}
		if err := <-e.serveDone; err != nil {
			fails = append(fails, fmt.Sprintf("serve: %v", err))
		}
		e.srv = nil
	}
	if e.dir != "" {
		if err := os.RemoveAll(e.dir); err != nil {
			fails = append(fails, fmt.Sprintf("removing %s: %v", e.dir, err))
		}
		e.dir = ""
	}
	return fails
}

// phase is the outcome of one timed phase over every worker.
type phase struct {
	elapsed         time.Duration
	cpu             time.Duration
	events, queries int64
	lats            []time.Duration
	chunks          []chunk
	workers         int
	hits, judged    int64
	mismatches      int64
	submitNs        int64
	learn           pythia.ModelInfo
	allocs, gcs     uint64
	failures        []string
}

// runPhase runs every worker for d and merges their results. corrupt, when
// positive, flips the event of the corrupt-th remote answer before it is
// checked.
func (e *env) runPhase(d time.Duration, tr *tracer, corrupt int64) phase {
	var ms0, ms1 runtimeStats
	ms0.read()
	cpu0 := processCPU()
	start := time.Now()
	deadline := start.Add(d)
	var queryNo atomic.Int64
	var wg sync.WaitGroup
	for _, wk := range e.workers {
		wk.resetPhase(tr)
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			wk.loop(deadline, &queryNo, corrupt)
		}(wk)
	}
	wg.Wait()
	p := phase{workers: len(e.workers)}
	last := start
	for _, wk := range e.workers {
		if wk.finishedAt.After(last) {
			last = wk.finishedAt
		}
	}
	p.elapsed = last.Sub(start)
	p.cpu = processCPU() - cpu0
	ms1.read()
	p.allocs, p.gcs = ms1.mallocs-ms0.mallocs, uint64(ms1.numGC-ms0.numGC)
	for _, wk := range e.workers {
		p.events += wk.events
		p.queries += wk.queries
		p.lats = append(p.lats, wk.lats...)
		p.chunks = append(p.chunks, wk.chunks()...)
		p.hits += wk.hits
		p.judged += wk.judged
		p.mismatches += wk.mismatches
		p.submitNs += wk.submitNs
		p.learn.ShadowEpochs += wk.learnInfo.ShadowEpochs
		p.learn.Promotions += wk.learnInfo.Promotions
		p.learn.Rollbacks += wk.learnInfo.Rollbacks
		p.failures = append(p.failures, wk.failures...)
		wk.failures = nil
	}
	return p
}

func (wk *worker) resetPhase(tr *tracer) {
	wk.tr = tr
	wk.events, wk.queries = 0, 0
	wk.lats = wk.lats[:0]
	wk.rounds = wk.rounds[:0]
	wk.hits, wk.judged, wk.mismatches = 0, 0, 0
	wk.submitNs = 0
	wk.learnInfo = pythia.ModelInfo{}
}

// roundStat is one round's extent.
type roundStat struct {
	events int64
	dur    time.Duration
	lats   int // latency samples taken
}

// minChunkSamples is the fewest latency samples in a chunk, so that its
// 99th percentile has ten samples beyond it.
const minChunkSamples = 1000

// chunk is a run of consecutive rounds of one worker holding at least
// minChunkSamples latency samples.
type chunk struct {
	eventsPerS, p50, p99 float64
}

// chunks splits the worker's rounds into chunks, dropping a trailing
// chunk that is short of samples unless it is the only one.
func (wk *worker) chunks() []chunk {
	var out []chunk
	var events int64
	var dur time.Duration
	lo, hi := 0, 0
	for i, r := range wk.rounds {
		events += r.events
		dur += r.dur
		hi += r.lats
		if hi-lo < minChunkSamples && (i < len(wk.rounds)-1 || len(out) > 0) {
			continue
		}
		lats := append([]time.Duration(nil), wk.lats[lo:hi]...)
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		out = append(out, chunk{float64(events) / dur.Seconds(), quantileUs(lats, 0.50), quantileUs(lats, 0.99)})
		events, dur, lo = 0, 0, hi
	}
	return out
}

// loop replays the workload's streams in rounds until the deadline. A
// round replays every stream roundReplays times on one connection; every
// round after the first dials a fresh one. The daemon keeps a slot for
// every session a connection ever opened, and a learning oracle's cost
// grows with its stream, so a fixed number of replays per connection keeps
// the live heap and the learner's work independent of throughput. The
// re-dial is not timed. The deadline is checked between rounds only, so
// every run is made of whole rounds: each round asks the same queries,
// which makes accuracy identical across runs of one seed, and per-round
// rates comparable.
func (wk *worker) loop(deadline time.Time, queryNo *atomic.Int64, corrupt int64) {
	defer func() { wk.finishedAt = time.Now() }()
	w := wk.e.w
	for {
		if wk.used {
			wk.closeConn()
			if err := wk.dial(); err != nil {
				wk.fail("%v", err)
				return
			}
		}
		t0 := time.Now()
		events, lats := wk.events, len(wk.lats)
		for r := 0; r < w.roundReplays; r++ {
			for si := range wk.threads {
				wk.replay(si, queryNo, corrupt)
			}
		}
		if w.learn {
			mi, err := wk.ro.ModelInfo()
			if err != nil {
				wk.fail("model info: %v", err)
			} else if !mi.Enabled {
				wk.fail("model info: learning not enabled")
			}
			wk.learnInfo.ShadowEpochs += mi.ShadowEpochs
			wk.learnInfo.Promotions += mi.Promotions
			wk.learnInfo.Rollbacks += mi.Rollbacks
		}
		// The connection stays open until the next round, so the live heap
		// measured after the phase includes one round's sessions.
		wk.used = true
		now := time.Now()
		wk.rounds = append(wk.rounds, roundStat{wk.events - events, now.Sub(t0), len(wk.lats) - lats})
		if len(wk.failures) > 0 || now.After(deadline) {
			return
		}
	}
}

// replay submits one stream from the start of the reference trace,
// querying on the workload's cadence, and checks every answer against the
// reference and against the event actually submitted distance events
// later.
func (wk *worker) replay(si int, queryNo *atomic.Int64, corrupt int64) {
	e := wk.e
	th, ids := wk.threads[si], wk.ids[si]
	var exp []answer
	if e.expect != nil {
		exp = e.expect[si]
	}
	tr := wk.tr
	every := e.w.every
	th.StartAtBeginning()
	q := 0
	t0 := time.Now()
	var reqID uint64
	if tr != nil {
		reqID = tr.newID()
		wk.curReq.Store(reqID)
	}
	for i, id := range ids {
		th.Submit(id)
		if !queryAt(i, len(ids), every) {
			continue
		}
		t1 := time.Now()
		var predID uint64
		if tr != nil {
			predID = tr.newID()
			wk.curReq.Store(predID)
		}
		pr, ok := th.PredictAt(distance)
		t2 := time.Now()
		if tr != nil {
			wk.spans = tr.appendSpan(wk.spans, span{id: reqID, req: reqID, name: "client.submit", start: tr.ns(t0), end: tr.ns(t1)})
			wk.spans = tr.appendSpan(wk.spans, span{id: predID, req: predID, name: "client.predict", start: tr.ns(t1), end: tr.ns(t2)})
			wk.submitNs += int64(t1.Sub(t0))
			reqID = tr.newID()
			wk.curReq.Store(reqID)
		}
		wk.lats = append(wk.lats, t2.Sub(t1))
		got := answer{pr, ok}
		if corrupt > 0 && queryNo.Add(1) == corrupt {
			got.pr.EventID ^= 1
		}
		if exp != nil {
			if q >= len(exp) || !got.same(exp[q]) {
				wk.mismatches++
			}
		}
		q++
		if i+distance < len(ids) {
			wk.judged++
			if ok && pr.EventID == int32(ids[i+distance]) {
				wk.hits++
			}
		}
		t0 = time.Now()
	}
	wk.events += int64(len(ids))
	wk.queries += int64(q)
}
