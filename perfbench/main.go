// Command perfbench is the repository's benchmark. It runs one workload
// against the oracle through a daemon core served on loopback TCP in the
// same process, checks every answer, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics and a
// per-layer table) followed by one JSON result line:
//
//	bash perfbench/run.sh --workload query-tcp --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --selftest
//	bash perfbench/run.sh -compare parent.jsonl change.jsonl
//
// See README.md beside this file for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/wire"
	"repro/pythia"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload to run: query-tcp, ingest-tcp or learn-tcp")
		seed     = fs.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = fs.Float64("seconds", 10, "length of the timed phase")
		trace    = fs.Int("trace", 0, "1: traced run printing per-layer metrics instead of end-to-end ones")
		out      = fs.String("o", "", "append the run's record (fingerprints, metrics) to this JSON-lines file")
		selftest = fs.Bool("selftest", false, "check that a corrupted remote answer fails a short query-tcp run")
		compare  = fs.Bool("compare", false, "compare two record files: -compare parent.jsonl change.jsonl")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: -compare takes two record files")
			return 2
		}
		if err := compareFiles(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	case *selftest:
		return selfTest(stdout, stderr)
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	opts := runOpts{w: w, seed: *seed, d: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1}
	rec, err := runWorkload(opts, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	line, err := json.Marshal(result{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: rec.Metrics})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rec.Correct {
		for _, f := range rec.Failures {
			fmt.Fprintln(stderr, "perfbench: FAIL:", f)
		}
		return 1
	}
	return 0
}

// metric is one measured value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is everything one run measured, with the fingerprints that say
// whether two records are comparable.
type record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Seconds   float64           `json:"seconds"`
	Host      hostInfo          `json:"host"`
	Inputs    inputInfo         `json:"inputs"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Samples   int               `json:"predict_samples"`
	Metrics   map[string]metric `json:"metrics"`
}

type runOpts struct {
	w       *workload
	seed    int64
	d       time.Duration
	trace   bool
	corrupt int64
}

// setups is how many times a run sets the workload up; setup_s is the
// median over them.
const setups = 15

// runWorkload sets the workload up setups times (keeping the last), runs
// the timed phase, tears everything down and checks that no goroutine
// outlives the run.
func runWorkload(opts runOpts, stdout io.Writer) (*record, error) {
	w := opts.w
	baseGoroutines := runtime.NumGoroutine()
	nworkers := runtime.NumCPU()
	rec := &record{Workload: w.name, Seed: opts.seed, Trace: opts.trace, Seconds: opts.d.Seconds(),
		Host: hostFingerprint(opts.seed), Metrics: make(map[string]metric)}
	var tr *tracer
	if opts.trace {
		tr = newTracer()
	}
	var (
		e           *env
		setupTimes  []float64
		fails       []string
		setupShares = make(map[string]int64)
	)
	for i := 0; i < setups; i++ {
		last := i == setups-1
		var str *tracer
		if last {
			str = tr
		}
		// Every set-up starts from a collected heap, so that none pays for
		// the garbage of the one before.
		runtime.GC()
		ne, took, err := setup(w, opts.seed, nworkers, str, setupShares)
		if err != nil {
			return nil, fmt.Errorf("setting up %s: %w", w.name, err)
		}
		setupTimes = append(setupTimes, took.Seconds())
		if !last {
			fails = append(fails, ne.teardown()...)
			for _, wk := range ne.workers {
				fails = append(fails, wk.failures...)
			}
			continue
		}
		e = ne
	}
	rec.Inputs = inputFingerprint(e.in)
	var core coreTiming
	expect, pstats, err := referenceAnswers(w, e.in, e.mem, &core)
	if !w.learn {
		// A learning daemon may promote a model that answers differently
		// from the recorded trace, so only the frozen daemon is held to the
		// reference answers.
		e.expect = expect
	}
	if err != nil {
		e.teardown()
		return nil, err
	}

	var p, untraced phase
	var shares map[string]int64
	var io0, io1 ioCounts
	if !opts.trace {
		p = e.runPhase(opts.d, nil, opts.corrupt)
	} else {
		// The traced run measures half its time untraced and half traced;
		// the difference is the tracing overhead.
		untraced = e.runPhase(opts.d/2, nil, opts.corrupt)
		shares = setupShares
		prof, perr := startProfile()
		if perr != nil {
			e.teardown()
			return nil, perr
		}
		e.setTracing(true)
		io0 = e.ioCounts()
		p = e.runPhase(opts.d/2, tr, opts.corrupt)
		io1 = e.ioCounts()
		e.setTracing(false)
		if perr := prof.stop(shares); perr != nil {
			fails = append(fails, perr.Error())
		}
	}
	sessions := int64(0)
	if e.srv != nil {
		sessions = e.srv.Sessions()
	}
	ws := statsOf(p)
	var wsu phaseStats
	if opts.trace {
		wsu = statsOf(untraced)
	}
	samples := len(p.lats)
	// The live heap is measured without the benchmark's per-query and
	// per-round records, whose size follows throughput, not the program's
	// memory use.
	p.lats, untraced.lats = nil, nil
	for _, wk := range e.workers {
		wk.lats, wk.rounds = nil, nil
	}
	// The second collection frees what the first moved out of sync.Pools.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	liveHeapMB := float64(ms.HeapAlloc) / 1e6
	var clientStats [3]uint64
	var spans []span
	for _, wk := range e.workers {
		spans = append(spans, wk.spans...)
	}
	if e.ln != nil {
		spans = append(spans, e.ln.spans()...)
	}
	if tr != nil {
		spans = append(spans, tr.spans...)
	}
	openMs := 0.0
	if e.opens > 0 {
		openMs = float64(e.openNs) / float64(e.opens) / 1e6
	}
	fails = append(fails, e.teardown()...)
	for _, wk := range e.workers {
		fails = append(fails, wk.failures...)
		clientStats[0] += wk.clientStats.Reconnects
		clientStats[1] += wk.clientStats.RetryLater
		clientStats[2] += wk.clientStats.DroppedEvents
	}
	fails = append(fails, p.failures...)
	fails = append(fails, untraced.failures...)
	if n := waitGoroutines(baseGoroutines, 5*time.Second); n > baseGoroutines {
		fails = append(fails, fmt.Sprintf("%d goroutines outlive the run (started with %d)", n, baseGoroutines))
		buf := make([]byte, 1<<20)
		fmt.Fprintf(os.Stderr, "%s\n", buf[:runtime.Stack(buf, true)])
	}

	// Failures: every answer that differs from the reference, every
	// reconnect, refusal and dropped event, and every other failed check.
	if p.events == 0 || p.judged == 0 {
		fails = append(fails, "the timed phase submitted no events or judged no queries")
	}
	mismatches := p.mismatches + untraced.mismatches
	rec.Attempted = max(p.events+p.queries+untraced.events+untraced.queries, 1)
	rec.Failed = mismatches + int64(clientStats[0]+clientStats[1]+clientStats[2]) + int64(len(fails))
	if mismatches > 0 {
		fails = append(fails, fmt.Sprintf("%d answers differ from the reference oracle", mismatches))
	}
	rec.Failures = fails
	rec.Correct = len(fails) == 0 && rec.Failed == 0
	rec.Samples = samples
	m := rec.Metrics
	if !opts.trace {
		m["setup_s"] = metric{median(setupTimes), "s"}
		m["events_per_s"] = metric{ws.eventsPerS, "events/s"}
		m["predict_p50_us"] = metric{ws.p50, "us"}
		m["predict_p99_us"] = metric{ws.p99, "us"}
		m["accuracy"] = metric{ratio(p.hits, p.judged), "ratio"}
		m["cpu_us_per_event"] = metric{ws.cpuPerEvent, "us"}
		m["live_heap_mb"] = metric{liveHeapMB, "MB"}
	} else {
		addLayerMetrics(m, layerInputs{
			e: e, p: p, io: io1.sub(io0), shares: shares,
			core: core, pstats: pstats, rec: e.rec, openMs: openMs,
			sessions: sessions, clientStats: clientStats, ws: ws, wsu: wsu,
		})
		if d := tr.dropped.Load(); d > 0 {
			fmt.Fprintf(stdout, "note: %d spans beyond the in-memory cap were counted but not kept\n", d)
		}
		printLayerTable(stdout, w.name, selfTimes(spans), shares)
		path := filepath.Join(os.TempDir(), fmt.Sprintf("perfbench-%s-seed%d.spans.jsonl", w.name, opts.seed))
		if err := writeSpans(path, spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(spans), path)
	}
	printRun(stdout, rec, p)
	return rec, nil
}

// phaseStats are a phase's end-to-end rates and latencies: medians over
// the chunks of rounds of every load goroutine, so that a burst of
// interference from outside the process moves one chunk, not the result.
// Throughput is the median chunk's rate times the number of goroutines.
type phaseStats struct {
	eventsPerS, cpuPerEvent, p50, p99 float64
}

func statsOf(p phase) phaseStats {
	var rates, p50s, p99s []float64
	for _, c := range p.chunks {
		rates = append(rates, c.eventsPerS)
		p50s = append(p50s, c.p50)
		p99s = append(p99s, c.p99)
	}
	return phaseStats{
		eventsPerS:  median(rates) * float64(p.workers),
		cpuPerEvent: float64(p.cpu.Nanoseconds()) / 1e3 / float64(max(p.events, 1)),
		p50:         median(p50s),
		p99:         median(p99s),
	}
}

func (e *env) setTracing(on bool) {
	if e.ln != nil {
		e.ln.on.Store(on)
	}
}

func (e *env) ioCounts() ioCounts {
	if e.ln == nil {
		return ioCounts{}
	}
	return e.ln.counts()
}

func addStats(a, b pythia.Stats) pythia.Stats {
	return pythia.Stats{Observed: a.Observed + b.Observed, Followed: a.Followed + b.Followed,
		ReAnchored: a.ReAnchored + b.ReAnchored, Unknown: a.Unknown + b.Unknown}
}

// layerInputs is what the per-layer metrics are computed from.
type layerInputs struct {
	e           *env
	p           phase
	io          ioCounts
	shares      map[string]int64
	core        coreTiming
	pstats      pythia.Stats
	rec         recordStats
	openMs      float64
	sessions    int64
	clientStats [3]uint64
	ws, wsu     phaseStats // traced and untraced halves
}

// cpuLayers are the layers whose CPU share the traced run reports.
var cpuLayers = []string{"client", "transport", "wire", "server", "core", "predictor", "progress",
	"grammar", "recorder", "model", "tracefile", "events", "perfbench", layerSyscall}

func addLayerMetrics(m map[string]metric, in layerInputs) {
	p := in.p
	kev := float64(max(p.events, 1)) / 1000
	// client
	m["client.submit_ns"] = metric{ratio(p.submitNs, p.events), "ns"}
	m["client.open_ms"] = metric{in.openMs, "ms"}
	m["client.reconnects"] = metric{float64(in.clientStats[0]), "count"}
	m["client.retry_later"] = metric{float64(in.clientStats[1]), "count"}
	m["client.dropped_events"] = metric{float64(in.clientStats[2]), "count"}
	// transport
	io := in.io
	m["transport.read_calls_per_kevent"] = metric{float64(io.reads) / kev, "calls/kevent"}
	m["transport.write_calls_per_kevent"] = metric{float64(io.writes) / kev, "calls/kevent"}
	m["transport.bytes_in_per_event"] = metric{float64(io.bytesIn) / float64(max(p.events, 1)), "B/event"}
	m["transport.bytes_out_per_query"] = metric{float64(io.bytesOut) / float64(max(p.queries, 1)), "B/query"}
	m["transport.write_us"] = metric{ratio(io.writeNs, io.timedWrts) / 1e3, "us"}
	m["transport.read_wait_us"] = metric{ratio(io.readNs, io.timedReads) / 1e3, "us"}
	// wire
	enc, dec := codecCost(in.e)
	m["wire.encode_ns_per_event"] = metric{enc, "ns"}
	m["wire.decode_ns_per_event"] = metric{dec, "ns"}
	m["wire.frames_per_kevent"] = metric{float64(io.framesIn+io.framesOut) / kev, "frames/kevent"}
	// server
	m["server.sessions"] = metric{float64(in.sessions), "count"}
	// core, timed on the in-process reference replay
	m["core.submit_ns"] = metric{ratio(in.core.submitNs, in.core.submits), "ns"}
	m["core.predict_ns"] = metric{ratio(in.core.predictNs, in.core.predicts), "ns"}
	m["core.learn.shadow_epochs"] = metric{float64(p.learn.ShadowEpochs), "count"}
	m["core.learn.promotions"] = metric{float64(p.learn.Promotions), "count"}
	m["core.learn.rollbacks"] = metric{float64(p.learn.Rollbacks), "count"}
	// predictor and progress
	ps := in.pstats
	okev := float64(max(ps.Observed, 1)) / 1000
	m["predictor.follow_ratio"] = metric{ratio(ps.Followed, ps.Observed), "ratio"}
	m["predictor.reanchor_per_kevent"] = metric{float64(ps.ReAnchored) / okev, "1/kevent"}
	m["predictor.unknown_per_kevent"] = metric{float64(ps.Unknown) / okev, "1/kevent"}
	// grammar, recorder, tracefile
	m["grammar.rules"] = metric{float64(in.rec.rules), "count"}
	m["grammar.nodes"] = metric{float64(in.rec.nodes), "count"}
	m["recorder.finish_ms"] = metric{float64(in.rec.finish.Microseconds()) / 1e3, "ms"}
	m["tracefile.save_ms"] = metric{float64(in.rec.save.Microseconds()) / 1e3, "ms"}
	m["tracefile.load_ms"] = metric{float64(in.rec.load.Microseconds()) / 1e3, "ms"}
	m["tracefile.bytes"] = metric{float64(in.rec.bytes), "B"}
	// Go runtime
	m["runtime.allocs_per_event"] = metric{float64(p.allocs) / float64(max(p.events, 1)), "allocs/event"}
	m["runtime.gc_cycles"] = metric{float64(p.gcs), "count"}
	// CPU shares from the profile
	var total int64
	for _, n := range in.shares {
		total += n
	}
	share := func(layer string) float64 { return ratio(in.shares[layer], total) }
	for _, l := range cpuLayers {
		m[l+".cpu_share"] = metric{share(l), "ratio"}
	}
	m["runtime.gc_cpu_share"] = metric{share(layerGC), "ratio"}
	m["runtime.sched_cpu_share"] = metric{share(layerSched), "ratio"}
	m["runtime.other_cpu_share"] = metric{share(layerOther), "ratio"}
	m["profile.samples"] = metric{float64(total), "count"}
	// Tracing overhead: the traced half against the untraced half.
	m["trace.overhead_events_pct"] = metric{100 * (in.wsu.eventsPerS - in.ws.eventsPerS) / in.wsu.eventsPerS, "%"}
	m["trace.overhead_p50_us"] = metric{in.ws.p50 - in.wsu.p50, "us"}
}

// codecCost times the wire codec on the workload's own batches: encoding
// and decoding SubmitBatch payloads of the client's batch size.
func codecCost(e *env) (encNs, decNs float64) {
	const batch = 64
	var ids []int32
	for _, s := range e.workers[0].ids {
		for _, id := range s {
			ids = append(ids, int32(id))
		}
	}
	buf := make([]byte, 0, 8+4*batch)
	var payloads [][]byte
	for i := 0; i+batch <= len(ids); i += batch {
		payloads = append(payloads, wire.AppendSubmitBatch(nil, 1, ids[i:i+batch]))
	}
	const reps = 20
	events := float64(reps * len(payloads) * batch)
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for i := 0; i+batch <= len(ids); i += batch {
			buf = wire.AppendSubmitBatch(buf[:0], 1, ids[i:i+batch])
		}
	}
	t1 := time.Now()
	var sink int32
	for r := 0; r < reps; r++ {
		for _, pl := range payloads {
			_, b, err := wire.ParseSubmitBatch(pl)
			if err != nil {
				return 0, 0
			}
			for i := 0; i < b.Len(); i++ {
				sink += b.At(i)
			}
		}
	}
	t2 := time.Now()
	codecSink = sink + int32(len(buf))
	return float64(t1.Sub(t0).Nanoseconds()) / events, float64(t2.Sub(t1).Nanoseconds()) / events
}

var codecSink int32

// printLayerTable prints each span layer's self time and share, then
// each module's CPU share.
func printLayerTable(w io.Writer, workload string, lts []layerTime, shares map[string]int64) {
	var selfTotal time.Duration
	for _, lt := range lts {
		selfTotal += lt.self
	}
	fmt.Fprintf(w, "per-layer spans (%s, traced half):\n", workload)
	fmt.Fprintf(w, "  %-18s %10s %12s %12s %7s\n", "span", "count", "total_ms", "self_ms", "share")
	for _, lt := range lts {
		fmt.Fprintf(w, "  %-18s %10d %12.1f %12.1f %6.1f%%\n", lt.name, lt.count,
			float64(lt.total.Microseconds())/1e3, float64(lt.self.Microseconds())/1e3,
			100*float64(lt.self)/float64(max(selfTotal, 1)))
	}
	var total int64
	names := make([]string, 0, len(shares))
	for k, n := range shares {
		total += n
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool { return shares[names[i]] > shares[names[j]] })
	fmt.Fprintf(w, "CPU profile by layer (%d samples at %d Hz):\n", total, profileRate)
	for _, k := range names {
		fmt.Fprintf(w, "  %-18s %6.1f%%\n", k, 100*ratio(shares[k], total))
	}
}

// printRun prints the fingerprints and every metric by name and unit.
func printRun(w io.Writer, rec *record, p phase) {
	h := rec.Host
	fmt.Fprintf(w, "host: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s source=%s seed=%d\n",
		h.CPU, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit, h.Source, h.Seed)
	fmt.Fprintf(w, "inputs: %s\n", rec.Inputs.summary())
	fmt.Fprintf(w, "timed phase: %.2fs, %d events, %d predict samples, %d judged queries\n",
		p.elapsed.Seconds(), p.events, rec.Samples, p.judged)
	names := make([]string, 0, len(rec.Metrics))
	for k := range rec.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%-36s %14.6g %s\n", k, rec.Metrics[k].Value, rec.Metrics[k].Unit)
	}
	fmt.Fprintf(w, "%-36s %14.6g %s (%d of %d operations failed)\n", "error_rate",
		ratio(rec.Failed, rec.Attempted), "ratio", rec.Failed, rec.Attempted)
}

func appendRecord(path string, rec *record) error {
	blob, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(blob, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// selfTest runs query-tcp briefly with one corrupted remote answer and
// reports success only if the run was judged incorrect.
func selfTest(stdout, stderr io.Writer) int {
	w, _ := workloadByName("query-tcp")
	rec, err := runWorkload(runOpts{w: w, seed: 1, d: time.Second, corrupt: 100}, io.Discard)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: selftest:", err)
		return 1
	}
	if rec.Correct {
		fmt.Fprintln(stderr, "perfbench: selftest: a corrupted remote answer went unnoticed")
		return 1
	}
	fmt.Fprintf(stdout, "selftest: corrupted answer detected: %s\n", strings.Join(rec.Failures, "; "))
	return 0
}

func waitGoroutines(base int, limit time.Duration) int {
	deadline := time.Now().Add(limit)
	for {
		n := runtime.NumGoroutine()
		if n <= base || time.Now().After(deadline) {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantileUs is the q-quantile of sorted durations, in microseconds.
func quantileUs(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[int(q*float64(len(sorted)-1))].Nanoseconds()) / 1e3
}
