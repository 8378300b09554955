package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request share
// req; a server-side span's parent is the client span in flight on its
// connection.
type span struct {
	id, parent, req uint64
	name            string
	start, end      int64 // ns since the tracer started
}

// maxSpans bounds each span buffer; spans beyond it are counted, not kept.
const maxSpans = 1 << 18

// tracer keeps spans in memory until the run ends. Each goroutine that
// records spans owns its buffer; add is for the rare spans recorded
// outside one (set-up calls).
type tracer struct {
	base    time.Time
	next    atomic.Uint64
	dropped atomic.Int64
	mu      sync.Mutex
	spans   []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) newID() uint64 { return t.next.Add(1) }

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.base)) }

// span builds a span; a nil tracer builds nothing.
func (t *tracer) span(parent, req uint64, name string, start, end time.Time) span {
	if t == nil {
		return span{}
	}
	id := t.newID()
	if req == 0 {
		req = id
	}
	return span{id: id, parent: parent, req: req, name: name, start: t.ns(start), end: t.ns(end)}
}

func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = t.appendSpan(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) appendSpan(buf []span, s span) []span {
	if len(buf) >= maxSpans {
		t.dropped.Add(1)
		return buf
	}
	return append(buf, s)
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for _, s := range spans {
		fmt.Fprintf(bw, `{"id":%d,"parent":%d,"req":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.id, s.parent, s.req, s.name, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// layerTime is one span name's share of the traced time.
type layerTime struct {
	name        string
	count       int64
	total, self time.Duration
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of it that its children cover.
func selfTimes(spans []span) []layerTime {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	by := make(map[string]*layerTime)
	var ivs [][2]int64
	for _, s := range spans {
		lt := by[s.name]
		if lt == nil {
			lt = &layerTime{name: s.name}
			by[s.name] = lt
		}
		ivs = ivs[:0]
		for _, c := range children[s.id] {
			lo, hi := max(c.start, s.start), min(c.end, s.end)
			if lo < hi {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
		var covered, curLo, curHi int64
		for i, iv := range ivs {
			if i == 0 || iv[0] > curHi {
				covered += curHi - curLo
				curLo, curHi = iv[0], iv[1]
			} else if iv[1] > curHi {
				curHi = iv[1]
			}
		}
		covered += curHi - curLo
		lt.count++
		lt.total += time.Duration(s.end - s.start)
		lt.self += time.Duration(s.end - s.start - covered)
	}
	out := make([]layerTime, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// countingListener wraps the daemon's listener. Its connections count
// calls, bytes and frames in each direction, and, while tracing is on,
// time every Read and Write and record them as spans.
type countingListener struct {
	net.Listener
	tr *tracer
	on atomic.Bool

	mu    sync.Mutex
	conns []*countingConn
}

func newCountingListener(ln net.Listener, tr *tracer) *countingListener {
	return &countingListener{Listener: ln, tr: tr}
}

func (l *countingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	c := &countingConn{Conn: nc, l: l}
	l.mu.Lock()
	l.conns = append(l.conns, c)
	l.mu.Unlock()
	return c, nil
}

// bindNewest attributes the most recently accepted connection's spans to
// wk. Dials are serialized and finish with a handshake round trip, so the
// newest connection is wk's.
func (l *countingListener) bindNewest(wk *worker) {
	l.mu.Lock()
	if n := len(l.conns); n > 0 {
		l.conns[n-1].owner.Store(wk)
	}
	l.mu.Unlock()
}

// ioCounts are a direction-agnostic snapshot of transport counters.
type ioCounts struct {
	reads, writes         int64
	bytesIn, bytesOut     int64
	framesIn, framesOut   int64
	readNs, writeNs       int64
	timedReads, timedWrts int64
}

func (c ioCounts) sub(d ioCounts) ioCounts {
	return ioCounts{c.reads - d.reads, c.writes - d.writes, c.bytesIn - d.bytesIn, c.bytesOut - d.bytesOut,
		c.framesIn - d.framesIn, c.framesOut - d.framesOut, c.readNs - d.readNs, c.writeNs - d.writeNs,
		c.timedReads - d.timedReads, c.timedWrts - d.timedWrts}
}

// counts sums every connection's counters, including closed ones.
func (l *countingListener) counts() ioCounts {
	l.mu.Lock()
	defer l.mu.Unlock()
	var s ioCounts
	for _, c := range l.conns {
		c.mu.Lock()
		s.reads += c.n.reads
		s.writes += c.n.writes
		s.bytesIn += c.n.bytesIn
		s.bytesOut += c.n.bytesOut
		s.framesIn += c.in.frames
		s.framesOut += c.out.frames
		s.readNs += c.n.readNs
		s.writeNs += c.n.writeNs
		s.timedReads += c.n.timedReads
		s.timedWrts += c.n.timedWrts
		c.mu.Unlock()
	}
	return s
}

// spans collects every connection's spans.
func (l *countingListener) spans() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []span
	for _, c := range l.conns {
		c.mu.Lock()
		out = append(out, c.spans...)
		c.mu.Unlock()
	}
	return out
}

// countingConn is one server-side connection of a countingListener.
type countingConn struct {
	net.Conn
	l     *countingListener
	owner atomic.Pointer[worker]

	mu      sync.Mutex
	n       ioCounts
	in, out frameCounter
	spans   []span
}

func (c *countingConn) Read(p []byte) (int, error) {
	on := c.l.on.Load()
	var t0 time.Time
	if on {
		t0 = time.Now()
	}
	n, err := c.Conn.Read(p)
	var t1 time.Time
	if on {
		t1 = time.Now()
	}
	c.mu.Lock()
	c.n.reads++
	c.n.bytesIn += int64(n)
	c.in.feed(p[:n])
	if on {
		c.record("server.read", t0, t1, &c.n.readNs, &c.n.timedReads)
	}
	c.mu.Unlock()
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	on := c.l.on.Load()
	var t0 time.Time
	if on {
		t0 = time.Now()
	}
	n, err := c.Conn.Write(p)
	var t1 time.Time
	if on {
		t1 = time.Now()
	}
	c.mu.Lock()
	c.n.writes++
	c.n.bytesOut += int64(n)
	c.out.feed(p[:n])
	if on {
		c.record("server.write", t0, t1, &c.n.writeNs, &c.n.timedWrts)
	}
	c.mu.Unlock()
	return n, err
}

// record counts one timed call and keeps its span. Caller holds c.mu.
func (c *countingConn) record(name string, t0, t1 time.Time, ns, calls *int64) {
	*ns += int64(t1.Sub(t0))
	*calls++
	var parent uint64
	if wk := c.owner.Load(); wk != nil {
		parent = wk.curReq.Load()
	}
	s := c.l.tr.span(parent, parent, name, t0, t1)
	c.spans = c.l.tr.appendSpan(c.spans, s)
}

// frameCounter counts wire frames (a uint32 big-endian length, then the
// body) in one direction of a byte stream.
type frameCounter struct {
	hdr    [4]byte
	nh     int
	left   uint32
	frames int64
}

func (f *frameCounter) feed(p []byte) {
	for len(p) > 0 {
		if f.left > 0 {
			n := uint32(len(p))
			if n > f.left {
				n = f.left
			}
			p = p[n:]
			f.left -= n
			continue
		}
		f.hdr[f.nh] = p[0]
		f.nh++
		p = p[1:]
		if f.nh == 4 {
			f.left = binary.BigEndian.Uint32(f.hdr[:])
			f.nh = 0
			f.frames++
		}
	}
}

// processCPU is the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

type runtimeStats struct {
	mallocs uint64
	numGC   uint32
}

func (r *runtimeStats) read() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.mallocs, r.numGC = ms.Mallocs, ms.NumGC
}

// profileRate is the CPU profile's sampling rate in Hz.
const profileRate = 500

// cpuProfile is a running CPU profile.
type cpuProfile struct{ buf bytes.Buffer }

func startProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	// Setting the rate first makes StartCPUProfile keep it; the runtime
	// prints a harmless warning about the second setting.
	runtime.SetCPUProfileRate(profileRate)
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		runtime.SetCPUProfileRate(0)
		return nil, err
	}
	return p, nil
}

// stop ends the profile and adds its samples, grouped by layer, to shares.
func (p *cpuProfile) stop(shares map[string]int64) error {
	pprof.StopCPUProfile()
	stacks, err := parseProfile(p.buf.Bytes())
	if err != nil {
		return fmt.Errorf("reading CPU profile: %w", err)
	}
	for _, st := range stacks {
		shares[layerOf(st.funcs)] += st.count
	}
	return nil
}

// Layers a CPU sample can be charged to, besides the module's packages.
const (
	layerSyscall = "syscall"
	layerGC      = "runtime.gc"
	layerSched   = "runtime.sched"
	layerOther   = "runtime.other"
)

// module package path prefix -> layer name, longest first.
var moduleLayers = []struct{ pkg, layer string }{
	{"repro/pythia/client", "client"},
	{"repro/internal/", ""}, // the package's own name
	{"repro/pythia", "core"},
	{"main", "perfbench"},
	{"net", "transport"},
	{"internal/poll", "transport"},
}

var gcFuncs = map[string]bool{
	"runtime.gcBgMarkWorker": true, "runtime.gcAssistAlloc": true, "runtime.bgsweep": true,
	"runtime.bgscavenge": true, "runtime.gcStart": true, "runtime.markroot": true,
	"runtime.gcDrain": true, "runtime.scanobject": true, "runtime.sweepone": true,
	"runtime.gcMarkDone": true, "runtime.gcMarkTermination": true,
}

var schedFuncs = map[string]bool{
	"runtime.schedule": true, "runtime.findRunnable": true, "runtime.mcall": true,
	"runtime.park_m": true, "runtime.goschedImpl": true, "runtime.sysmon": true,
	"runtime.futexsleep": true, "runtime.futexwakeup": true, "runtime.notesleep": true,
	"runtime.notewakeup": true, "runtime.wakep": true, "runtime.startm": true,
	"runtime.stopm": true, "runtime.netpoll": true, "runtime.ready": true,
	"runtime.goready": true, "runtime.mstart": true,
}

var syscallFuncs = map[string]bool{
	"runtime.entersyscall": true, "runtime.exitsyscall": true, "runtime.reentersyscall": true,
	"runtime.exitsyscallfast": true, "runtime.entersyscallblock": true,
}

// pkgOf returns the package path of a function symbol.
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOf charges one sample (functions leaf first) to a layer: GC work
// and scheduler work by any frame on the stack, a system call by its leaf
// frames, and anything else to the innermost frame that belongs to the
// module, the network poller or the syscall package. Runtime and standard
// library helpers (allocation, maps, copies) are charged to their caller.
func layerOf(funcs []string) string {
	for _, fn := range funcs {
		if gcFuncs[fn] {
			return layerGC
		}
	}
	for _, fn := range funcs {
		if strings.HasPrefix(fn, "main.(*counting") || strings.HasPrefix(fn, "main.(*frameCounter)") {
			return "transport" // the listener wrapper stands in for the transport layer
		}
		pkg := pkgOf(fn)
		switch {
		case pkg == "syscall" || pkg == "internal/runtime/syscall" || pkg == "runtime/internal/syscall" ||
			pkg == "internal/syscall/unix" || syscallFuncs[fn]:
			return layerSyscall
		case pkg == "runtime" && schedFuncs[fn]:
			return layerSched
		}
		for _, m := range moduleLayers {
			if pkg == m.pkg || strings.HasPrefix(pkg, m.pkg) && m.layer == "" {
				if m.layer != "" {
					return m.layer
				}
				rest := strings.TrimPrefix(pkg, m.pkg)
				if k := strings.IndexByte(rest, '/'); k >= 0 {
					rest = rest[:k]
				}
				return rest
			}
		}
	}
	return layerOther
}

// sampleStack is one distinct stack of a CPU profile.
type sampleStack struct {
	funcs []string // leaf first
	count int64
}

// parseProfile decodes the gzipped profile.proto runtime/pprof writes,
// reading only what grouping samples by function needs.
func parseProfile(data []byte) ([]sampleStack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		strs    []string
		locFns  = make(map[uint64][]uint64) // location id -> function ids, innermost first
		fnName  = make(map[uint64]int64)    // function id -> string index
	)
	err = protoFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			first := true
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					vals := appendVarints(nil, v, b)
					if first && len(vals) > 0 {
						s.count, first = int64(vals[0]), false
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return protoFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := protoFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]sampleStack, 0, len(samples))
	for _, s := range samples {
		st := sampleStack{count: s.count}
		for _, loc := range s.locs {
			for _, fid := range locFns[loc] {
				if k := fnName[fid]; k >= 0 && k < int64(len(strs)) {
					st.funcs = append(st.funcs, strs[k])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// appendVarints appends a repeated varint field's values: a single value
// (v) when unpacked, all of b's varints when packed.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// protoFields walks one protobuf message, calling fn with each field's
// number and its varint value or, for length-delimited fields, its bytes.
func protoFields(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad protobuf key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad protobuf varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short protobuf fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad protobuf length")
			}
			b = msg[n : n+int(l)]
			if b == nil {
				b = []byte{}
			}
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short protobuf fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}
