// Package predictor implements PYTHIA-PREDICT (paper sections II-B and
// II-C): it follows the progress of a running application through the
// grammar of a reference execution and answers queries about the future —
// which event will occur a given number of events from now, with what
// probability, and after how long.
//
// The predictor maintains a set of weighted hypotheses (progress sequences).
// While the execution matches the reference trace exactly the set contains a
// single root-anchored position and tracking is deterministic and cheap.
// After an unexpected event the predictor re-anchors on all grammar
// occurrences of the last seen event and lets subsequent observations narrow
// the set (tolerance to unexpected events, section II-B2).
package predictor

import (
	"slices"

	"repro/internal/grammar"
	"repro/internal/model"
	"repro/internal/progress"
)

// Config tunes the predictor.
type Config struct {
	// MaxCandidates caps the number of simultaneous hypotheses kept while
	// tracking observations. Zero selects the default (64).
	MaxCandidates int
	// MaxLookahead caps the number of branches kept at each step of a
	// prediction simulation. Zero selects the default (256).
	MaxLookahead int
	// DisableCache turns off the incremental prediction cache and the
	// in-place single-hypothesis advance: every query then re-simulates
	// from scratch and every observation goes through the general
	// hypothesis machinery. It is the reference implementation that the
	// differential tests and the cache ablation compare against.
	DisableCache bool
	// WatchdogWindow is the divergence watchdog's observation window: the
	// number of recent observations over which the prediction hit-rate is
	// measured. Zero selects the default (128); negative disables the
	// watchdog entirely.
	WatchdogWindow int
	// WatchdogFloor is the minimum windowed hit-rate; strictly below it
	// the predictor self-quarantines (Predict* return ok=false) until the
	// rate recovers. Zero selects the default (0.35).
	WatchdogFloor float64
	// WatchdogRecover is the hit-rate at which a quarantined predictor
	// resumes answering. Zero selects the default (WatchdogFloor + 0.15,
	// capped at 1): the hysteresis gap keeps the state from flapping.
	WatchdogRecover float64
}

const (
	defaultMaxCandidates = 64
	defaultMaxLookahead  = 256
)

func (c Config) withDefaults() Config {
	if c.MaxCandidates <= 0 {
		c.MaxCandidates = defaultMaxCandidates
	}
	if c.MaxLookahead <= 0 {
		c.MaxLookahead = defaultMaxLookahead
	}
	if c.WatchdogWindow == 0 {
		c.WatchdogWindow = defaultWatchdogWindow
	}
	if c.WatchdogFloor <= 0 {
		c.WatchdogFloor = defaultWatchdogFloor
	}
	if c.WatchdogFloor > 1 {
		c.WatchdogFloor = 1
	}
	if c.WatchdogRecover <= 0 {
		c.WatchdogRecover = c.WatchdogFloor + 0.15
	}
	if c.WatchdogRecover > 1 {
		c.WatchdogRecover = 1
	}
	if c.WatchdogRecover < c.WatchdogFloor {
		c.WatchdogRecover = c.WatchdogFloor
	}
	return c
}

// Stats counts tracking outcomes since the predictor was created.
type Stats struct {
	// Observed is the total number of events submitted.
	Observed int64
	// Followed counts observations that matched a tracked hypothesis.
	Followed int64
	// ReAnchored counts observations that matched no hypothesis and forced
	// re-anchoring on the event's grammar occurrences.
	ReAnchored int64
	// Unknown counts observations of events absent from the reference
	// trace, after which the oracle has no information until re-anchored.
	Unknown int64
}

// Predictor tracks one thread of execution against one reference trace.
// It is not safe for concurrent use; runtimes keep one per thread.
type Predictor struct {
	f      *grammar.Frozen
	timing *model.Timing
	cfg    Config
	cands  []progress.Branch
	// pending marks that the candidate set designates the *next* event to
	// be observed rather than the last observed one (after
	// StartAtBeginning).
	pending bool
	stats   Stats
	scratch []progress.Branch

	// live advances the lone hypothesis in place on the tracking fast
	// path; while liveOK is true, cands[0].Pos aliases live's internal
	// buffer (package-internal discipline: positions handed out of the
	// predictor are never views of live).
	live   progress.Stepper
	liveOK bool
	// cache is the incremental prediction cache (see cache.go).
	cache predCache
	// refsBuf is the reusable path buffer for timing lookups on the
	// cached query path.
	refsBuf []grammar.UserRef
	// wd is the divergence watchdog (see watchdog.go).
	wd watchdog
}

// New returns a predictor for the reference trace. The candidate set starts
// empty: either call StartAtBeginning when the run is known to start where
// the reference trace starts, or just Observe events and let the predictor
// anchor itself (which tolerates attaching mid-run, as the paper's
// evaluation does).
func New(tr *model.Trace, cfg Config) *Predictor {
	p := &Predictor{f: tr.Grammar, timing: tr.Timing, cfg: cfg.withDefaults()}
	p.wd.init(p.cfg)
	return p
}

// StartAtBeginning seeds tracking at the first event of the reference trace.
// The next Observe call is expected to report that event.
func (p *Predictor) StartAtBeginning() {
	p.invalidate()
	p.wd.reset()
	p.cands = p.cands[:0]
	if pos, ok := progress.Start(p.f); ok {
		p.cands = append(p.cands, progress.Branch{Pos: pos, Weight: 1})
		p.pending = true
	}
}

// Observe submits the next event of the current execution and updates the
// hypothesis set and the divergence watchdog. Tracking continues even while
// the watchdog holds predictions back — that is what lets a re-converging
// execution lift its own quarantine.
// pythia:hotpath — one call per submitted event in predict mode.
func (p *Predictor) Observe(eventID int32) {
	if !p.wd.enabled {
		p.track(eventID)
		return
	}
	f0, r0 := p.stats.Followed, p.stats.ReAnchored
	p.track(eventID)
	p.wd.record(p.stats.Followed > f0, p.stats.ReAnchored > r0)
}

// track is Observe without the watchdog accounting: it classifies the event
// as followed, re-anchored or unknown and updates the hypothesis set.
// pythia:hotpath — one call per submitted event in predict mode.
func (p *Predictor) track(eventID int32) {
	p.stats.Observed++
	if p.pending {
		p.pending = false
		if len(p.cands) == 1 && !p.cfg.DisableCache {
			// Single-hypothesis fast path: the candidate designates the
			// next event directly; nothing to merge or renormalise.
			if p.cands[0].Pos.Terminal(p.f) == eventID {
				p.stats.Followed++
				return
			}
			p.reAnchor(eventID)
			return
		}
		kept := p.scratch[:0]
		for _, c := range p.cands {
			if c.Pos.Terminal(p.f) == eventID {
				kept = append(kept, c)
			}
		}
		if len(kept) > 0 {
			p.stats.Followed++
			p.setCands(kept)
			return
		}
		p.reAnchor(eventID)
		return
	}
	if len(p.cands) == 0 {
		p.reAnchor(eventID)
		return
	}
	if len(p.cands) == 1 && !p.cfg.DisableCache && p.observeSingle(eventID) {
		return
	}
	next := p.scratch[:0]
	for _, c := range p.cands {
		for _, s := range progress.Successors(p.f, c.Pos, c.Weight) {
			if s.Pos.Terminal(p.f) == eventID {
				next = append(next, s)
			}
		}
	}
	if len(next) == 0 {
		p.reAnchor(eventID)
		return
	}
	p.stats.Followed++
	p.setCands(next)
}

// reAnchor rebuilds the hypothesis set from the grammar occurrences of
// eventID.
func (p *Predictor) reAnchor(eventID int32) {
	occ := progress.Occurrences(p.f, eventID)
	if len(occ) == 0 {
		p.stats.Unknown++
		p.invalidate()
		p.cands = p.cands[:0]
		return
	}
	p.stats.ReAnchored++
	p.setCands(occ)
}

// setCands merges duplicates, caps, renormalises and installs the set.
func (p *Predictor) setCands(branches []progress.Branch) {
	merged := mergeCap(branches, p.cfg.MaxCandidates, true)
	// Reuse the previous candidate slice as the next scratch buffer.
	p.scratch = p.cands[:0]
	p.cands = merged
	p.invalidate()
}

// Stats returns tracking counters.
func (p *Predictor) Stats() Stats { return p.stats }

// Tracking reports whether the predictor currently holds at least one
// hypothesis.
func (p *Predictor) Tracking() bool { return len(p.cands) > 0 }

// Anchored reports whether the dominant hypothesis is anchored at the
// grammar root, i.e. the position in the reference trace is fully known.
func (p *Predictor) Anchored() bool {
	return len(p.cands) > 0 && p.cands[0].Pos.Anchored()
}

// Candidates returns the current number of hypotheses.
func (p *Predictor) Candidates() int { return len(p.cands) }

// Confidence returns the weight of the dominant hypothesis (0 when lost).
func (p *Predictor) Confidence() float64 {
	if len(p.cands) == 0 {
		return 0
	}
	return p.cands[0].Weight
}

// Prediction is one predicted future event.
type Prediction struct {
	// EventID is the predicted event.
	EventID int32
	// Probability is the estimated probability of the prediction, from
	// occurrence counting in the reference trace.
	Probability float64
	// Distance is the number of events from now (1 = next event).
	Distance int
	// ExpectedNs is the expected elapsed time from the last observed event
	// until this one, according to the timing model (0 when the trace
	// carries no timing).
	ExpectedNs float64
}

// PredictAt predicts the event that will occur distance events from now
// (distance >= 1; 1 means the next event). ok is false when the predictor
// has no hypothesis or every hypothesis ends before the horizon.
// pythia:hotpath — the paper's per-query budget is ~0.05-2 µs (Fig. 9).
func (p *Predictor) PredictAt(distance int) (Prediction, bool) {
	if p.wd.quarantined {
		return Prediction{}, false
	}
	if distance >= 1 && p.cacheUsable() {
		if got := p.ensureWindow(distance); got >= distance {
			c := &p.cache
			idx := c.head + distance - 1
			var acc float64
			for _, m := range c.means[c.head : idx+1] {
				acc += m
			}
			return Prediction{
				EventID: c.evs[idx], Probability: 1,
				Distance: distance, ExpectedNs: acc,
			}, true
		} else if p.cache.state == cacheEnded {
			// The branch-free walk ends before the horizon: no
			// prediction, exactly as a fresh walk would conclude.
			return Prediction{}, false
		}
		// Branched beyond the window: the general machinery decides.
	}
	preds, ok := p.simulate(distance, nil)
	if !ok || len(preds) < distance {
		return Prediction{}, false
	}
	return preds[distance-1], true
}

// PredictSequence predicts the next n events, returning one Prediction per
// step (step i has Distance i+1). The slice may be shorter than n if every
// hypothesis reaches the end of the reference trace.
func (p *Predictor) PredictSequence(n int) []Prediction {
	if p.wd.quarantined {
		return nil
	}
	if n >= 1 && p.cacheUsable() {
		got := p.ensureWindow(n)
		if got >= n || p.cache.state == cacheEnded {
			if got > n {
				got = n
			}
			c := &p.cache
			out := make([]Prediction, got)
			var acc float64
			for i := 0; i < got; i++ {
				acc += c.means[c.head+i]
				out[i] = Prediction{
					EventID: c.evs[c.head+i], Probability: 1,
					Distance: i + 1, ExpectedNs: acc,
				}
			}
			return out
		}
	}
	preds, _ := p.simulate(n, nil)
	return preds
}

// PredictDurationUntil predicts the elapsed time from now until the next
// occurrence of eventID, searching at most maxDistance events ahead.
// ok is false when the event is not predicted within the horizon.
func (p *Predictor) PredictDurationUntil(eventID int32, maxDistance int) (Prediction, bool) {
	if p.wd.quarantined {
		return Prediction{}, false
	}
	if maxDistance >= 1 && p.cacheUsable() {
		got := p.ensureWindow(maxDistance)
		if got >= maxDistance || p.cache.state == cacheEnded {
			c := &p.cache
			if got > maxDistance {
				got = maxDistance
			}
			var acc float64
			for i := 0; i < got; i++ {
				acc += c.means[c.head+i]
				if c.evs[c.head+i] == eventID {
					return Prediction{
						EventID: eventID, Probability: 1,
						Distance: i + 1, ExpectedNs: acc,
					}, true
				}
			}
			return Prediction{}, false
		}
		// Branched before the horizon: the general machinery decides.
	}
	var hit Prediction
	found := false
	p.simulate(maxDistance, func(pr Prediction) bool {
		if pr.EventID == eventID {
			hit = pr
			found = true
			return false
		}
		return true
	})
	return hit, found
}

// sim is one weighted look-ahead branch with its accumulated expected time.
type sim struct {
	br  progress.Branch
	acc float64
}

// simulate advances a copy of the hypothesis set up to horizon steps,
// producing the dominant prediction of every step. When stop is non-nil it
// is called with each step's dominant prediction and may halt the walk.
//
// The walk cost grows linearly with the horizon (paper Fig. 9): each step
// advances every kept branch by one terminal.
func (p *Predictor) simulate(horizon int, stop func(Prediction) bool) ([]Prediction, bool) {
	if horizon <= 0 || len(p.cands) == 0 {
		return nil, false
	}
	if len(p.cands) == 1 {
		// Fast path: a single hypothesis usually has exactly one successor
		// per step (always, when anchored at the root) — no branching,
		// merging or aggregation needed. This is the common case on a
		// faithful replay and what keeps per-query cost near the paper's
		// (Fig. 9). If the walk does branch (a partial hypothesis leaving
		// its known context), fall back to the general machinery; the stop
		// callback must therefore be a pure decision function, which all
		// callers' are.
		if preds, ok, done := p.simulateSingle(horizon, stop); done {
			return preds, ok
		}
	}
	var preds []Prediction
	var cur []sim
	for step := 1; step <= horizon; step++ {
		var nxt []sim
		switch {
		case step == 1 && p.pending:
			// Fresh start: the candidates already designate the next event.
			for _, c := range p.cands {
				nxt = append(nxt, sim{br: c})
			}
		case step == 1:
			for _, c := range p.cands {
				for _, b := range progress.Successors(p.f, c.Pos, c.Weight) {
					nxt = append(nxt, sim{br: b})
				}
			}
		default:
			for _, s := range cur {
				for _, b := range progress.Successors(p.f, s.br.Pos, s.br.Weight) {
					nxt = append(nxt, sim{br: b, acc: s.acc})
				}
			}
		}
		if len(nxt) == 0 {
			return preds, len(preds) > 0
		}
		if p.timing != nil {
			var refs []grammar.UserRef
			for i := range nxt {
				refs = nxt[i].br.Pos.AppendRefs(refs[:0])
				nxt[i].acc += p.timing.MeanForPath(refs, nxt[i].br.Pos.Terminal(p.f))
			}
		}
		cur = mergeCapSim(nxt, p.cfg.MaxLookahead)
		pr := dominant(p.f, cur, step)
		preds = append(preds, pr)
		if stop != nil && !stop(pr) {
			return preds, true
		}
	}
	return preds, true
}

// simulateSingle is the branch-free simulate: one hypothesis advanced one
// terminal at a time. done is false when the walk branched and the caller
// must redo the query with the general machinery.
func (p *Predictor) simulateSingle(horizon int, stop func(Prediction) bool) (preds []Prediction, ok, done bool) {
	pos := p.cands[0].Pos
	var acc float64
	var refs []grammar.UserRef
	preds = make([]Prediction, 0, horizon)
	for step := 1; step <= horizon; step++ {
		if step == 1 && p.pending {
			// The candidate already designates the next event.
		} else {
			brs := progress.Successors(p.f, pos, 1)
			if len(brs) == 0 {
				return preds, len(preds) > 0, true
			}
			if len(brs) > 1 {
				// Partial hypothesis left its known context: branch.
				return nil, false, false
			}
			pos = brs[0].Pos
		}
		ev := pos.Terminal(p.f)
		if p.timing != nil {
			refs = pos.AppendRefs(refs[:0])
			acc += p.timing.MeanForPath(refs, ev)
		}
		pr := Prediction{EventID: ev, Probability: 1, Distance: step, ExpectedNs: acc}
		preds = append(preds, pr)
		if stop != nil && !stop(pr) {
			return preds, true, true
		}
	}
	return preds, true, true
}

// dominant aggregates branch weights per event id and returns the heaviest
// event of the step, with its probability and weighted expected time.
func dominant(f *grammar.Frozen, branches []sim, step int) Prediction {
	type agg struct {
		w   float64
		acc float64
	}
	byEvent := make(map[int32]agg, 8)
	var total float64
	for _, s := range branches {
		ev := s.br.Pos.Terminal(f)
		a := byEvent[ev]
		a.w += s.br.Weight
		a.acc += s.br.Weight * s.acc
		byEvent[ev] = a
		total += s.br.Weight
	}
	best := Prediction{EventID: -1, Distance: step}
	bestW := -1.0
	for ev, a := range byEvent {
		if a.w > bestW || (a.w == bestW && ev < best.EventID) {
			bestW = a.w
			best.EventID = ev
			if a.w > 0 {
				best.ExpectedNs = a.acc / a.w
			}
		}
	}
	if total > 0 {
		best.Probability = bestW / total
	}
	return best
}

// mergeLinearMax is the set size up to which merging finds duplicate
// positions by pairwise comparison. Trackers mostly hold two or three
// hypotheses, where a scan beats hashing keys into a fresh map.
const mergeLinearMax = 16

// posIndex finds duplicate positions while a set of branches is merged.
// Small sets compare positions pairwise; larger ones look up each
// position's AppendKey in a map, which allocates only for distinct
// positions. Both find exactly the same duplicates.
type posIndex struct {
	byKey map[string]int
	key   []byte
}

// newPosIndex returns the index for merging n branches.
func newPosIndex(n int) posIndex {
	if n > mergeLinearMax {
		return posIndex{byKey: make(map[string]int, n)}
	}
	return posIndex{}
}

// find returns the index of the merged entry whose position equals p, given
// the n entries merged so far (at returns the i-th one's position). When
// there is none it returns -1, and p becomes merged entry n.
func (x *posIndex) find(p progress.Position, n int, at func(i int) progress.Position) int {
	if x.byKey == nil {
		for i := 0; i < n; i++ {
			if at(i).Equal(p) {
				return i
			}
		}
		return -1
	}
	x.key = p.AppendKey(x.key[:0])
	if i, ok := x.byKey[string(x.key)]; ok {
		return i
	}
	x.byKey[string(x.key)] = n
	return -1
}

// heavierFirst orders weights descending for a stable sort. Unordered
// pairs (NaN) compare equal, so the order matches a sort on "a > b".
func heavierFirst(a, b float64) int {
	switch {
	case a > b:
		return -1
	case a < b:
		return 1
	}
	return 0
}

// mergeCap merges branches with identical positions, sorts by descending
// weight and keeps at most max, optionally renormalising weights to sum
// to 1.
func mergeCap(branches []progress.Branch, max int, renorm bool) []progress.Branch {
	idx := newPosIndex(len(branches))
	out := make([]progress.Branch, 0, len(branches))
	at := func(i int) progress.Position { return out[i].Pos }
	for _, b := range branches {
		if i := idx.find(b.Pos, len(out), at); i >= 0 {
			out[i].Weight += b.Weight
			continue
		}
		out = append(out, b)
	}
	slices.SortStableFunc(out, func(a, b progress.Branch) int { return heavierFirst(a.Weight, b.Weight) })
	if len(out) > max {
		out = out[:max]
	}
	if renorm {
		var total float64
		for _, b := range out {
			total += b.Weight
		}
		if total > 0 {
			for i := range out {
				out[i].Weight /= total
			}
		}
	}
	return out
}

// mergeCapSim is mergeCap for look-ahead branches, merging accumulated
// durations by weighted average.
func mergeCapSim(branches []sim, max int) []sim {
	idx := newPosIndex(len(branches))
	out := make([]sim, 0, len(branches))
	at := func(i int) progress.Position { return out[i].br.Pos }
	for _, s := range branches {
		if i := idx.find(s.br.Pos, len(out), at); i >= 0 {
			w1, w2 := out[i].br.Weight, s.br.Weight
			if w1+w2 > 0 {
				out[i].acc = (out[i].acc*w1 + s.acc*w2) / (w1 + w2)
			}
			out[i].br.Weight += w2
			continue
		}
		out = append(out, s)
	}
	slices.SortStableFunc(out, func(a, b sim) int { return heavierFirst(a.br.Weight, b.br.Weight) })
	if len(out) > max {
		out = out[:max]
	}
	return out
}

// Reset clears all hypotheses and counters; the predictor behaves as freshly
// created. Runtimes use it at phase boundaries where the past context is
// known to be irrelevant (e.g. after a checkpoint restore).
func (p *Predictor) Reset() {
	p.invalidate()
	p.wd.reset()
	p.cands = p.cands[:0]
	p.pending = false
	p.stats = Stats{}
}
