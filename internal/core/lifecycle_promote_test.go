package core

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/model"
	"repro/internal/predictor"
	"repro/internal/recorder"
	"repro/internal/tracefile"
)

// steppedLearning starts a journaled learning session with timestamps on
// and its manager goroutine stopped: the test calls learner.step itself, so
// it knows exactly which snapshots every published candidate was built from.
func steppedLearning(t *testing.T) (*Session, *learner, string) {
	t.Helper()
	ref := recordPattern(t, []string{"a", "b", "c", "d"}, 200)
	dir := t.TempDir()
	pol := fastLearn()
	pol.Dir = dir
	pol.Keep = 64
	var now, calls int64
	clock := func() int64 {
		calls++
		now += 3 + calls%5
		return now
	}
	s, err := NewLearningSession(ref, predictor.Config{}, pol,
		WithRecorderOptions(recorder.WithClock(clock)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	s.learn.close()
	return s, s.learn, dir
}

// eagerCandidate materializes the learner's current shadow snapshots the
// way candidates used to be built: Checkpoint.Materialize on every thread,
// timing replay included.
func eagerCandidate(l *learner) *model.TraceSet {
	l.mu.Lock()
	defer l.mu.Unlock()
	threads := make(map[int32]*model.ThreadTrace, len(l.snaps))
	for tid, snap := range l.snaps {
		threads[tid] = snap.Materialize()
	}
	return &model.TraceSet{Events: l.sess.reg.Names(), Threads: threads}
}

// checkGrammarOnly fails unless the published rival is a shadow candidate
// whose threads carry grammars and no timing model.
func checkGrammarOnly(t *testing.T, spec *rivalSpec) {
	t.Helper()
	if spec == nil || spec.snaps == nil || len(spec.ts.Threads) == 0 {
		t.Fatalf("published rival is not a shadow candidate: %+v", spec)
	}
	for tid, th := range spec.ts.Threads {
		if th.Grammar == nil || th.Timing != nil {
			t.Fatalf("thread %d of the published rival: grammar %v, timing %v", tid, th.Grammar != nil, th.Timing != nil)
		}
	}
}

// encode returns the tracefile encoding of ts.
func encode(t *testing.T, ts *model.TraceSet) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tracefile.Write(&buf, ts); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkPromoted fails unless generation gen — its journal file and the
// in-memory serving model — encodes byte-equal to the eager trace set.
func checkPromoted(t *testing.T, l *learner, dir string, gen uint64, eager *model.TraceSet) {
	t.Helper()
	for _, th := range eager.Threads {
		if th.Timing == nil {
			t.Fatal("eager candidate has no timing model; the test would not exercise the replay")
		}
	}
	raw, err := os.ReadFile(genPath(dir, gen))
	if err != nil {
		t.Fatal(err)
	}
	journaled, err := tracefile.Load(genPath(dir, gen))
	if err != nil {
		t.Fatal(err)
	}
	if journaled.Provenance == nil || journaled.Provenance.Kind != model.ProvPromotion {
		t.Fatalf("generation %d provenance: %+v", gen, journaled.Provenance)
	}
	want := *eager
	want.Provenance = journaled.Provenance
	if !bytes.Equal(raw, encode(t, &want)) {
		t.Fatalf("journaled generation %d differs from the eager materialization of the scored snapshots", gen)
	}
	g := l.serving.Load()
	if g.num != gen {
		t.Fatalf("serving generation %d, want %d", g.num, gen)
	}
	if !bytes.Equal(encode(t, g.ts), encode(t, eager)) {
		t.Fatalf("served generation %d differs from the eager materialization", gen)
	}
}

func TestForcedPromotionMatchesEagerMaterialization(t *testing.T) {
	s, l, dir := steppedLearning(t)
	ids := internPattern(s, []string{"d", "c", "b", "a"})
	submit := func(reps int) {
		for i := 0; i < reps; i++ {
			for tid := int32(0); tid < 2; tid++ {
				for _, id := range ids {
					s.Thread(tid).Submit(idOf(id))
				}
			}
		}
	}

	submit(40) // 160 events per thread: two snapshots each
	l.step()   // no rival yet: publishes the first candidate
	spec := l.rival.Load()
	checkGrammarOnly(t, spec)
	if len(spec.ts.Threads) != 2 {
		t.Fatalf("candidate covers %d threads, want 2", len(spec.ts.Threads))
	}
	eager := eagerCandidate(l)

	// Newer snapshots arrive but are not published: the forced promotion
	// must take the candidate being scored, not the newest snapshots.
	submit(40)
	gen, err := s.Promote()
	if err != nil {
		t.Fatal(err)
	}
	checkPromoted(t, l, dir, gen, eager)
}

func TestScoredPromotionMatchesEagerMaterialization(t *testing.T) {
	s, l, dir := steppedLearning(t)
	ids := internPattern(s, []string{"d", "c", "b", "a"})
	th := s.Thread(0)

	var eager *model.TraceSet // eager materialization behind the published rival
	candidates := 0
	for i := 0; i < 4000; i++ {
		for _, id := range ids {
			th.Submit(idOf(id))
		}
		before, promotions := l.rival.Load(), s.ModelInfo().Promotions
		l.step()
		if s.ModelInfo().Promotions > promotions {
			if candidates < 2 {
				t.Fatalf("promoted after %d published candidates; the test wants a refreshed one", candidates)
			}
			checkPromoted(t, l, dir, s.ModelInfo().ServingGeneration, eager)
			return
		}
		if spec := l.rival.Load(); spec != before {
			checkGrammarOnly(t, spec)
			eager = eagerCandidate(l)
			candidates++
		}
	}
	t.Fatalf("no scored promotion: %+v", s.ModelInfo())
}
