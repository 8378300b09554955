package core

import (
	"fmt"
	"testing"

	"repro/internal/predictor"
	"repro/internal/recorder"
)

// BenchmarkLearnerCandidate times one shadow-candidate publish — the
// manager's per-epoch refresh — after a fresh snapshot of every thread, at
// two shadow stream lengths. Timestamps are on, so the recorders keep a
// delta log as long as the stream. Publishing must cost work proportional
// to the grammars, not to that log: the two sizes must time alike. A
// publish that replayed every thread's log would cost ~8x more at 128k
// events than at 16k.
func BenchmarkLearnerCandidate(b *testing.B) {
	for _, perThread := range []int{16 << 10, 128 << 10} {
		b.Run(fmt.Sprintf("events=%dk", perThread>>10), func(b *testing.B) {
			benchLearnerCandidate(b, perThread)
		})
	}
}

func benchLearnerCandidate(b *testing.B, perThread int) {
	const threads = 2
	pattern := []string{"a", "b", "c", "b", "c", "d"}
	ref := recordPattern(b, pattern, 200)
	var now int64
	s, err := NewLearningSession(ref, predictor.Config{}, LearnPolicy{},
		WithRecorderOptions(recorder.WithClock(func() int64 { now += 7; return now })))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	// Stop the manager: the benchmark publishes candidates itself.
	l := s.learn
	l.close()
	ids := internPattern(s, append(pattern, "e"))
	for tid := int32(0); tid < threads; tid++ {
		th := s.Thread(tid)
		for i := 0; i < perThread; i++ {
			// A motif with a data-dependent tail, so the grammar is nested
			// but stays small while the stream grows.
			if i%64 == 63 {
				th.Submit(idOf(ids[6]))
				continue
			}
			th.Submit(idOf(ids[i%6]))
		}
	}
	l.mu.Lock()
	snaps := make(map[int32]recorder.Checkpoint, len(l.snaps))
	for tid, snap := range l.snaps {
		snaps[tid] = snap
	}
	l.mu.Unlock()
	if len(snaps) != threads {
		b.Fatalf("%d threads offered snapshots, want %d", len(snaps), threads)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Re-offering a snapshot makes it fresh to the learner, as a
		// thread's next snapshot would be.
		for tid, snap := range snaps {
			l.offer(tid, snap)
		}
		l.opMu.Lock()
		cand := l.candidateLocked(false)
		if cand == nil {
			l.opMu.Unlock()
			b.Fatal("no candidate published")
		}
		l.publishRival(cand)
		l.opMu.Unlock()
	}
}
