package progress

import (
	"math"
	"testing"

	"repro/internal/grammar"
)

// freeze reduces a sequence and freezes the resulting grammar.
func freeze(seq []int32) *grammar.Frozen {
	g := grammar.New()
	for _, e := range seq {
		g.Append(e)
	}
	return g.Freeze()
}

func seqOf(s string) []int32 {
	out := make([]int32, len(s))
	for i, c := range s {
		out[i] = int32(c - 'a')
	}
	return out
}

// walkAnchored follows the anchored deterministic path from Start and
// returns the terminal sequence it visits.
func walkAnchored(t *testing.T, f *grammar.Frozen) []int32 {
	t.Helper()
	var out []int32
	pos, ok := Start(f)
	for ok {
		out = append(out, pos.Terminal(f))
		brs := Successors(f, pos, 1)
		if len(brs) == 0 {
			break
		}
		if len(brs) != 1 {
			t.Fatalf("anchored position %v has %d successors, want 1", pos, len(brs))
		}
		if math.Abs(brs[0].Weight-1) > 1e-12 {
			t.Fatalf("anchored successor weight = %v, want 1", brs[0].Weight)
		}
		pos = brs[0].Pos
	}
	return out
}

func equalSeq(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestStartEmptyGrammar(t *testing.T) {
	f := freeze(nil)
	if _, ok := Start(f); ok {
		t.Fatal("Start on empty grammar should fail")
	}
}

func TestAnchoredWalkReproducesTrace(t *testing.T) {
	for _, s := range []string{
		"a",
		"ab",
		"aaaa",
		"abbcbcab",
		"abcabcabcabc",
		"aabbaabbaabb",
		"abcabdababc",
	} {
		seq := seqOf(s)
		f := freeze(seq)
		got := walkAnchored(t, f)
		if !equalSeq(got, seq) {
			t.Fatalf("sequence %q: anchored walk = %v, want %v\n%s", s, got, seq, f.Dump(nil))
		}
	}
}

func TestAnchoredWalkLongLoop(t *testing.T) {
	var seq []int32
	for i := 0; i < 300; i++ {
		seq = append(seq, 0, 1, 1, 2)
	}
	seq = append(seq, 7)
	f := freeze(seq)
	got := walkAnchored(t, f)
	if !equalSeq(got, seq) {
		t.Fatalf("anchored walk diverges (got %d terminals, want %d)", len(got), len(seq))
	}
}

func TestOccurrencesWeightsNormalised(t *testing.T) {
	// Trace "abcabdababc" (paper Fig 4): terminal a occurs 4 times.
	f := freeze(seqOf("abcabdababc"))
	brs := Occurrences(f, 0)
	if len(brs) == 0 {
		t.Fatal("no occurrences of a")
	}
	var total float64
	for _, b := range brs {
		if b.Weight <= 0 {
			t.Fatalf("non-positive weight %v", b.Weight)
		}
		if b.Pos.Terminal(f) != 0 {
			t.Fatalf("occurrence designates terminal %d, want 0", b.Pos.Terminal(f))
		}
		total += b.Weight
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("occurrence weights sum to %v, want 1", total)
	}
}

func TestOccurrencesUnknownEvent(t *testing.T) {
	f := freeze(seqOf("abab"))
	if brs := Occurrences(f, 99); brs != nil {
		t.Fatalf("unknown event returned %d occurrences", len(brs))
	}
}

// TestPartialTrackingConvergesToTruth replays the paper's section II-B1
// walk-through: on the grammar of "abbcbcab" (Fig 1), start tracking from a
// random b, then submit c and check that only positions followed by c
// survive, then check the next event is predicted as b.
func TestPartialTrackingConvergesToTruth(t *testing.T) {
	seq := seqOf("abbcbcab")
	f := freeze(seq)

	cands := Occurrences(f, 1) // observe b
	if len(cands) == 0 {
		t.Fatal("no occurrences of b")
	}
	// Advance all candidates by one and keep those matching the next
	// observation, c.
	var next []Branch
	for _, c := range cands {
		for _, s := range Successors(f, c.Pos, c.Weight) {
			if s.Pos.Terminal(f) == 2 { // c
				next = append(next, s)
			}
		}
	}
	if len(next) == 0 {
		t.Fatal("no candidate survived observing c after b")
	}
	// In "abbcbcab", every "bc" is followed by either b (after first bc) or
	// a (after second bc). Both must appear among successors of survivors.
	seen := map[int32]bool{}
	for _, c := range next {
		for _, s := range Successors(f, c.Pos, c.Weight) {
			seen[s.Pos.Terminal(f)] = true
		}
	}
	if !seen[1] || !seen[0] {
		t.Fatalf("successors after 'bc' = %v, want both a(0) and b(1)", seen)
	}
}

// TestSuccessorWeightConservation checks that, away from the trace end,
// branch weights sum to the input weight.
func TestSuccessorWeightConservation(t *testing.T) {
	var seq []int32
	for i := 0; i < 50; i++ {
		seq = append(seq, 0, 1, 2, 1, 2)
	}
	f := freeze(seq)
	// Partial anchor on terminal 1 somewhere in the middle.
	cands := Occurrences(f, 1)
	for _, c := range cands {
		brs := Successors(f, c.Pos, c.Weight)
		var total float64
		for _, b := range brs {
			total += b.Weight
		}
		// Weight may only be lost at the end of the trace; interior
		// positions must conserve it.
		if total > c.Weight+1e-9 {
			t.Fatalf("weight grew: in %v out %v at %v", c.Weight, total, c.Pos)
		}
	}
}

func TestPositionKeyDistinguishesIterations(t *testing.T) {
	f := freeze([]int32{0, 0, 0, 1})
	pos, ok := Start(f)
	if !ok {
		t.Fatal("Start failed")
	}
	brs := Successors(f, pos, 1)
	if len(brs) != 1 {
		t.Fatalf("got %d successors", len(brs))
	}
	if key(pos) == key(brs[0].Pos) {
		t.Fatal("positions at different repetitions share a key")
	}
}

func TestAnchoredReportsTrue(t *testing.T) {
	f := freeze(seqOf("abcabc"))
	pos, ok := Start(f)
	if !ok || !pos.Anchored() {
		t.Fatalf("Start position not anchored: %v", pos)
	}
	occ := Occurrences(f, 0)
	for _, b := range occ {
		if b.Pos.Anchored() && b.Pos.Frames()[0].Ref.Rule != 0 {
			t.Fatalf("partial occurrence claims anchored: %v", b.Pos)
		}
	}
}

func TestDescribeString(t *testing.T) {
	f := freeze(seqOf("ababab"))
	pos, ok := Start(f)
	if !ok {
		t.Fatal("Start failed")
	}
	if pos.String() == "" || !pos.Valid() {
		t.Fatal("String/Valid broken")
	}
	if pos.Depth() < 1 {
		t.Fatal("Depth < 1")
	}
}
