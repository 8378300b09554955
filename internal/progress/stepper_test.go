package progress

import (
	"math/rand"
	"testing"
)

// TestStepperMatchesSuccessorsAnchored walks several traces from the start
// with a Stepper and requires exact agreement with the Successors reference
// at every step: AdvanceOK iff Successors returns exactly one branch, with
// the same position; AdvanceEnd iff Successors returns none.
func TestStepperMatchesSuccessorsAnchored(t *testing.T) {
	for _, s := range []string{
		"ab",
		"ababab",
		"abbcbcabbbcbcabbbcbcab",
		"abcabcabcabcabc",
		"aaaabaaaabaaaab",
		"xyxyzxyxyzxyxyz",
	} {
		f := freeze(seqOf(s))
		pos, ok := Start(f)
		if !ok {
			t.Fatalf("%q: no start position", s)
		}
		var st Stepper
		st.Reset(f, pos)
		if st.Terminal() != pos.Terminal(f) {
			t.Fatalf("%q: stepper terminal %d, position terminal %d", s, st.Terminal(), pos.Terminal(f))
		}
		for step := 0; ; step++ {
			want := Successors(f, pos, 1)
			res := st.Advance()
			switch {
			case len(want) == 0:
				if res != AdvanceEnd {
					t.Fatalf("%q step %d: Successors empty but Advance = %v", s, step, res)
				}
				if key(st.Pos()) != key(pos) {
					t.Fatalf("%q step %d: position changed on AdvanceEnd", s, step)
				}
				return
			case len(want) == 1:
				if res != AdvanceOK {
					t.Fatalf("%q step %d: unique successor but Advance = %v", s, step, res)
				}
				if key(st.Pos()) != key(want[0].Pos) {
					t.Fatalf("%q step %d: stepper at %v, want %v", s, step, st.Pos(), want[0].Pos)
				}
				if st.Terminal() != want[0].Pos.Terminal(f) {
					t.Fatalf("%q step %d: terminal %d, want %d", s, step, st.Terminal(), want[0].Pos.Terminal(f))
				}
				pos = want[0].Pos
			default:
				// An anchored walk is deterministic; reaching here means the
				// reference itself branched, which the test traces never do.
				t.Fatalf("%q step %d: anchored walk branched (%d successors)", s, step, len(want))
			}
		}
	}
}

// TestStepperPartialPositions seeds steppers at every grammar occurrence of
// every event (partial, non-anchored hypotheses) and cross-checks each
// Advance against Successors: the stepper must take exactly the branch-free
// subset — AdvanceOK only when the reference has a unique successor, and the
// same position when it does; on AdvanceEnd/AdvanceBranch the stepper's
// position must be unchanged and the walk re-startable via the reference.
func TestStepperPartialPositions(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	seqs := [][]int32{
		seqOf("abbcbcabbbcbcabbbcbcab"),
		seqOf("abcabdababcabcabdababc"),
		seqOf("aabbaabbaabbaabb"),
	}
	for si, seq := range seqs {
		f := freeze(seq)
		events := map[int32]bool{}
		for _, e := range seq {
			events[e] = true
		}
		for e := range events {
			for oi, occ := range Occurrences(f, e) {
				var st Stepper
				st.Reset(f, occ.Pos)
				pos := occ.Pos
				for step := 0; step < 200; step++ {
					want := Successors(f, pos, 1)
					res := st.Advance()
					if res == AdvanceOK {
						if len(want) != 1 {
							t.Fatalf("seq %d ev %d occ %d step %d: AdvanceOK with %d reference successors",
								si, e, oi, step, len(want))
						}
						if key(st.Pos()) != key(want[0].Pos) {
							t.Fatalf("seq %d ev %d occ %d step %d: position %v, want %v",
								si, e, oi, step, st.Pos(), want[0].Pos)
						}
						pos = want[0].Pos
						continue
					}
					if res == AdvanceEnd && len(want) != 0 {
						t.Fatalf("seq %d ev %d occ %d step %d: AdvanceEnd with %d reference successors",
							si, e, oi, step, len(want))
					}
					if key(st.Pos()) != key(pos) {
						t.Fatalf("seq %d ev %d occ %d step %d: position changed on %v",
							si, e, oi, step, res)
					}
					if len(want) == 0 {
						break
					}
					// Resume the walk on a random reference branch, as the
					// predictor's general machinery would.
					pos = want[rng.Intn(len(want))].Pos
					st.Reset(f, pos)
				}
			}
		}
	}
}

// TestStepperViewsAndRefs checks the accessor contracts: PosView aliases the
// internal buffer (changes under Advance) while Pos is durable, and
// AppendRefs matches Position.AppendRefs.
func TestStepperViewsAndRefs(t *testing.T) {
	f := freeze(seqOf("abbcbcabbbcbcabbbcbcab"))
	pos, _ := Start(f)
	var st Stepper
	st.Reset(f, pos)
	for step := 0; step < 10; step++ {
		durable := st.Pos()
		view := st.PosView()
		if key(durable) != key(view) {
			t.Fatalf("step %d: Pos and PosView disagree", step)
		}
		gotRefs := st.AppendRefs(nil)
		wantRefs := durable.AppendRefs(nil)
		if len(gotRefs) != len(wantRefs) {
			t.Fatalf("step %d: AppendRefs %v, want %v", step, gotRefs, wantRefs)
		}
		for i := range gotRefs {
			if gotRefs[i] != wantRefs[i] {
				t.Fatalf("step %d: AppendRefs %v, want %v", step, gotRefs, wantRefs)
			}
		}
		if st.Advance() != AdvanceOK {
			break
		}
		if key(durable) == key(st.Pos()) {
			t.Fatalf("step %d: durable Pos followed the stepper", step)
		}
	}
	var empty Stepper
	if empty.Live() {
		t.Fatal("zero stepper claims to be live")
	}
	if empty.Advance() != AdvanceBranch {
		t.Fatal("zero stepper advance must report AdvanceBranch")
	}
}
