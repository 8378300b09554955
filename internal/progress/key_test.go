package progress

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/grammar"
)

// key is the comparable string form of AppendKey.
func key(p Position) string { return string(p.AppendKey(nil)) }

// fmtKey is the original decimal position key, kept as the reference the
// binary encoding must agree with.
func fmtKey(p Position) string {
	var b strings.Builder
	for _, fr := range p.frames {
		fmt.Fprintf(&b, "%d.%d.%d;", fr.Ref.Rule, fr.Ref.Pos, fr.Iter)
	}
	return b.String()
}

// keyTestPositions collects every position reachable within steps
// successors of Start and of each Occurrences hypothesis.
func keyTestPositions(f *grammar.Frozen, events []int32, steps int) []Position {
	var frontier []Position
	if pos, ok := Start(f); ok {
		frontier = append(frontier, pos)
	}
	for _, e := range events {
		for _, b := range Occurrences(f, e) {
			frontier = append(frontier, b.Pos)
		}
	}
	all := append([]Position(nil), frontier...)
	for i := 0; i < steps && len(frontier) > 0; i++ {
		var next []Position
		for _, p := range frontier {
			for _, b := range Successors(f, p, 1) {
				next = append(next, b.Pos)
			}
		}
		all = append(all, next...)
		frontier = next
	}
	return all
}

// TestAppendKeyMatchesFmtKey checks that the binary key and Equal induce
// exactly the equivalence of the decimal key — equal exactly when the old
// keys are equal — over positions from the grammars the other tests use,
// plus random frame stacks with small fields (many collisions) and extreme
// values.
func TestAppendKeyMatchesFmtKey(t *testing.T) {
	var positions []Position
	for _, s := range []string{
		"abbcbcabbbcbcabbbcbcab",
		"abcabdababcabcabdababc",
		"aabbaabbaabbaabb",
		"abcabc",
		"abcdbcabcdbcabcd",
	} {
		seq := seqOf(s)
		seen := map[int32]bool{}
		var events []int32
		for _, e := range seq {
			if !seen[e] {
				seen[e] = true
				events = append(events, e)
			}
		}
		positions = append(positions, keyTestPositions(freeze(seq), events, 12)...)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 400; i++ {
		frames := make([]Frame, 1+rng.Intn(3))
		for j := range frames {
			frames[j] = Frame{
				Ref:  grammar.UserRef{Rule: int32(rng.Intn(3)), Pos: int32(rng.Intn(3))},
				Iter: uint32(rng.Intn(2)),
			}
		}
		positions = append(positions, NewPosition(frames...))
	}
	positions = append(positions,
		NewPosition(Frame{Ref: grammar.UserRef{Rule: -1, Pos: 1 << 30}, Iter: ^uint32(0)}),
		NewPosition(Frame{Ref: grammar.UserRef{Rule: 1 << 30, Pos: -1}, Iter: 0}),
		NewPosition(Frame{Ref: grammar.UserRef{Rule: 1, Pos: 11}}, Frame{Ref: grammar.UserRef{Rule: 1, Pos: 1}}),
		NewPosition(Frame{Ref: grammar.UserRef{Rule: 11, Pos: 1}}, Frame{Ref: grammar.UserRef{Rule: 1, Pos: 1}}),
		Position{},
	)

	for i, a := range positions {
		ka, oa := key(a), fmtKey(a)
		if len(ka) != 12*a.Depth() {
			t.Fatalf("position %v: key length %d, want %d", a, len(ka), 12*a.Depth())
		}
		for _, b := range positions[i:] {
			if (ka == key(b)) != (oa == fmtKey(b)) {
				t.Fatalf("positions %v and %v: binary keys equal=%v, decimal keys equal=%v",
					a, b, ka == key(b), oa == fmtKey(b))
			}
			if a.Equal(b) != (oa == fmtKey(b)) || b.Equal(a) != a.Equal(b) {
				t.Fatalf("positions %v and %v: Equal=%v, decimal keys equal=%v", a, b, a.Equal(b), oa == fmtKey(b))
			}
		}
	}
}

// TestAppendKeyReusesBuffer checks that AppendKey appends to the caller's
// buffer without allocating once the buffer is large enough.
func TestAppendKeyReusesBuffer(t *testing.T) {
	f := freeze(seqOf("abbcbcabbbcbcabbbcbcab"))
	pos, _ := Start(f)
	buf := make([]byte, 0, 64)
	allocs := testing.AllocsPerRun(100, func() {
		buf = pos.AppendKey(buf[:0])
	})
	if allocs != 0 {
		t.Fatalf("AppendKey allocated %.1f times per call", allocs)
	}
	if string(buf) != key(pos) {
		t.Fatal("reused-buffer key differs from a fresh one")
	}
}
