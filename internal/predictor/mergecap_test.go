package predictor

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/progress"
)

// fmtKey is the original decimal position key the merge used before the
// binary AppendKey encoding; the reference merges below keep it.
func fmtKey(p progress.Position) string {
	var b strings.Builder
	for _, fr := range p.Frames() {
		fmt.Fprintf(&b, "%d.%d.%d;", fr.Ref.Rule, fr.Ref.Pos, fr.Iter)
	}
	return b.String()
}

// refMergeCap is mergeCap as it was with decimal keys.
func refMergeCap(branches []progress.Branch, max int, renorm bool) []progress.Branch {
	byKey := make(map[string]int, len(branches))
	out := make([]progress.Branch, 0, len(branches))
	for _, b := range branches {
		k := fmtKey(b.Pos)
		if i, ok := byKey[k]; ok {
			out[i].Weight += b.Weight
			continue
		}
		byKey[k] = len(out)
		out = append(out, b)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Weight > out[j].Weight })
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

// refMergeCapSim is mergeCapSim as it was with decimal keys.
func refMergeCapSim(branches []sim, max int) []sim {
	byKey := make(map[string]int, len(branches))
	out := make([]sim, 0, len(branches))
	for _, s := range branches {
		k := fmtKey(s.br.Pos)
		if i, ok := byKey[k]; ok {
			w1, w2 := out[i].br.Weight, s.br.Weight
			if w1+w2 > 0 {
				out[i].acc = (out[i].acc*w1 + s.acc*w2) / (w1 + w2)
			}
			out[i].br.Weight += w2
			continue
		}
		byKey[k] = len(out)
		out = append(out, s)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].br.Weight > out[j].br.Weight })
	if len(out) > max {
		out = out[:max]
	}
	return out
}

// mergeInputs builds hypothesis sets from the grammar walks the predictor
// makes: the re-anchoring occurrences of one event or of every event, then
// their successors step by step, unfiltered. Each frontier is also joined
// with the next one: a hypothesis one step behind another lands on the
// other's positions, which gives the merge duplicates to fold.
func mergeInputs(t *testing.T) [][]progress.Branch {
	t.Helper()
	var sets [][]progress.Branch
	walk := func(tr *model.Trace, cur []progress.Branch) {
		for step := 0; step < 8 && len(cur) > 0; step++ {
			var next []progress.Branch
			for _, b := range cur {
				next = append(next, progress.Successors(tr.Grammar, b.Pos, b.Weight)...)
			}
			joined := append(append([]progress.Branch(nil), cur...), next...)
			sets = append(sets, cur, joined)
			cur = next
		}
	}
	for _, s := range []string{
		"abbcbcabbbcbcabbbcbcab",
		"abcabdababcabcabdababc",
		"aabbaabbaabbaabb",
		"abcdbcabcdbcabcdabcabc",
	} {
		tr := traceOf(seqOf(s))
		var all []progress.Branch
		for e := int32(0); e < int32(len(tr.Events)); e++ {
			occ := progress.Occurrences(tr.Grammar, e)
			walk(tr, occ)
			all = append(all, occ...)
		}
		walk(tr, all)
	}
	// Duplicates must occur in sets on both sides of mergeLinearMax, so both
	// duplicate finders are exercised.
	var small, large int
	for _, set := range sets {
		if len(refMergeCap(set, len(set), false)) == len(set) {
			continue
		}
		if len(set) <= mergeLinearMax {
			small++
		} else {
			large++
		}
	}
	if small == 0 || large == 0 {
		t.Fatalf("sets with duplicate positions: %d small, %d large; want both", small, large)
	}
	return sets
}

// sameBranches reports whether two merged sets hold the same positions in
// the same order, and bit-identical weights.
func sameBranches(a, b []progress.Branch) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Weight != b[i].Weight || !reflect.DeepEqual(a[i].Pos.Frames(), b[i].Pos.Frames()) {
			return false
		}
	}
	return true
}

// TestMergeCapMatchesDecimalKeys pins the key change: mergeCap and
// mergeCapSim keep the merge order, the cap and every weight (and
// accumulated duration) bit-identical to the decimal-keyed originals.
func TestMergeCapMatchesDecimalKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for si, set := range mergeInputs(t) {
		for _, max := range []int{1, 3, 64} {
			for _, renorm := range []bool{false, true} {
				got := mergeCap(set, max, renorm)
				want := refMergeCap(set, max, renorm)
				if !sameBranches(got, want) {
					t.Fatalf("set %d max %d renorm %v: mergeCap %v, want %v", si, max, renorm, got, want)
				}
			}
			sims := make([]sim, len(set))
			for i, b := range set {
				sims[i] = sim{br: b, acc: rng.Float64() * 1000}
			}
			got := mergeCapSim(sims, max)
			want := refMergeCapSim(sims, max)
			if len(got) != len(want) {
				t.Fatalf("set %d max %d: mergeCapSim kept %d, want %d", si, max, len(got), len(want))
			}
			for i := range got {
				if got[i].acc != want[i].acc || !sameBranches([]progress.Branch{got[i].br}, []progress.Branch{want[i].br}) {
					t.Fatalf("set %d max %d entry %d: mergeCapSim %+v, want %+v", si, max, i, got[i], want[i])
				}
			}
		}
	}
}
