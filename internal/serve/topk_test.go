package serve

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// TestPPRTopKMatchesFullSort pins the bounded selection PPRTopK returns its
// ranking with to the full sort it replaced — score descending, then vertex
// ascending, truncated to k — over rankings heavy with tied scores, for
// k = 0 (everything), 1, a middle k, len−1, len and beyond.
func TestPPRTopKMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 7, 64, 500} {
		for trial := 0; trial < 8; trial++ {
			ranked := make([]Ranked, n)
			for i, v := range rng.Perm(n) {
				// Few distinct scores, so most entries tie with others.
				ranked[i] = Ranked{Vertex: v, Score: float64(rng.Intn(4)) / 8}
			}
			want := append([]Ranked(nil), ranked...)
			sort.Slice(want, func(i, j int) bool {
				if want[i].Score != want[j].Score {
					return want[i].Score > want[j].Score
				}
				return want[i].Vertex < want[j].Vertex
			})
			for _, k := range []int{0, 1, n / 2, n - 1, n, n + 3} {
				w := want
				if k > 0 && k < n {
					w = want[:k]
				}
				top := newTopK(k, n)
				for _, r := range ranked {
					top.offer(r)
				}
				got := top.ranking()
				if len(got) != len(w) || len(w) > 0 && !reflect.DeepEqual(got, w) {
					t.Fatalf("n=%d k=%d: got %v, want %v", n, k, got, w)
				}
			}
		}
	}
}
