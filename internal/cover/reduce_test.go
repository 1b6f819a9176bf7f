package cover

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"kanon/internal/core"
	"kanon/internal/obs"
)

// reduceMapRef is the map-per-set implementation of Reduce that the
// owner-list version replaced, kept as the oracle it must match group
// for group: alive[i] is set i's member set, owners[v] a lazily
// refreshed list of the sets that may hold v.
func reduceMapRef(n int, chosen []Set, k int) (*core.Partition, error) {
	alive := make([]map[int]bool, len(chosen))
	for i, s := range chosen {
		m := make(map[int]bool, len(s.Members))
		for _, v := range s.Members {
			m[v] = true
		}
		alive[i] = m
	}
	owners := make([][]int, n)
	for i, m := range alive {
		for v := range m {
			owners[v] = append(owners[v], i)
		}
	}
	dead := make([]bool, len(alive))
	refresh := func(v int) []int {
		out := owners[v][:0]
		for _, si := range owners[v] {
			if !dead[si] && alive[si][v] {
				out = append(out, si)
			}
		}
		owners[v] = out
		return out
	}
	for v := 0; v < n; v++ {
		for {
			os := refresh(v)
			if len(os) == 0 {
				return nil, fmt.Errorf("element %d not covered", v)
			}
			if len(os) == 1 {
				break
			}
			si, sj := os[0], os[1]
			if len(alive[si]) < len(alive[sj]) {
				si, sj = sj, si
			}
			if len(alive[si]) > k {
				delete(alive[si], v)
			} else {
				for w := range alive[sj] {
					if !alive[si][w] {
						alive[si][w] = true
						owners[w] = append(owners[w], si)
					}
				}
				dead[sj] = true
			}
		}
	}
	p := &core.Partition{}
	for i, m := range alive {
		if dead[i] || len(m) == 0 {
			continue
		}
		g := make([]int, 0, len(m))
		for v := range m {
			g = append(g, v)
		}
		sort.Ints(g)
		p.Groups = append(p.Groups, g)
	}
	return p, nil
}

// TestReduceMatchesMapOracle runs Reduce and the map-based oracle on
// random overlapping families — unsorted members, repeated members,
// many sets of size exactly k so that both trims and merges fire, and
// some families that miss a row — and requires the same partition, or
// an error from both.
func TestReduceMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tr := obs.New()
	root := tr.Start("test")
	for trial := 0; trial < 2000; trial++ {
		k := 1 + rng.Intn(4)
		n := k + rng.Intn(40)
		var sets []Set
		for len(sets) < 1+rng.Intn(3*n/k+1) {
			mem := rng.Perm(n)[:min(n, k+rng.Intn(k+1))]
			if rng.Intn(8) == 0 {
				mem = append(mem, mem[rng.Intn(len(mem))])
			}
			sets = append(sets, Set{Members: mem})
		}
		want, werr := reduceMapRef(n, sets, k)
		got, gerr := ReduceTraced(n, sets, k, root)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("trial %d: oracle error %v, Reduce error %v", trial, werr, gerr)
		}
		if werr == nil && !reflect.DeepEqual(want.Groups, got.Groups) {
			t.Fatalf("trial %d (n=%d k=%d): Reduce %v, oracle %v", trial, n, k, got.Groups, want.Groups)
		}
	}
	root.End()
	c := tr.Snapshot().Counters
	if c["cover.reduce_trims"] == 0 || c["cover.reduce_merges"] == 0 {
		t.Fatalf("families too tame: %d trims, %d merges", c["cover.reduce_trims"], c["cover.reduce_merges"])
	}
}
