package relation

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestAttributeIntern(t *testing.T) {
	a := NewAttribute("race")
	c1 := a.Intern("Afr-Am")
	c2 := a.Intern("Cauc")
	c3 := a.Intern("Afr-Am")
	if c1 != c3 {
		t.Errorf("Intern not idempotent: %d vs %d", c1, c3)
	}
	if c1 == c2 {
		t.Errorf("distinct values interned to same code %d", c1)
	}
	if got := a.AlphabetSize(); got != 2 {
		t.Errorf("AlphabetSize = %d, want 2", got)
	}
	if got := a.Value(c2); got != "Cauc" {
		t.Errorf("Value(%d) = %q, want Cauc", c2, got)
	}
	if got := a.Value(Star); got != StarString {
		t.Errorf("Value(Star) = %q, want %q", got, StarString)
	}
	if _, ok := a.Lookup("Hisp"); ok {
		t.Error("Lookup found value that was never interned")
	}
	if code, ok := a.Lookup("Cauc"); !ok || code != c2 {
		t.Errorf("Lookup(Cauc) = (%d, %v), want (%d, true)", code, ok, c2)
	}
}

func TestAttributeAlphabetCopy(t *testing.T) {
	a := NewAttribute("x")
	a.Intern("p")
	a.Intern("q")
	alpha := a.Alphabet()
	alpha[0] = "mutated"
	if a.Value(0) != "p" {
		t.Error("Alphabet() exposed internal storage")
	}
}

func TestSchemaBasics(t *testing.T) {
	s := NewSchema("first", "last", "age", "race")
	if s.Degree() != 4 {
		t.Fatalf("Degree = %d, want 4", s.Degree())
	}
	if got := s.ColumnIndex("age"); got != 2 {
		t.Errorf("ColumnIndex(age) = %d, want 2", got)
	}
	if got := s.ColumnIndex("zip"); got != -1 {
		t.Errorf("ColumnIndex(zip) = %d, want -1", got)
	}
	names := s.Names()
	if strings.Join(names, ",") != "first,last,age,race" {
		t.Errorf("Names = %v", names)
	}
}

// hospitalTable builds the paper's §1 example relation.
func hospitalTable(t *testing.T) *Table {
	t.Helper()
	tab := NewTable(NewSchema("first", "last", "age", "race"))
	rows := [][]string{
		{"Harry", "Stone", "34", "Afr-Am"},
		{"John", "Reyser", "36", "Cauc"},
		{"Beatrice", "Stone", "47", "Afr-Am"},
		{"John", "Ramos", "22", "Hisp"},
	}
	for _, r := range rows {
		if err := tab.AppendStrings(r...); err != nil {
			t.Fatalf("AppendStrings: %v", err)
		}
	}
	return tab
}

func TestTableBasics(t *testing.T) {
	tab := hospitalTable(t)
	if tab.Len() != 4 || tab.Degree() != 4 {
		t.Fatalf("Len/Degree = %d/%d, want 4/4", tab.Len(), tab.Degree())
	}
	got := tab.Strings(2)
	want := []string{"Beatrice", "Stone", "47", "Afr-Am"}
	for j := range want {
		if got[j] != want[j] {
			t.Errorf("Strings(2)[%d] = %q, want %q", j, got[j], want[j])
		}
	}
	if tab.TotalStars() != 0 {
		t.Errorf("fresh table has %d stars", tab.TotalStars())
	}
}

func TestAppendDegreeMismatch(t *testing.T) {
	tab := NewTable(NewSchema("a", "b"))
	if err := tab.AppendStrings("only-one"); err == nil {
		t.Error("AppendStrings accepted wrong arity")
	}
	if err := tab.AppendRow(Row{1, 2, 3}); err == nil {
		t.Error("AppendRow accepted wrong arity")
	}
}

func TestStarsRoundTrip(t *testing.T) {
	tab := NewTable(NewSchema("a", "b"))
	if err := tab.AppendStrings("*", "x"); err != nil {
		t.Fatalf("AppendStrings: %v", err)
	}
	if tab.Row(0)[0] != Star {
		t.Errorf("star cell interned as %d, want Star", tab.Row(0)[0])
	}
	if tab.Row(0).Stars() != 1 {
		t.Errorf("Stars = %d, want 1", tab.Row(0).Stars())
	}
	if tab.TotalStars() != 1 {
		t.Errorf("TotalStars = %d, want 1", tab.TotalStars())
	}
}

func TestRowEqualAndClone(t *testing.T) {
	r := Row{1, Star, 3}
	c := r.Clone()
	if !r.Equal(c) {
		t.Error("clone not Equal to original")
	}
	c[0] = 9
	if r[0] != 1 {
		t.Error("Clone aliases original storage")
	}
	if r.Equal(c) {
		t.Error("Equal ignored a differing entry")
	}
	if r.Equal(Row{1, Star}) {
		t.Error("Equal ignored differing lengths")
	}
}

func TestCloneTableDeep(t *testing.T) {
	tab := hospitalTable(t)
	c := tab.Clone()
	c.Row(0)[0] = Star
	if tab.Row(0)[0] == Star {
		t.Error("Clone aliases row storage")
	}
	if c.Schema() != tab.Schema() {
		t.Error("Clone should share the schema")
	}
}

func TestGroupSizesAndKAnonymity(t *testing.T) {
	tab := MustFromVectors([][]int{
		{1, 2}, {1, 2}, {3, 4}, {3, 4}, {3, 4},
	})
	sizes := tab.GroupSizes()
	want := []int{2, 2, 3, 3, 3}
	for i := range want {
		if sizes[i] != want[i] {
			t.Errorf("GroupSizes[%d] = %d, want %d", i, sizes[i], want[i])
		}
	}
	if !tab.IsKAnonymous(2) {
		t.Error("table should be 2-anonymous")
	}
	if tab.IsKAnonymous(3) {
		t.Error("table should not be 3-anonymous (one group has size 2)")
	}
	if !tab.IsKAnonymous(0) {
		t.Error("every table is 0-anonymous")
	}
}

// TestEquivalenceClassesMatchSignatures checks the sort-based grouping
// against grouping by Signature on random tables with stars: the same
// classes in first-row order, the same GroupSizes, and the same
// IsKAnonymous verdict for every k.
func TestEquivalenceClassesMatchSignatures(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n, m := 1+rng.Intn(40), 1+rng.Intn(4)
		vecs := make([][]int, n)
		for i := range vecs {
			vecs[i] = make([]int, m)
			for j := range vecs[i] {
				vecs[i][j] = rng.Intn(3)
			}
		}
		tab := MustFromVectors(vecs)
		for i := 0; i < n; i++ {
			if rng.Intn(4) == 0 {
				tab.Row(i)[rng.Intn(m)] = Star
			}
		}
		var want [][]int
		at := map[string]int{}
		for i := 0; i < n; i++ {
			sig := tab.Signature(i)
			c, seen := at[sig]
			if !seen {
				c = len(want)
				at[sig] = c
				want = append(want, nil)
			}
			want[c] = append(want[c], i)
		}
		got := tab.EquivalenceClasses()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: EquivalenceClasses %v, want %v", trial, got, want)
		}
		sizes := tab.GroupSizes()
		smallest := n
		for _, c := range want {
			smallest = min(smallest, len(c))
			for _, i := range c {
				if sizes[i] != len(c) {
					t.Fatalf("trial %d: GroupSizes[%d] = %d, want %d", trial, i, sizes[i], len(c))
				}
			}
		}
		for k := 1; k <= n+1; k++ {
			if got, want := tab.IsKAnonymous(k), k <= smallest; got != want {
				t.Fatalf("trial %d: IsKAnonymous(%d) = %v, want %v", trial, k, got, want)
			}
		}
	}
}

func TestSignatureDistinguishesStarFromValue(t *testing.T) {
	tab := NewTable(NewSchema("a"))
	if err := tab.AppendStrings("*"); err != nil {
		t.Fatal(err)
	}
	if err := tab.AppendStrings("x"); err != nil {
		t.Fatal(err)
	}
	if tab.Signature(0) == tab.Signature(1) {
		t.Error("star row and value row share a signature")
	}
}

func TestSubTable(t *testing.T) {
	tab := hospitalTable(t)
	sub := tab.SubTable([]int{3, 1})
	if sub.Len() != 2 {
		t.Fatalf("SubTable Len = %d, want 2", sub.Len())
	}
	if sub.Strings(0)[1] != "Ramos" || sub.Strings(1)[1] != "Reyser" {
		t.Errorf("SubTable rows wrong: %v %v", sub.Strings(0), sub.Strings(1))
	}
	sub.Row(0)[0] = Star
	if tab.Row(3)[0] == Star {
		t.Error("SubTable aliases parent rows")
	}
}

func TestSortedIndex(t *testing.T) {
	tab := MustFromVectors([][]int{
		{2, 0}, {1, 1}, {1, 0}, {2, 0},
	})
	idx := tab.SortedIndex()
	// Symbol codes are interned in first-seen order: value 2 at column
	// a0 interned first (code 0), then 1 (code 1). So rows with
	// original value 2 sort first.
	for p := 1; p < len(idx); p++ {
		a, b := tab.Row(idx[p-1]), tab.Row(idx[p])
		for j := range a {
			if a[j] < b[j] {
				break
			}
			if a[j] > b[j] {
				t.Fatalf("SortedIndex out of order at position %d", p)
			}
		}
	}
	// Stability: equal rows keep original relative order.
	posOf := map[int]int{}
	for p, i := range idx {
		posOf[i] = p
	}
	if posOf[0] > posOf[3] {
		t.Error("SortedIndex is not stable for duplicate rows")
	}
}

func TestStringRendering(t *testing.T) {
	tab := hospitalTable(t)
	s := tab.String()
	if !strings.Contains(s, "first") || !strings.Contains(s, "Beatrice") {
		t.Errorf("String() missing content:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 {
		t.Errorf("String() has %d lines, want 5 (header + 4 rows)", len(lines))
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tab := hospitalTable(t)
	// Suppress an entry to check stars survive the round trip.
	tab.Row(0)[0] = Star
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tab); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if back.Len() != tab.Len() || back.Degree() != tab.Degree() {
		t.Fatalf("round trip changed shape: %dx%d vs %dx%d",
			back.Len(), back.Degree(), tab.Len(), tab.Degree())
	}
	for i := 0; i < tab.Len(); i++ {
		a, b := tab.Strings(i), back.Strings(i)
		for j := range a {
			if a[j] != b[j] {
				t.Errorf("row %d col %d: %q vs %q", i, j, a[j], b[j])
			}
		}
	}
	if back.Row(0)[0] != Star {
		t.Error("star did not survive CSV round trip")
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty input", ""},
		{"ragged row", "a,b\n1\n"},
		{"bad quoting", "a,b\n\"unterminated,2\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadCSV(strings.NewReader(tc.in)); err == nil {
				t.Errorf("ReadCSV(%q) succeeded, want error", tc.in)
			}
		})
	}
}

func TestFromVectors(t *testing.T) {
	tab := MustFromVectors([][]int{{0, 5}, {0, 7}})
	if tab.Len() != 2 || tab.Degree() != 2 {
		t.Fatalf("shape %dx%d", tab.Len(), tab.Degree())
	}
	if tab.Strings(1)[1] != "7" {
		t.Errorf("value = %q, want 7", tab.Strings(1)[1])
	}
	if _, err := FromVectors([][]int{{1, 2}, {3}}); err == nil {
		t.Error("FromVectors accepted ragged input")
	}
	if _, err := FromVectors(nil); err == nil {
		t.Error("FromVectors accepted empty input")
	}
}

func TestFromBitstrings(t *testing.T) {
	tab := MustFromBitstrings("1010", "1110", "0110")
	if tab.Len() != 3 || tab.Degree() != 4 {
		t.Fatalf("shape %dx%d", tab.Len(), tab.Degree())
	}
	if _, err := FromBitstrings("10", "1"); err == nil {
		t.Error("accepted ragged bitstrings")
	}
	if _, err := FromBitstrings("1a"); err == nil {
		t.Error("accepted non-binary character")
	}
	if _, err := FromBitstrings(); err == nil {
		t.Error("accepted empty input")
	}
}

func TestUnicodeAndEmptyValues(t *testing.T) {
	tab := NewTable(NewSchema("名前", "city"))
	rows := [][]string{
		{"山田", "東京"},
		{"", "東京"}, // empty string is a legitimate value, distinct from "*"
		{"山田", "東京"},
		{"", "東京"},
	}
	for _, r := range rows {
		if err := tab.AppendStrings(r...); err != nil {
			t.Fatal(err)
		}
	}
	if !tab.IsKAnonymous(2) {
		t.Error("duplicated unicode rows should be 2-anonymous")
	}
	if tab.Signature(0) == tab.Signature(1) {
		t.Error("empty string collides with a non-empty value")
	}
	if got := tab.Strings(1)[0]; got != "" {
		t.Errorf("empty value round-trips as %q", got)
	}
	// Empty string must also be distinct from the star sentinel.
	star := NewTable(NewSchema("a"))
	if err := star.AppendStrings("*"); err != nil {
		t.Fatal(err)
	}
	if err := star.AppendStrings(""); err != nil {
		t.Fatal(err)
	}
	if star.Signature(0) == star.Signature(1) {
		t.Error("empty string collides with the star sentinel")
	}
}

func TestWideTable(t *testing.T) {
	const m = 300
	names := make([]string, m)
	vals := make([]string, m)
	for j := range names {
		names[j] = "c" + string(rune('0'+j%10)) + string(rune('a'+j%26)) + string(rune('A'+(j/26)%26))
	}
	// Ensure names unique.
	seen := map[string]bool{}
	for j, n := range names {
		for seen[n] {
			n += "x"
		}
		seen[n] = true
		names[j] = n
		vals[j] = "v"
	}
	tab := NewTable(NewSchema(names...))
	if err := tab.AppendStrings(vals...); err != nil {
		t.Fatal(err)
	}
	if err := tab.AppendStrings(vals...); err != nil {
		t.Fatal(err)
	}
	if !tab.IsKAnonymous(2) {
		t.Error("identical wide rows should be 2-anonymous")
	}
	if tab.Degree() != m {
		t.Errorf("Degree = %d", tab.Degree())
	}
}

// TestCSVRowsLoneEmptyField pins the encoding/csv edge the fuzz target
// found: a record whose only field is "" must be written as a quoted
// `""`, because a bare empty line is skipped on read and the row would
// silently vanish from the round trip.
func TestCSVRowsLoneEmptyField(t *testing.T) {
	header := []string{"h"}
	rows := [][]string{{""}, {"x"}, {""}}
	var buf bytes.Buffer
	if err := WriteCSVRows(&buf, header, rows); err != nil {
		t.Fatal(err)
	}
	h2, r2, err := ReadCSVRows(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("round trip failed to parse %q: %v", buf.String(), err)
	}
	if len(h2) != 1 || len(r2) != 3 {
		t.Fatalf("round trip shape %dx%d, want 3x1 (%q)", len(r2), len(h2), buf.String())
	}
	for i, want := range rows {
		if r2[i][0] != want[0] {
			t.Errorf("row %d = %q, want %q", i, r2[i][0], want[0])
		}
	}

	// The Table writer takes the same path.
	tab := NewTable(NewSchema("h"))
	for _, r := range rows {
		if err := tab.AppendStrings(r...); err != nil {
			t.Fatal(err)
		}
	}
	buf.Reset()
	if err := WriteCSV(&buf, tab); err != nil {
		t.Fatal(err)
	}
	t2, err := ReadCSV(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if t2.Len() != 3 {
		t.Errorf("table round trip kept %d rows, want 3", t2.Len())
	}
}
