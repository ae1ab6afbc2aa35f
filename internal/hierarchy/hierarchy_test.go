package hierarchy

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// locationHierarchy builds the paper's Fig. 1 location hierarchy:
// Region ≺ City ≺ Country ≺ ALL.
func locationHierarchy(t *testing.T) *Hierarchy {
	t.Helper()
	h, err := NewBuilder("location", "Region", "City", "Country").
		Add("Plaka", "Athens", "Greece").
		Add("Kifisia", "Athens", "Greece").
		Add("Perama", "Ioannina", "Greece").
		Build()
	if err != nil {
		t.Fatalf("build location: %v", err)
	}
	return h
}

// temperatureHierarchy builds the paper's Fig. 2 temperature hierarchy:
// Conditions ≺ Weather_Characterization ≺ ALL.
func temperatureHierarchy(t *testing.T) *Hierarchy {
	t.Helper()
	h, err := NewBuilder("temperature", "Conditions", "Characterization").
		Add("freezing", "bad").
		Add("cold", "bad").
		Add("mild", "good").
		Add("warm", "good").
		Add("hot", "good").
		Build()
	if err != nil {
		t.Fatalf("build temperature: %v", err)
	}
	return h
}

func TestLevels(t *testing.T) {
	h := locationHierarchy(t)
	want := []string{"Region", "City", "Country", "ALL"}
	if got := h.Levels(); !reflect.DeepEqual(got, want) {
		t.Errorf("Levels() = %v, want %v", got, want)
	}
	if h.NumLevels() != 4 {
		t.Errorf("NumLevels() = %d, want 4", h.NumLevels())
	}
	for i, name := range want {
		if got, ok := h.LevelIndex(name); !ok || got != i {
			t.Errorf("LevelIndex(%q) = %d,%v, want %d,true", name, got, ok, i)
		}
		if h.LevelName(i) != name {
			t.Errorf("LevelName(%d) = %q, want %q", i, h.LevelName(i), name)
		}
	}
	if _, ok := h.LevelIndex("Continent"); ok {
		t.Error("LevelIndex(Continent) should not exist")
	}
}

func TestAncExamplesFromPaper(t *testing.T) {
	h := locationHierarchy(t)
	// anc^City_Region(Plaka) = Athens
	city, _ := h.LevelIndex("City")
	got, err := h.Anc("Plaka", city)
	if err != nil || got != "Athens" {
		t.Errorf("Anc(Plaka, City) = %q, %v; want Athens", got, err)
	}
	country, _ := h.LevelIndex("Country")
	got, err = h.Anc("Plaka", country)
	if err != nil || got != "Greece" {
		t.Errorf("Anc(Plaka, Country) = %q, %v; want Greece", got, err)
	}
	got, err = h.Anc("Plaka", 3)
	if err != nil || got != All {
		t.Errorf("Anc(Plaka, ALL) = %q, %v; want all", got, err)
	}
	// Identity composition.
	got, err = h.Anc("Athens", city)
	if err != nil || got != "Athens" {
		t.Errorf("Anc(Athens, City) = %q, %v; want Athens", got, err)
	}
	// Below own level is an error.
	if _, err := h.Anc("Athens", 0); err == nil {
		t.Error("Anc(Athens, Region) should fail")
	}
	if _, err := h.Anc("Atlantis", 1); err == nil {
		t.Error("Anc of unknown value should fail")
	}
}

func TestDescExamplesFromPaper(t *testing.T) {
	h := locationHierarchy(t)
	// desc^City_Region(Athens) = {Plaka, Kifisia}
	ds, err := h.DescAt("Athens", 0)
	if err != nil {
		t.Fatalf("DescAt(Athens, Region): %v", err)
	}
	if want := []string{"Plaka", "Kifisia"}; !reflect.DeepEqual(ds, want) {
		t.Errorf("DescAt(Athens, Region) = %v, want %v", ds, want)
	}
	// desc^Country_City(Greece) = {Athens, Ioannina}
	city, _ := h.LevelIndex("City")
	ds, err = h.DescAt("Greece", city)
	if err != nil {
		t.Fatalf("DescAt(Greece, City): %v", err)
	}
	if want := []string{"Athens", "Ioannina"}; !reflect.DeepEqual(ds, want) {
		t.Errorf("DescAt(Greece, City) = %v, want %v", ds, want)
	}
	// Descendants of all = full detailed domain.
	ds, err = h.Descendants(All)
	if err != nil {
		t.Fatalf("Descendants(all): %v", err)
	}
	if want := []string{"Plaka", "Kifisia", "Perama"}; !reflect.DeepEqual(ds, want) {
		t.Errorf("Descendants(all) = %v, want %v", ds, want)
	}
	// Descendants of a detailed value is itself.
	ds, _ = h.Descendants("Plaka")
	if !reflect.DeepEqual(ds, []string{"Plaka"}) {
		t.Errorf("Descendants(Plaka) = %v, want [Plaka]", ds)
	}
	if _, err := h.DescAt("Plaka", 1); err == nil {
		t.Error("DescAt above own level should fail")
	}
}

func TestAncestors(t *testing.T) {
	h := locationHierarchy(t)
	as, err := h.Ancestors("Plaka")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"Plaka", "Athens", "Greece", All}; !reflect.DeepEqual(as, want) {
		t.Errorf("Ancestors(Plaka) = %v, want %v", as, want)
	}
	as, _ = h.Ancestors(All)
	if !reflect.DeepEqual(as, []string{All}) {
		t.Errorf("Ancestors(all) = %v, want [all]", as)
	}
	if _, err := h.Ancestors("nowhere"); err == nil {
		t.Error("Ancestors of unknown value should fail")
	}
}

func TestIsAncestorOrSelf(t *testing.T) {
	h := locationHierarchy(t)
	cases := []struct {
		a, v string
		want bool
	}{
		{"Plaka", "Plaka", true},
		{"Athens", "Plaka", true},
		{"Greece", "Plaka", true},
		{All, "Plaka", true},
		{All, All, true},
		{"Plaka", "Athens", false}, // wrong direction
		{"Ioannina", "Plaka", false},
		{"Athens", "Perama", false},
		{"Plaka", "Kifisia", false},
		{"nope", "Plaka", false},
		{"Plaka", "nope", false},
	}
	for _, c := range cases {
		if got := h.IsAncestorOrSelf(c.a, c.v); got != c.want {
			t.Errorf("IsAncestorOrSelf(%q, %q) = %v, want %v", c.a, c.v, got, c.want)
		}
	}
}

func TestLeafCount(t *testing.T) {
	h := locationHierarchy(t)
	for v, want := range map[string]int{"Plaka": 1, "Athens": 2, "Ioannina": 1, "Greece": 3, All: 3} {
		if got, ok := h.LeafCount(v); !ok || got != want {
			t.Errorf("LeafCount(%q) = %d, %v; want %d", v, got, ok, want)
		}
	}
	if _, ok := h.LeafCount("nope"); ok {
		t.Error("LeafCount of an unknown value should report !ok")
	}
}

func TestTemperatureGrouping(t *testing.T) {
	h := temperatureHierarchy(t)
	ds, err := h.Descendants("good")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"mild", "warm", "hot"}; !reflect.DeepEqual(ds, want) {
		t.Errorf("Descendants(good) = %v, want %v", ds, want)
	}
	ds, _ = h.Descendants("bad")
	if want := []string{"freezing", "cold"}; !reflect.DeepEqual(ds, want) {
		t.Errorf("Descendants(bad) = %v, want %v", ds, want)
	}
	if h.ExtendedDomainSize() != 5+2+1 {
		t.Errorf("ExtendedDomainSize() = %d, want 8", h.ExtendedDomainSize())
	}
}

func TestRange(t *testing.T) {
	h := temperatureHierarchy(t)
	// The paper: temperature ∈ [mild, hot] = {mild, warm, hot}.
	got, err := h.Range("mild", "hot")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"mild", "warm", "hot"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Range(mild, hot) = %v, want %v", got, want)
	}
	got, _ = h.Range("cold", "cold")
	if !reflect.DeepEqual(got, []string{"cold"}) {
		t.Errorf("Range(cold, cold) = %v, want [cold]", got)
	}
	if _, err := h.Range("hot", "mild"); err == nil {
		t.Error("reversed range should fail")
	}
	if _, err := h.Range("mild", "good"); err == nil {
		t.Error("cross-level range should fail")
	}
	if _, err := h.Range("mild", "boiling"); err == nil {
		t.Error("unknown endpoint should fail")
	}
}

func TestLevelDistance(t *testing.T) {
	h := locationHierarchy(t)
	if d := h.LevelDistance(0, 3); d != 3 {
		t.Errorf("LevelDistance(0,3) = %d, want 3", d)
	}
	if d := h.LevelDistance(3, 0); d != 3 {
		t.Errorf("LevelDistance(3,0) = %d, want 3", d)
	}
	if d := h.LevelDistance(2, 2); d != 0 {
		t.Errorf("LevelDistance(2,2) = %d, want 0", d)
	}
}

func TestExtendedDomain(t *testing.T) {
	h := locationHierarchy(t)
	ed := h.ExtendedDomain()
	want := []string{"Plaka", "Kifisia", "Perama", "Athens", "Ioannina", "Greece", All}
	if !reflect.DeepEqual(ed, want) {
		t.Errorf("ExtendedDomain() = %v, want %v", ed, want)
	}
	if h.ExtendedDomainSize() != len(want) {
		t.Errorf("ExtendedDomainSize() = %d, want %d", h.ExtendedDomainSize(), len(want))
	}
	for _, v := range want {
		if !h.Contains(v) {
			t.Errorf("Contains(%q) = false", v)
		}
	}
	if h.Contains("Atlantis") {
		t.Error("Contains(Atlantis) = true")
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewBuilder("", "L1").Add("x").Build(); err == nil {
		t.Error("empty name should fail")
	}
	if _, err := NewBuilder("h").Build(); err == nil {
		t.Error("no levels should fail")
	}
	if _, err := NewBuilder("h", "L1", "L1").Add("a", "b").Build(); err == nil {
		t.Error("duplicate level names should fail")
	}
	if _, err := NewBuilder("h", "ALL").Add("a").Build(); err == nil {
		t.Error("level named ALL should fail")
	}
	if _, err := NewBuilder("h", "L1").Build(); err == nil {
		t.Error("no paths should fail")
	}
	if _, err := NewBuilder("h", "L1", "L2").Add("a").Build(); err == nil {
		t.Error("short path should fail")
	}
	if _, err := NewBuilder("h", "L1").Add("all").Build(); err == nil {
		t.Error("value 'all' should fail")
	}
	if _, err := NewBuilder("h", "L1").Add("").Build(); err == nil {
		t.Error("empty value should fail")
	}
	if _, err := NewBuilder("h", "L1").Add("a").Add("a").Build(); err == nil {
		t.Error("duplicate detailed value should fail")
	}
	// Same value at two different levels.
	if _, err := NewBuilder("h", "L1", "L2").Add("a", "b").Add("b", "c").Build(); err == nil {
		t.Error("value at two levels should fail")
	}
	// Conflicting parents.
	if _, err := NewBuilder("h", "L1", "L2", "L3").
		Add("a", "p", "g1").Add("b", "p", "g2").Build(); err == nil {
		t.Error("conflicting parents should fail")
	}
	// Non-monotone grouping: a < b < c detailed but parents interleave.
	if _, err := NewBuilder("h", "L1", "L2").
		Add("a", "p1").Add("b", "p2").Add("c", "p1").Build(); err == nil {
		t.Error("non-monotone anc should fail")
	}
}

func TestUniform(t *testing.T) {
	h, err := Uniform("p", 5, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumLevels() != 4 {
		t.Fatalf("NumLevels() = %d, want 4", h.NumLevels())
	}
	if got := len(h.DetailedValues()); got != 60 {
		t.Errorf("detailed values = %d, want 60", got)
	}
	if got := len(h.ValuesAt(1)); got != 12 {
		t.Errorf("level-1 values = %d, want 12", got)
	}
	if got := len(h.ValuesAt(2)); got != 3 {
		t.Errorf("level-2 values = %d, want 3", got)
	}
	// Every level-1 value has exactly 5 children.
	for _, v := range h.ValuesAt(1) {
		if got := len(h.Children(v)); got != 5 {
			t.Errorf("Children(%s) = %d, want 5", v, got)
		}
	}
	// Flat hierarchy.
	flat, err := Uniform("q", 7)
	if err != nil {
		t.Fatal(err)
	}
	if flat.NumLevels() != 2 || len(flat.DetailedValues()) != 7 {
		t.Errorf("flat: levels=%d detailed=%d, want 2 and 7", flat.NumLevels(), len(flat.DetailedValues()))
	}
	if _, err := Uniform("r"); err == nil {
		t.Error("Uniform with no fanouts should fail")
	}
	if _, err := Uniform("r", 0); err == nil {
		t.Error("Uniform with fanout 0 should fail")
	}
}

func TestString(t *testing.T) {
	h := locationHierarchy(t)
	s := h.String()
	for _, frag := range []string{"location", "Region[3]", "City[2]", "Country[1]", "ALL[1]"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
}

// quickHierarchy builds a random uniform hierarchy for property tests.
func quickHierarchy(r *rand.Rand) *Hierarchy {
	depth := 1 + r.Intn(3)
	fanouts := make([]int, depth)
	for i := range fanouts {
		fanouts[i] = 1 + r.Intn(4)
	}
	h, err := Uniform("q", fanouts...)
	if err != nil {
		panic(err)
	}
	return h
}

// Property: Anc composes — anc to Lk then to Lj equals anc straight to Lj.
func TestQuickAncComposition(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := quickHierarchy(r)
		dv := h.DetailedValues()
		v := dv[r.Intn(len(dv))]
		mid := r.Intn(h.NumLevels())
		top := mid + r.Intn(h.NumLevels()-mid)
		a1, err1 := h.Anc(v, mid)
		if err1 != nil {
			return false
		}
		a2, err2 := h.Anc(a1, top)
		if err2 != nil {
			return false
		}
		direct, err3 := h.Anc(v, top)
		return err3 == nil && a2 == direct
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Desc is the inverse of Anc — x ∈ desc(v) iff anc(x) = v.
func TestQuickDescInverseOfAnc(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := quickHierarchy(r)
		lv := r.Intn(h.NumLevels())
		vals := h.ValuesAt(lv)
		v := vals[r.Intn(len(vals))]
		ds, err := h.Descendants(v)
		if err != nil {
			return false
		}
		seen := make(map[string]bool, len(ds))
		for _, d := range ds {
			a, err := h.Anc(d, lv)
			if err != nil || a != v {
				return false
			}
			seen[d] = true
		}
		// Completeness: every detailed value with anc v is in ds.
		for _, d := range h.DetailedValues() {
			a, err := h.Anc(d, lv)
			if err != nil {
				return false
			}
			if (a == v) != seen[d] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Anc is monotone (condition 3 of the paper).
func TestQuickAncMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := quickHierarchy(r)
		dv := h.DetailedValues()
		i, j := r.Intn(len(dv)), r.Intn(len(dv))
		if i > j {
			i, j = j, i
		}
		lv := r.Intn(h.NumLevels())
		ai, err1 := h.Anc(dv[i], lv)
		aj, err2 := h.Anc(dv[j], lv)
		if err1 != nil || err2 != nil {
			return false
		}
		ri, _ := h.Rank(ai)
		rj, _ := h.Rank(aj)
		return ri <= rj
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: partitioning — the desc sets of the values of any level
// partition the detailed domain.
func TestQuickDescPartition(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := quickHierarchy(r)
		lv := r.Intn(h.NumLevels())
		count := 0
		seen := make(map[string]bool)
		for _, v := range h.ValuesAt(lv) {
			ds, err := h.Descendants(v)
			if err != nil {
				return false
			}
			for _, d := range ds {
				if seen[d] {
					return false
				}
				seen[d] = true
			}
			count += len(ds)
		}
		return count == len(h.DetailedValues())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSortedCopy(t *testing.T) {
	in := []string{"b", "a", "c"}
	got := SortedCopy(in)
	if !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("SortedCopy = %v", got)
	}
	if !reflect.DeepEqual(in, []string{"b", "a", "c"}) {
		t.Error("SortedCopy mutated its input")
	}
}
