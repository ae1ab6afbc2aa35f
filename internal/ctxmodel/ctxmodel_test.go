package ctxmodel

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"contextpref/internal/hierarchy"
)

func env(t *testing.T) *Environment {
	t.Helper()
	e, err := ReferenceEnvironment()
	if err != nil {
		t.Fatalf("ReferenceEnvironment: %v", err)
	}
	return e
}

func mustState(t *testing.T, e *Environment, vs ...string) State {
	t.Helper()
	s, err := e.NewState(vs...)
	if err != nil {
		t.Fatalf("NewState(%v): %v", vs, err)
	}
	return s
}

func TestEnvironmentBasics(t *testing.T) {
	e := env(t)
	if e.NumParams() != 3 {
		t.Fatalf("NumParams = %d, want 3", e.NumParams())
	}
	want := []string{"location", "temperature", "accompanying_people"}
	if got := e.Names(); !reflect.DeepEqual(got, want) {
		t.Errorf("Names = %v, want %v", got, want)
	}
	for i, n := range want {
		p, ok := e.ParamByName(n)
		if !ok || p.Name() != n {
			t.Errorf("ParamByName(%q) missing", n)
		}
		if j, ok := e.ParamIndex(n); !ok || j != i {
			t.Errorf("ParamIndex(%q) = %d, want %d", n, j, i)
		}
		if e.Param(i).Name() != n {
			t.Errorf("Param(%d) = %q, want %q", i, e.Param(i).Name(), n)
		}
	}
	if _, ok := e.ParamByName("noise"); ok {
		t.Error("ParamByName(noise) should be absent")
	}
	// 7 regions × 5 conditions × 3 relationships.
	if got := e.WorldSize(); got != 7*5*3 {
		t.Errorf("WorldSize = %d, want %d", got, 7*5*3)
	}
	// edoms: location 7+3+1+1=12, temperature 5+2+1=8, people 3+1=4.
	if got := e.ExtendedWorldSize(); got != 12*8*4 {
		t.Errorf("ExtendedWorldSize = %d, want %d", got, 12*8*4)
	}
}

func TestEnvironmentErrors(t *testing.T) {
	if _, err := NewEnvironment(); err == nil {
		t.Error("empty environment should fail")
	}
	if _, err := NewEnvironment(nil); err == nil {
		t.Error("nil parameter should fail")
	}
	h, _ := hierarchy.Uniform("p", 3)
	p1, _ := NewParameter("p", h)
	p2, _ := NewParameter("p", h)
	if _, err := NewEnvironment(p1, p2); err == nil {
		t.Error("duplicate parameter names should fail")
	}
	if _, err := NewParameter("x", nil); err == nil {
		t.Error("nil hierarchy should fail")
	}
	// Default name from hierarchy.
	p, err := NewParameter("", h)
	if err != nil || p.Name() != "p" {
		t.Errorf("NewParameter default name = %q, %v; want p", p.Name(), err)
	}
	if p.Hierarchy() != h {
		t.Error("Hierarchy() did not round-trip")
	}
}

func TestStates(t *testing.T) {
	e := env(t)
	s := mustState(t, e, "Plaka", "warm", "friends")
	if s.String() != "(Plaka, warm, friends)" {
		t.Errorf("String = %q", s.String())
	}
	if !s.Equal(s.Clone()) {
		t.Error("clone not equal")
	}
	if s.Equal(mustState(t, e, "Plaka", "warm", "family")) {
		t.Error("different states compare equal")
	}
	if s.Equal(State{"Plaka"}) {
		t.Error("different arity compares equal")
	}
	// Extended state with mixed levels (paper: (Greece, good, all)).
	s2 := mustState(t, e, "Greece", "good", "all")
	levels, err := e.LevelsOf(s2)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{2, 1, 1}; !reflect.DeepEqual(levels, want) {
		t.Errorf("LevelsOf = %v, want %v", levels, want)
	}
	if e.IsDetailed(s2) {
		t.Error("(Greece, good, all) should not be detailed")
	}
	if !e.IsDetailed(s) {
		t.Error("(Plaka, warm, friends) should be detailed")
	}
	all := e.AllState()
	if all.String() != "(all, all, all)" {
		t.Errorf("AllState = %v", all)
	}
	if err := e.Validate(all); err != nil {
		t.Errorf("Validate(AllState) = %v", err)
	}
	// Errors.
	if _, err := e.NewState("Plaka", "warm"); err == nil {
		t.Error("short state should fail")
	}
	if _, err := e.NewState("Plaka", "warm", "enemies"); err == nil {
		t.Error("unknown value should fail")
	}
	if _, err := e.LevelsOf(State{"Plaka"}); err == nil {
		t.Error("LevelsOf with wrong arity should fail")
	}
	if _, err := e.LevelsOf(State{"Plaka", "warm", "enemies"}); err == nil {
		t.Error("LevelsOf with unknown value should fail")
	}
}

func TestStateKeyRoundTrip(t *testing.T) {
	e := env(t)
	s := mustState(t, e, "Greece", "good", "all")
	got := StateFromKey(s.Key())
	if !got.Equal(s) {
		t.Errorf("StateFromKey(Key) = %v, want %v", got, s)
	}
}

func TestCovers(t *testing.T) {
	e := env(t)
	q := mustState(t, e, "Plaka", "warm", "friends")
	cases := []struct {
		s    State
		want bool
	}{
		{mustState(t, e, "Plaka", "warm", "friends"), true},  // reflexive
		{mustState(t, e, "Athens", "warm", "friends"), true}, // location one level up
		{mustState(t, e, "Greece", "good", "all"), true},     // several levels up
		{e.AllState(), true}, // top covers everything
		{mustState(t, e, "Kifisia", "warm", "friends"), false}, // sibling
		{mustState(t, e, "Athens", "cold", "friends"), false},  // incomparable temperature
		{mustState(t, e, "Athens", "bad", "friends"), false},   // ancestor of wrong branch
		{mustState(t, e, "Ioannina", "warm", "friends"), false},
	}
	for _, c := range cases {
		if got := e.Covers(c.s, q); got != c.want {
			t.Errorf("Covers(%v, %v) = %v, want %v", c.s, q, got, c.want)
		}
	}
	// A detailed state never covers a rougher one.
	if e.Covers(q, mustState(t, e, "Athens", "warm", "friends")) {
		t.Error("detailed state covers its own generalization")
	}
	// Arity mismatch is simply false.
	if e.Covers(State{"Plaka"}, q) || e.Covers(q, State{"Plaka"}) {
		t.Error("covers with arity mismatch should be false")
	}
}

func TestCoversSet(t *testing.T) {
	e := env(t)
	si := []State{
		mustState(t, e, "Athens", "warm", "all"),
		mustState(t, e, "Greece", "bad", "all"),
	}
	sj := []State{
		mustState(t, e, "Plaka", "warm", "friends"),
		mustState(t, e, "Perama", "cold", "family"),
	}
	if !e.CoversSet(si, sj) {
		t.Error("CoversSet should hold")
	}
	sj = append(sj, mustState(t, e, "Plaka", "mild", "friends"))
	if e.CoversSet(si, []State{sj[2]}) {
		t.Error("CoversSet should fail for (Plaka, mild, friends)")
	}
	if !e.CoversSet(si, nil) {
		t.Error("CoversSet over empty Sj should hold vacuously")
	}
}

func TestParamDescriptorContext(t *testing.T) {
	e := env(t)
	// Eq.
	got, err := Eq("location", "Plaka").Context(e)
	if err != nil || !reflect.DeepEqual(got, []string{"Plaka"}) {
		t.Errorf("Eq.Context = %v, %v", got, err)
	}
	// In with duplicates collapsed.
	got, err = In("location", "Plaka", "Acropolis_Area", "Plaka").Context(e)
	if err != nil || !reflect.DeepEqual(got, []string{"Plaka", "Acropolis_Area"}) {
		t.Errorf("In.Context = %v, %v", got, err)
	}
	// Range (paper: temperature ∈ [mild, hot] = {mild, warm, hot}).
	got, err = Between("temperature", "mild", "hot").Context(e)
	if err != nil || !reflect.DeepEqual(got, []string{"mild", "warm", "hot"}) {
		t.Errorf("Between.Context = %v, %v", got, err)
	}
	// Eq on a non-detailed level is allowed (extended domain).
	got, err = Eq("temperature", "good").Context(e)
	if err != nil || !reflect.DeepEqual(got, []string{"good"}) {
		t.Errorf("Eq(good).Context = %v, %v", got, err)
	}
	// Errors.
	if _, err := Eq("altitude", "high").Context(e); err == nil {
		t.Error("unknown parameter should fail")
	}
	if _, err := Eq("location", "Atlantis").Context(e); err == nil {
		t.Error("unknown value should fail")
	}
	if _, err := In("location").Context(e); err == nil {
		t.Error("empty In should fail")
	}
	if _, err := In("location", "Plaka", "Atlantis").Context(e); err == nil {
		t.Error("In with unknown value should fail")
	}
	if _, err := Between("temperature", "hot", "mild").Context(e); err == nil {
		t.Error("reversed range should fail")
	}
	if _, err := (ParamDescriptor{Param: "location", Kind: KindEq}).Context(e); err == nil {
		t.Error("eq with no values should fail")
	}
	if _, err := (ParamDescriptor{Param: "location", Kind: KindRange, Values: []string{"Plaka"}}).Context(e); err == nil {
		t.Error("range with one endpoint should fail")
	}
	if _, err := (ParamDescriptor{Param: "location", Kind: DescriptorKind(99), Values: []string{"Plaka"}}).Context(e); err == nil {
		t.Error("unknown kind should fail")
	}
}

func TestDescriptorContextPaperExample(t *testing.T) {
	e := env(t)
	// (location = Plaka ∧ temperature ∈ {warm, hot} ∧ people = friends)
	// → (Plaka, warm, friends) and (Plaka, hot, friends).
	d := MustDescriptor(
		Eq("location", "Plaka"),
		In("temperature", "warm", "hot"),
		Eq("accompanying_people", "friends"),
	)
	states, err := d.Context(e)
	if err != nil {
		t.Fatal(err)
	}
	want := []State{
		{"Plaka", "warm", "friends"},
		{"Plaka", "hot", "friends"},
	}
	if !reflect.DeepEqual(states, want) {
		t.Errorf("Context = %v, want %v", states, want)
	}
}

func TestDescriptorMissingParamsDefaultToAll(t *testing.T) {
	e := env(t)
	// (accompanying_people = friends) → (all, all, friends).
	d := MustDescriptor(Eq("accompanying_people", "friends"))
	states, err := d.Context(e)
	if err != nil {
		t.Fatal(err)
	}
	want := []State{{"all", "all", "friends"}}
	if !reflect.DeepEqual(states, want) {
		t.Errorf("Context = %v, want %v", states, want)
	}
	// Empty descriptor → the (all, all, all) state (Def. 4 remark).
	states, err = Descriptor{}.Context(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 1 || !states[0].Equal(e.AllState()) {
		t.Errorf("empty descriptor Context = %v", states)
	}
}

func TestDescriptorCartesianOrderAndSize(t *testing.T) {
	e := env(t)
	d := MustDescriptor(
		In("location", "Plaka", "Kifisia"),
		In("temperature", "warm", "hot"),
		In("accompanying_people", "friends", "family", "alone"),
	)
	states, err := d.Context(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 2*2*3 {
		t.Fatalf("Context size = %d, want 12", len(states))
	}
	// Last parameter varies fastest.
	if !states[0].Equal(State{"Plaka", "warm", "friends"}) ||
		!states[1].Equal(State{"Plaka", "warm", "family"}) ||
		!states[3].Equal(State{"Plaka", "hot", "friends"}) {
		t.Errorf("unexpected enumeration order: %v", states[:4])
	}
	// All distinct.
	seen := map[string]bool{}
	for _, s := range states {
		if seen[s.Key()] {
			t.Fatalf("duplicate state %v", s)
		}
		seen[s.Key()] = true
	}
}

func TestDescriptorErrors(t *testing.T) {
	e := env(t)
	if _, err := NewDescriptor(Eq("location", "Plaka"), Eq("location", "Kifisia")); err == nil {
		t.Error("repeated parameter should fail")
	}
	d := MustDescriptor(Eq("altitude", "high"))
	if _, err := d.Context(e); err == nil {
		t.Error("unknown parameter should fail at expansion")
	}
	d = MustDescriptor(Eq("location", "Atlantis"))
	if _, err := d.Context(e); err == nil {
		t.Error("unknown value should fail at expansion")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustDescriptor should panic on error")
		}
	}()
	MustDescriptor(Eq("p", "v"), Eq("p", "w"))
}

func TestExtendedDescriptor(t *testing.T) {
	e := env(t)
	ed := ExtendedDescriptor{
		MustDescriptor(Eq("location", "Plaka"), Eq("temperature", "warm")),
		MustDescriptor(Eq("location", "Plaka"), In("temperature", "warm", "hot")),
	}
	states, err := ed.Context(e)
	if err != nil {
		t.Fatal(err)
	}
	// Union with dedup: (Plaka, warm, all), (Plaka, hot, all).
	want := []State{{"Plaka", "warm", "all"}, {"Plaka", "hot", "all"}}
	if !reflect.DeepEqual(states, want) {
		t.Errorf("Context = %v, want %v", states, want)
	}
	// Error propagation.
	bad := ExtendedDescriptor{MustDescriptor(Eq("location", "Atlantis"))}
	if _, err := bad.Context(e); err == nil {
		t.Error("extended descriptor with bad component should fail")
	}
	// Empty extended descriptor denotes no explicit context.
	states, err = ExtendedDescriptor{}.Context(e)
	if err != nil || len(states) != 0 {
		t.Errorf("empty extended Context = %v, %v", states, err)
	}
}

func TestStringRendering(t *testing.T) {
	e := env(t)
	_ = e
	d := MustDescriptor(Eq("location", "Plaka"), In("temperature", "warm", "hot"))
	s := d.String()
	for _, frag := range []string{"location = Plaka", "temperature ∈ {warm, hot}", "∧"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Descriptor.String() = %q missing %q", s, frag)
		}
	}
	if got := (Descriptor{}).String(); got != "(⊤)" {
		t.Errorf("empty Descriptor.String() = %q", got)
	}
	r := Between("temperature", "mild", "hot").String()
	if !strings.Contains(r, "[mild, hot]") {
		t.Errorf("range String() = %q", r)
	}
	ed := ExtendedDescriptor{d, MustDescriptor()}
	if !strings.Contains(ed.String(), " ∨ ") {
		t.Errorf("ExtendedDescriptor.String() = %q", ed.String())
	}
	if (ExtendedDescriptor{}).String() != "(⊤)" {
		t.Errorf("empty ExtendedDescriptor.String() = %q", (ExtendedDescriptor{}).String())
	}
	for k, want := range map[DescriptorKind]string{KindEq: "eq", KindIn: "in", KindRange: "range"} {
		if k.String() != want {
			t.Errorf("Kind.String() = %q, want %q", k.String(), want)
		}
	}
	if !strings.Contains(DescriptorKind(42).String(), "42") {
		t.Error("unknown kind String() should embed the code")
	}
}

func TestSortStates(t *testing.T) {
	ss := []State{{"b", "x"}, {"a", "y"}, {"a", "x"}, {"a"}}
	SortStates(ss)
	want := []State{{"a"}, {"a", "x"}, {"a", "y"}, {"b", "x"}}
	if !reflect.DeepEqual(ss, want) {
		t.Errorf("SortStates = %v, want %v", ss, want)
	}
}

// randomState draws a random extended state of the reference environment.
func randomState(e *Environment, r *rand.Rand) State {
	s := make(State, e.NumParams())
	for i := 0; i < e.NumParams(); i++ {
		ed := e.Param(i).Hierarchy().ExtendedDomain()
		s[i] = ed[r.Intn(len(ed))]
	}
	return s
}

// generalize returns a random state covering s (walking each component
// up zero or more levels).
func generalize(e *Environment, s State, r *rand.Rand) State {
	out := s.Clone()
	for i := range out {
		h := e.Param(i).Hierarchy()
		lv, _ := h.LevelOf(out[i])
		target := lv + r.Intn(h.NumLevels()-lv)
		a, err := h.Anc(out[i], target)
		if err != nil {
			panic(err)
		}
		out[i] = a
	}
	return out
}

// Theorem 1, property (1): covers is reflexive.
func TestQuickCoversReflexive(t *testing.T) {
	e := env(t)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomState(e, r)
		return e.Covers(s, s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Theorem 1, property (2): covers is antisymmetric.
func TestQuickCoversAntisymmetric(t *testing.T) {
	e := env(t)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s1 := randomState(e, r)
		s2 := randomState(e, r)
		if e.Covers(s1, s2) && e.Covers(s2, s1) {
			return s1.Equal(s2)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Theorem 1, property (3): covers is transitive. We construct chains
// s3 ⪰ s2 ⪰ s1 by generalization so the premise is commonly satisfied.
func TestQuickCoversTransitive(t *testing.T) {
	e := env(t)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s1 := randomState(e, r)
		s2 := generalize(e, s1, r)
		s3 := generalize(e, s2, r)
		if !e.Covers(s2, s1) || !e.Covers(s3, s2) {
			return false // generalize must produce covering states
		}
		return e.Covers(s3, s1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Context(cod) cardinality equals the product of the
// component descriptor contexts.
func TestQuickDescriptorCardinality(t *testing.T) {
	e := env(t)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var pds []ParamDescriptor
		expect := 1
		for i := 0; i < e.NumParams(); i++ {
			if r.Intn(3) == 0 {
				continue // leave the parameter unconstrained
			}
			ed := e.Param(i).Hierarchy().ExtendedDomain()
			m := 1 + r.Intn(3)
			seen := map[string]bool{}
			var vs []string
			for len(vs) < m {
				v := ed[r.Intn(len(ed))]
				if !seen[v] {
					seen[v] = true
					vs = append(vs, v)
				}
			}
			pds = append(pds, In(e.Param(i).Name(), vs...))
			expect *= len(vs)
		}
		d, err := NewDescriptor(pds...)
		if err != nil {
			return false
		}
		states, err := d.Context(e)
		if err != nil {
			return false
		}
		return len(states) == expect
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: every state produced by a descriptor is covered by the
// state produced by generalizing each component to "all" — and the
// descriptor's own states cover themselves (set-covering sanity).
func TestQuickDescriptorStatesCoveredByAll(t *testing.T) {
	e := env(t)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomState(e, r)
		var pds []ParamDescriptor
		for i, v := range s {
			pds = append(pds, Eq(e.Param(i).Name(), v))
		}
		d, err := NewDescriptor(pds...)
		if err != nil {
			return false
		}
		states, err := d.Context(e)
		if err != nil || len(states) != 1 {
			return false
		}
		return e.Covers(e.AllState(), states[0]) && e.CoversSet(states, states)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDescriptorAccessors(t *testing.T) {
	d := MustDescriptor(Eq("location", "Plaka"), In("temperature", "warm", "hot"))
	if got := d.Params(); !reflect.DeepEqual(got, []string{"location", "temperature"}) {
		t.Errorf("Params = %v", got)
	}
	pds := d.ParamDescriptors()
	if len(pds) != 2 || pds[0].Kind != KindEq || pds[1].Kind != KindIn {
		t.Errorf("ParamDescriptors = %v", pds)
	}
	// The returned slice is a copy: mutating it leaves d intact.
	pds[0] = Eq("location", "Kifisia")
	if d.ParamDescriptors()[0].Values[0] != "Plaka" {
		t.Error("ParamDescriptors exposed internal state")
	}
	// MustReferenceEnvironment returns a working environment.
	e := MustReferenceEnvironment()
	if e.NumParams() != 3 {
		t.Errorf("MustReferenceEnvironment params = %d", e.NumParams())
	}
}

// TestCompareKeyOrdersLikeKey checks CompareKey against the joined
// keys on random states over a tiny alphabet that includes the
// separator and bytes on both sides of it, empty values, values that
// are prefixes of one another, and states of different arity.
func TestCompareKeyOrdersLikeKey(t *testing.T) {
	alphabet := []string{"", "a", "ab", "b", "\x1f", "a\x1f", "\x00", "a\x00", "~"}
	r := rand.New(rand.NewSource(7))
	randState := func() State {
		s := make(State, r.Intn(4))
		for i := range s {
			s[i] = alphabet[r.Intn(len(alphabet))]
		}
		return s
	}
	for i := 0; i < 20000; i++ {
		a, b := randState(), randState()
		if got, want := a.CompareKey(b), strings.Compare(a.Key(), b.Key()); got != want {
			t.Fatalf("CompareKey(%q, %q) = %d, strings.Compare of keys = %d", a, b, got, want)
		}
	}
}
